// JSON members of the cache counters. One writer per stats struct, so
// `GET /v1/stats` (server/rest_api.h) and the batch result lines'
// "cache" object (service/batch.h) carry the same keys, named after the
// struct fields, and a new counter is added in one place.

#ifndef CAUSUMX_SERVICE_STATS_JSON_H_
#define CAUSUMX_SERVICE_STATS_JSON_H_

#include "causal/estimator_context.h"
#include "engine/eval_engine.h"
#include "util/json.h"

namespace causumx {

/// Writes every EvalEngineStats counter as a member of the object `w`
/// has open.
void WriteStatsMembers(JsonWriter& w, const EvalEngineStats& e);

/// Writes every EstimatorCacheStats counter as a member of the object
/// `w` has open.
void WriteStatsMembers(JsonWriter& w, const EstimatorCacheStats& m);

}  // namespace causumx

#endif  // CAUSUMX_SERVICE_STATS_JSON_H_
