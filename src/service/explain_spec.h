// The explain request — an aggregate view Q, a causal DAG source, and
// the CauSumX knobs (the paper's problem instance) — parsed and
// validated once for every surface that runs an explanation: JSONL
// batch lines and POST /v1/explain (service/batch.h), monitor specs
// (stream/monitor.h), and the CLI's explain flags. The ExplainSpec
// members below are the request fields, by JSON name; see docs/API.md
// for examples.
//
// Parsing rejects a wrong type or out-of-range value with an error that
// names the field, and any key that neither the spec nor its caller
// consumes (batch and REST add "id" and "op"; monitors their window
// fields). In particular a request cannot choose thread counts: how
// many threads mine is an operator setting of the serving process.

#ifndef CAUSUMX_SERVICE_EXPLAIN_SPEC_H_
#define CAUSUMX_SERVICE_EXPLAIN_SPEC_H_

#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "causal/dag.h"
#include "core/causumx.h"
#include "dataset/group_query.h"
#include "dataset/predicate.h"
#include "dataset/table.h"
#include "util/json.h"

namespace causumx {

/// Parses "Attr=value" / "Attr<value" / "Attr>=value" into a predicate
/// against the table's schema (categorical columns compare as strings,
/// numeric ones as finite doubles that must span the whole value).
/// Throws std::runtime_error naming the expression on an unknown or
/// empty attribute, an empty value, a malformed number, or a missing
/// operator.
SimplePredicate ParseWherePredicate(const std::string& expr,
                                    const Table& table);

/// Member `key` of `object` (`fallback` when absent) as a count: an
/// integer in [min, 2^53] — past 2^53 doubles no longer hold every
/// integer. Throws std::runtime_error naming `key`.
size_t JsonCountField(const JsonValue& object, const std::string& key,
                      size_t fallback, size_t min);

/// What an ExplainSpec binds to over one table: the query, the DAG and
/// the run configuration, ready for ExplanationService::Explain.
struct BoundExplain {
  GroupByAvgQuery query;  ///< group_by / avg / where
  CausalDag dag;          ///< from the spec's DAG source
  CauSumXConfig config;   ///< the spec's knobs; every other field default
};

/// One validated explain request; all fields optional unless noted.
struct ExplainSpec {
  std::string table;  ///< registry name
  std::string csv;    ///< CSV path, loaded + registered if `table` absent
  /// Required: group-by attributes (JSON array or "A,B" string).
  std::vector<std::string> group_by;
  std::string avg;    ///< required: the AVG() outcome attribute
  std::string where;  ///< filter predicate, "Attr=value" / "Attr>=value"
  /// DAG sources; the first present of dag_text, dag, discover wins,
  /// else the No-DAG strawman.
  std::string dag_text;
  std::string dag;       ///< DAG file path
  std::string discover;  ///< pc, fci, lingam or nodag
  size_t k = 5;          ///< integer >= 1
  double theta = 0.75;   ///< in [0, 1]
  double support = 0.1;  ///< in (0, 1]
  double alpha = 0.05;   ///< in (0, 1)
  std::vector<std::string> grouping_attrs;   ///< allowlist (array or "A,B")
  std::vector<std::string> treatment_attrs;  ///< allowlist (array or "A,B")
  /// Mine per-group grouping patterns.
  bool per_group_patterns = GroupingMinerOptions{}.include_per_group_patterns;
  /// Smallest subpopulation a CATE is estimated over; integer >= 1.
  size_t min_group_size = EstimatorOptions{}.min_group_size;

  /// Parses and validates a request object. `caller_keys` are the extra
  /// members the caller consumes itself; any other unknown member is
  /// rejected. Throws std::runtime_error naming the field at fault.
  static ExplainSpec Parse(const JsonValue& request,
                           std::initializer_list<std::string_view>
                               caller_keys = {});

  /// The spec whose fields carry these texts, as the CLI's explain
  /// flags do (--group-by sets "group_by", --k sets "k", ...). Numeric
  /// fields take their text as a JSON number, the rest as a string, and
  /// the result goes through Parse, so text validates exactly like a
  /// request.
  static ExplainSpec FromText(const std::map<std::string, std::string>& fields);

  /// The registry name the request addresses: `table`, else the `csv`
  /// path, else `fallback`.
  std::string TableName(const std::string& fallback) const;

  /// Binds the spec to `data`, which types the where predicate and is
  /// the data a "discover" DAG is learned from. Throws on a bad where
  /// expression, an unreadable or malformed DAG, or a failed discovery.
  BoundExplain Bind(const Table& data) const;
};

}  // namespace causumx

#endif  // CAUSUMX_SERVICE_EXPLAIN_SPEC_H_
