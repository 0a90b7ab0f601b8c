#include "service/stats_json.h"

namespace causumx {

void WriteStatsMembers(JsonWriter& w, const EvalEngineStats& e) {
  w.Key("predicates_interned").Uint(e.predicates_interned)
      .Key("bitsets_materialized").Uint(e.bitsets_materialized)
      .Key("bitset_hits").Uint(e.bitset_hits)
      .Key("bitsets_evicted").Uint(e.bitsets_evicted)
      .Key("bitsets_extended").Uint(e.bitsets_extended)
      .Key("pattern_evals").Uint(e.pattern_evals)
      .Key("bypass_evals").Uint(e.bypass_evals)
      .Key("bitsets_retracted").Uint(e.bitsets_retracted)
      .Key("column_views_built").Uint(e.column_views_built)
      .Key("column_views_extended").Uint(e.column_views_extended)
      .Key("column_views_retracted").Uint(e.column_views_retracted)
      .Key("bitset_bytes").Uint(e.bitset_bytes)
      .Key("view_bytes").Uint(e.view_bytes)
      .Key("num_shards").Uint(e.num_shards);
}

void WriteStatsMembers(JsonWriter& w, const EstimatorCacheStats& m) {
  w.Key("memo_hits").Uint(m.memo_hits)
      .Key("memo_misses").Uint(m.memo_misses)
      .Key("memo_evicted").Uint(m.memo_evicted)
      .Key("memo_migrated").Uint(m.memo_migrated)
      .Key("memo_entries").Uint(m.memo_entries)
      .Key("memo_bytes").Uint(m.memo_bytes)
      .Key("gram_builds").Uint(m.gram_builds)
      .Key("gram_hits").Uint(m.gram_hits)
      .Key("fit_passes").Uint(m.fit_passes)
      .Key("gram_bytes").Uint(m.gram_bytes);
}

}  // namespace causumx
