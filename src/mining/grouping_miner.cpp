#include "mining/grouping_miner.h"

#include <bit>
#include <map>
#include <unordered_map>

namespace causumx {

namespace {

// Computes Cov(P_g): group s is covered iff all its tuples match. Because
// grouping attributes are FD-determined by A_gb, either all tuples of a
// group match or none do; checking one representative suffices, but we
// verify all to stay exact on dirty data: each matching row counts
// toward its group, and a group is covered when every one of its rows
// counted. `hits` is a zeroed per-group scratch array, left zeroed.
Bitset ComputeGroupCoverage(const AggregateView& view, const Bitset& rows,
                            std::vector<uint32_t>* hits) {
  Bitset covered(view.NumGroups());
  std::vector<uint32_t> touched;
  for (size_t w = 0; w < rows.num_words(); ++w) {
    for (uint64_t bits = rows.data()[w]; bits != 0; bits &= bits - 1) {
      const int32_t g =
          view.GroupOfRow(w * 64 + static_cast<size_t>(std::countr_zero(bits)));
      if (g < 0) continue;
      if ((*hits)[g]++ == 0) touched.push_back(static_cast<uint32_t>(g));
    }
  }
  for (uint32_t g : touched) {
    if ((*hits)[g] == view.group(g).rows.size()) covered.Set(g);
    (*hits)[g] = 0;
  }
  return covered;
}

}  // namespace

std::vector<GroupingPattern> MineGroupingPatterns(
    const Table& table, const AggregateView& view,
    const std::vector<std::string>& grouping_attributes,
    const GroupingMinerOptions& opt, EvalEngine* engine) {
  std::vector<GroupingPattern> candidates;

  // Frequent patterns over the FD attributes.
  const std::vector<FrequentPattern> frequent =
      MineFrequentPatterns(table, grouping_attributes, opt.apriori, engine);
  candidates.reserve(frequent.size());
  std::vector<uint32_t> hits(view.NumGroups(), 0);
  for (const auto& fp : frequent) {
    GroupingPattern gp;
    gp.pattern = fp.pattern;
    gp.rows = fp.rows;
    gp.support = fp.support;
    gp.group_coverage = ComputeGroupCoverage(view, fp.rows, &hits);
    if (gp.group_coverage.Any()) candidates.push_back(std::move(gp));
  }

  // Per-group fallback patterns: A_gb = key (single group-by attribute
  // case) — matches the paper's German case study where each group gets
  // its own insight in the absence of FDs.
  if (opt.include_per_group_patterns &&
      view.query().group_by.size() == 1) {
    const std::string& gb = view.query().group_by[0];
    for (size_t g = 0; g < view.NumGroups(); ++g) {
      GroupingPattern gp;
      gp.pattern = Pattern({SimplePredicate(gb, CompareOp::kEq,
                                            view.group(g).key[0])});
      gp.rows = Bitset(table.NumRows());
      for (size_t r : view.group(g).rows) gp.rows.Set(r);
      gp.support = view.group(g).rows.size();
      gp.group_coverage = Bitset(view.NumGroups());
      gp.group_coverage.Set(g);
      candidates.push_back(std::move(gp));
    }
  }

  // Redundancy removal: per distinct coverage set keep the shortest
  // pattern (ties: fewer predicates, then lexicographic for determinism).
  std::unordered_map<uint64_t, size_t> best_by_coverage;
  std::vector<GroupingPattern> result;
  for (auto& gp : candidates) {
    const uint64_t h = gp.group_coverage.Hash();
    auto it = best_by_coverage.find(h);
    if (it == best_by_coverage.end()) {
      best_by_coverage.emplace(h, result.size());
      result.push_back(std::move(gp));
      continue;
    }
    GroupingPattern& incumbent = result[it->second];
    // Hash collision guard: identical coverage only.
    if (!(incumbent.group_coverage == gp.group_coverage)) continue;
    const bool shorter =
        gp.pattern.Size() < incumbent.pattern.Size() ||
        (gp.pattern.Size() == incumbent.pattern.Size() &&
         gp.pattern.ToString() < incumbent.pattern.ToString());
    if (shorter) incumbent = std::move(gp);
  }
  return result;
}

}  // namespace causumx
