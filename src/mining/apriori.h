// The Apriori frequent-itemset algorithm (Agrawal & Srikant 1994),
// specialized to attribute=value items over table rows. Used to mine
// frequent grouping patterns (Section 5.1 of the paper): pattern support
// is monotone, so the levelwise candidate-generation + prune scheme is
// exact for the support constraint.

#ifndef CAUSUMX_MINING_APRIORI_H_
#define CAUSUMX_MINING_APRIORI_H_

#include <string>
#include <vector>

#include "dataset/pattern.h"
#include "dataset/table.h"
#include "engine/eval_engine.h"
#include "util/bitset.h"

namespace causumx {

/// A mined pattern with its support bitmap over table rows.
struct FrequentPattern {
  Pattern pattern;    ///< conjunction of attribute = value items.
  Bitset rows;        ///< rows matching the pattern.
  size_t support = 0; ///< number of matching rows.
};

/// Knobs of the levelwise search.
struct AprioriOptions {
  /// Minimum support as a fraction of table rows (the paper's tau; default
  /// 0.1 per Section 6.1).
  double min_support = 0.1;
  /// Maximum predicates per pattern (lattice depth cap).
  size_t max_length = 3;
  /// Cap on distinct values per attribute converted to items; attributes
  /// with larger (non-categorical) domains are quantile-binned into
  /// equality items over bin labels upstream — here they are skipped.
  size_t max_values_per_attribute = 64;
};

/// Mines all frequent equality patterns over the given attributes.
/// Only `=` items are generated (grouping patterns are equality patterns
/// over FD-determined attributes; treatment mining handles ordered
/// predicates separately).
///
/// Every item bitset is evaluated through an EvalEngine. A non-null
/// `engine` (bound to `table`) shares its predicate cache, so grouping
/// mining, the rule-mining baselines and treatment estimation reuse one
/// copy; a null `engine` means a serial run-private engine over
/// BorrowTable(table).
std::vector<FrequentPattern> MineFrequentPatterns(
    const Table& table, const std::vector<std::string>& attributes,
    const AprioriOptions& options = {}, EvalEngine* engine = nullptr);

}  // namespace causumx

#endif  // CAUSUMX_MINING_APRIORI_H_
