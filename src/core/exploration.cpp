#include "core/exploration.h"

namespace causumx {

ExplorationSession::ExplorationSession(
    std::shared_ptr<const Table> table, GroupByAvgQuery query, CausalDag dag,
    CauSumXConfig config, std::shared_ptr<EvalEngine> engine,
    std::shared_ptr<EstimatorContext> context,
    std::shared_ptr<const CandidateMiningResult> mined)
    : table_(std::move(table)),
      query_(std::move(query)),
      dag_(std::move(dag)),
      config_(std::move(config)),
      engine_(engine != nullptr ? engine : MakeRunEngine(table_, config_)),
      estimator_(context != nullptr
                     ? std::move(context)
                     : std::make_shared<EstimatorContext>(
                           engine_, dag_, config_.estimator)),
      mining_pool_(engine == nullptr ? engine_->pool() : nullptr),
      mined_(std::move(mined)) {}

ExplorationSession::ExplorationSession(const Table& table,
                                       GroupByAvgQuery query, CausalDag dag,
                                       CauSumXConfig config)
    : ExplorationSession(BorrowTable(table), std::move(query),
                         std::move(dag), std::move(config)) {}

void ExplorationSession::EnsureMined() {
  if (mined_ == nullptr) {
    mined_ = std::make_shared<const CandidateMiningResult>(
        MineExplanationCandidates(*table_, query_, dag_, config_, engine_,
                                  estimator_, mining_pool_));
  }
}

ExplanationSummary ExplorationSession::Solve(size_t k, double theta,
                                             FinalStepSolver solver) {
  EnsureMined();
  CauSumXConfig config = config_;
  config.k = k;
  config.theta = theta;
  config.solver = solver;
  return SelectExplanations(mined_->candidates, mined_->view.NumGroups(),
                            config);
}

ExplanationSummary ExplorationSession::Solve() {
  return Solve(config_.k, config_.theta, config_.solver);
}

std::vector<ScoredTreatment> ExplorationSession::TopTreatments(
    const Pattern& grouping_pattern, TreatmentSign sign, size_t k) {
  EnsureMined();
  Bitset rows;
  if (grouping_pattern.IsEmpty()) {
    rows = Bitset(table_->NumRows());
    rows.SetAll();
  } else {
    rows = engine_->Evaluate(grouping_pattern);
  }

  const std::vector<std::string>& treatment_attrs =
      config_.treatment_attribute_allowlist.empty()
          ? mined_->partition.treatment_attributes
          : config_.treatment_attribute_allowlist;
  const std::vector<SimplePredicate> atoms = CausalTreatmentAtoms(
      *estimator_, query_.avg_attribute, treatment_attrs, config_.treatment);
  return MineTopKTreatments(*estimator_, rows, query_.avg_attribute, atoms,
                            sign, k, config_.treatment);
}

const AggregateView& ExplorationSession::View() {
  EnsureMined();
  return mined_->view;
}

const std::vector<Explanation>& ExplorationSession::Candidates() {
  EnsureMined();
  return mined_->candidates;
}

const CandidateMiningResult& ExplorationSession::MiningResult() {
  EnsureMined();
  return *mined_;
}

EngineCacheStats ExplorationSession::CacheStats() const {
  EngineCacheStats stats;
  stats.eval = engine_->Stats();
  stats.estimator = estimator_->Stats();
  return stats;
}

}  // namespace causumx
