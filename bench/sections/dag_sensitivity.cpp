// Reproduces Table 4 (causal DAG statistics: edges, density per
// discovery algorithm) and Fig. 16/23 (overall explainability and
// Kendall tau of the top-20 treatment ranking under each discovered DAG
// vs the ground-truth DAG) on German, Adult and SO.

#include <vector>

#include "bench/harness.h"
#include "causal/discovery.h"
#include "mining/treatment_miner.h"
#include "util/stats.h"

namespace causumx::bench {

namespace {

// CATEs of the first 20 atomic treatments under a DAG.
std::vector<double> TreatmentCates(const GeneratedDataset& ds,
                                   const CausalDag& dag) {
  const AttributePartition part = PartitionAttributes(
      ds.table, ds.default_query.group_by, ds.default_query.avg_attribute);
  Bitset all(ds.table.NumRows());
  all.SetAll();
  EstimatorOptions opt;
  opt.min_group_size = 5;
  EstimatorContext est(
      std::make_shared<EvalEngine>(BorrowTable(ds.table)), dag, opt);
  const auto atoms = GenerateAtomicTreatments(
      *est.engine(), part.treatment_attributes, {});
  std::vector<double> cates;
  for (size_t i = 0; i < atoms.size() && cates.size() < 20; ++i) {
    cates.push_back(
        est.EstimateCate(Pattern({atoms[i]}),
                         ds.default_query.avg_attribute, all)
            .cate);
  }
  return cates;
}

}  // namespace

void DagSensitivity(Section& s) {
  const DiscoveryAlgorithm algos[] = {
      DiscoveryAlgorithm::kPc, DiscoveryAlgorithm::kFci,
      DiscoveryAlgorithm::kLingam, DiscoveryAlgorithm::kNoDag};

  s.Banner("Table 4 + Fig. 16/23",
           "DAG statistics and sensitivity per discovery algorithm");
  s.Table("Table 4 + Fig. 16/23",
          {{"dataset", -10}, {"dag", -10}, {"edges", 8}, {"density", 9},
           {"explainability", 14}, {"kendall-tau", 12}});

  for (const std::string name : {"German", "Adult", "SO"}) {
    const GeneratedDataset ds =
        MakeDatasetByName(name, name == "German" ? 1.0 : s.scale());
    const CauSumXConfig config = ConfigFor(ds, PaperDefaultConfig());

    const std::vector<double> truth_cates = TreatmentCates(ds, ds.dag);
    const CauSumXResult truth_run =
        RunCauSumX(ds.table, ds.default_query, ds.dag, config);
    s.Row({name, "truth", Fmt("%zu", ds.dag.NumEdges()),
           Fmt("%.3f", ds.dag.Density()),
           Fmt("%.3f", truth_run.summary.total_explainability), "1.000"});

    for (DiscoveryAlgorithm algo : algos) {
      DiscoveryOptions dopt;
      dopt.max_cond_size = 2;
      const CausalDag dag = DiscoverDag(
          ds.table, algo, ds.default_query.avg_attribute, dopt);
      const std::vector<double> cates = TreatmentCates(ds, dag);
      const double tau = KendallTau(cates, truth_cates);
      const CauSumXResult run =
          RunCauSumX(ds.table, ds.default_query, dag, config);
      s.Row({name, DiscoveryAlgorithmName(algo),
             Fmt("%zu", dag.NumEdges()), Fmt("%.3f", dag.Density()),
             Fmt("%.3f", run.summary.total_explainability),
             Fmt("%.3f", tau)});
    }
  }
  std::printf(
      "\nExpected shape (paper): no discovery algorithm dominates, but all\n"
      "beat the No-DAG strawman in ranking agreement with the ground\n"
      "truth; discovered DAGs tend to be sparser than the truth.\n");
}

}  // namespace causumx::bench
