// Reproduces Table 4 (causal DAG statistics: edges, density per
// discovery algorithm) and Fig. 16/23 (overall explainability and
// Kendall tau of the top-20 treatment ranking under each discovered DAG
// vs the ground-truth DAG) on German, Adult and SO.

#include <vector>

#include "bench/bench_util.h"
#include "causal/discovery.h"
#include "mining/treatment_miner.h"
#include "util/stats.h"

using namespace causumx;

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

int main() {
  const double scale = bench::BenchScale();
  const DiscoveryAlgorithm algos[] = {
      DiscoveryAlgorithm::kPc, DiscoveryAlgorithm::kFci,
      DiscoveryAlgorithm::kLingam, DiscoveryAlgorithm::kNoDag};

  bench::Banner("Table 4 + Fig. 16/23",
                "DAG statistics and sensitivity per discovery algorithm");
  std::printf("%-10s %-10s %8s %9s %14s %12s\n", "dataset", "dag", "edges",
              "density", "explainability", "kendall-tau");

  for (const char* name : {"German", "Adult", "SO"}) {
    const GeneratedDataset ds =
        MakeDatasetByName(name, std::string(name) == "German" ? 1.0 : scale);
    const CauSumXConfig config =
        bench::ConfigFor(ds, bench::PaperDefaultConfig());

    const std::vector<double> truth_cates = TreatmentCates(ds, ds.dag);
    const CauSumXResult truth_run =
        RunCauSumX(ds.table, ds.default_query, ds.dag, config);
    std::printf("%-10s %-10s %8zu %9.3f %14.3f %12s\n", name, "truth",
                ds.dag.NumEdges(), ds.dag.Density(),
                truth_run.summary.total_explainability, "1.000");

    for (DiscoveryAlgorithm algo : algos) {
      DiscoveryOptions dopt;
      dopt.max_cond_size = 2;
      const CausalDag dag = DiscoverDag(
          ds.table, algo, ds.default_query.avg_attribute, dopt);
      const std::vector<double> cates = TreatmentCates(ds, dag);
      const double tau = KendallTau(cates, truth_cates);
      const CauSumXResult run =
          RunCauSumX(ds.table, ds.default_query, dag, config);
      std::printf("%-10s %-10s %8zu %9.3f %14.3f %12.3f\n", name,
                  DiscoveryAlgorithmName(algo), dag.NumEdges(),
                  dag.Density(), run.summary.total_explainability, tau);
    }
  }
  std::printf(
      "\nExpected shape (paper): no discovery algorithm dominates, but all\n"
      "beat the No-DAG strawman in ranking agreement with the ground\n"
      "truth; discovered DAGs tend to be sparser than the truth.\n");
  return 0;
}
