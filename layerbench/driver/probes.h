// Outside-in probes of single layers, run after the timed phase of a
// traced run. Each probe calls one module's public functions on the
// workload's own inputs and times the calls.

#ifndef LAYERBENCH_DRIVER_PROBES_H_
#define LAYERBENCH_DRIVER_PROBES_H_

#include <memory>
#include <vector>

#include "bench.h"
#include "causal/dag.h"
#include "dataset/table.h"
#include "util/shard_plan.h"
#include "util/thread_pool.h"

namespace layerbench {

/// Per-call costs collected by the probes, in microseconds.
struct ProbeSamples {
  std::vector<double> cate_miss_us;
  std::vector<double> cate_hit_us;
  std::vector<double> atom_build_us;
  std::vector<double> conj_eval_us;
};

/// causal: EstimatorContext::EstimateCate on a fresh context over the
/// level-1 atoms (GenerateAtomicTreatments, restricted to the outcome's
/// causal ancestors as the lattice walk restricts them) x each grouping
/// pattern's rows, then the same calls again (memo hits).
/// engine: the first EvalEngine::Evaluate of each atom on a fresh engine
/// (segment build), then warm 2- and 3-atom conjunctions.
/// `pool` (may be null) and num_shards 0 give the engine the workload's
/// shard plan.
void ProbeEstimatorAndEngine(const std::shared_ptr<const causumx::Table>& table,
                             const GroupByAvgQuery& query,
                             const causumx::CausalDag& dag,
                             const CauSumXConfig& config,
                             std::shared_ptr<causumx::ThreadPool> pool,
                             ProbeSamples* out);

/// core: one AggregateView::Evaluate of the query over `plan`, in ms.
double ProbeViewMs(const causumx::Table& table, const GroupByAvgQuery& query,
                   const causumx::ShardPlan& plan, causumx::ThreadPool* pool);

/// Appends the probe medians as causal.* / engine.* metrics.
void AddProbeMetrics(const ProbeSamples& samples, Outcome* out);

}  // namespace layerbench

#endif  // LAYERBENCH_DRIVER_PROBES_H_
