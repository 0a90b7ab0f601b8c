#include "probes.h"

#include <algorithm>
#include <set>

#include "causal/estimator_context.h"
#include "dataset/fd.h"
#include "dataset/group_query.h"
#include "engine/eval_engine.h"
#include "mining/grouping_miner.h"
#include "mining/treatment_miner.h"
#include "util/timer.h"

namespace layerbench {

using causumx::EvalEngine;
using causumx::EvalEngineOptions;
using causumx::Pattern;
using causumx::SimplePredicate;
using causumx::Timer;

namespace {

// Caps that keep one probe within a few hundred milliseconds on the
// largest paper dataset; the atoms and patterns are taken in order, so
// the sample is the same on every run.
constexpr size_t kMaxCateCalls = 1500;
constexpr size_t kMaxConjunctions = 300;

std::shared_ptr<EvalEngine> FreshEngine(
    const std::shared_ptr<const causumx::Table>& table,
    std::shared_ptr<causumx::ThreadPool> pool) {
  EvalEngineOptions opt;
  opt.num_shards = 0;
  opt.pool = std::move(pool);
  return std::make_shared<EvalEngine>(table, std::move(opt));
}

}  // namespace

void ProbeEstimatorAndEngine(const std::shared_ptr<const causumx::Table>& table,
                             const GroupByAvgQuery& query,
                             const causumx::CausalDag& dag,
                             const CauSumXConfig& config,
                             std::shared_ptr<causumx::ThreadPool> pool,
                             ProbeSamples* out) {
  const std::string& outcome = query.avg_attribute;
  const causumx::AttributePartition partition =
      causumx::PartitionAttributes(*table, query.group_by, outcome);
  const std::set<std::string> ancestors = dag.CausalAncestorsOf(outcome);
  std::vector<std::string> attrs;
  for (const auto& a : partition.treatment_attributes) {
    if (!dag.HasNode(a) || ancestors.count(a)) attrs.push_back(a);
  }

  // engine: cold atom builds, then warm conjunctions.
  {
    std::shared_ptr<EvalEngine> engine = FreshEngine(table, pool);
    const std::vector<SimplePredicate> atoms =
        causumx::GenerateAtomicTreatments(*engine, attrs, config.treatment);
    for (const SimplePredicate& atom : atoms) {
      Timer t;
      engine->Evaluate(Pattern({atom}));
      out->atom_build_us.push_back(t.Seconds() * 1e6);
    }
    size_t conj = 0;
    for (size_t i = 0; i < atoms.size() && conj < kMaxConjunctions; ++i) {
      for (size_t j = i + 1; j < atoms.size() && conj < kMaxConjunctions;
           ++j) {
        if (atoms[i].attribute == atoms[j].attribute) continue;
        Timer t2;
        engine->Evaluate(Pattern({atoms[i], atoms[j]}));
        out->conj_eval_us.push_back(t2.Seconds() * 1e6);
        ++conj;
        const size_t k = (j + 1) % atoms.size();
        if (k == i || atoms[k].attribute == atoms[i].attribute ||
            atoms[k].attribute == atoms[j].attribute) {
          continue;
        }
        Timer t3;
        engine->Evaluate(Pattern({atoms[i], atoms[j], atoms[k]}));
        out->conj_eval_us.push_back(t3.Seconds() * 1e6);
        ++conj;
      }
    }
  }

  // causal: CATE misses on a fresh context, then the same calls as hits.
  std::shared_ptr<EvalEngine> engine = FreshEngine(table, pool);
  const causumx::AggregateView view = causumx::AggregateView::Evaluate(
      *table, query, engine->plan(), pool.get());
  causumx::GroupingMinerOptions gopt = config.grouping;
  gopt.apriori.min_support = config.apriori_support;
  const std::vector<causumx::GroupingPattern> grouping =
      causumx::MineGroupingPatterns(*table, view,
                                    partition.grouping_attributes, gopt,
                                    engine.get());
  const std::vector<SimplePredicate> atoms =
      causumx::GenerateAtomicTreatments(*engine, attrs, config.treatment);
  causumx::EstimatorContext ctx(engine, dag, config.estimator);
  std::vector<std::pair<size_t, size_t>> calls;
  for (size_t g = 0; g < grouping.size(); ++g) {
    for (size_t a = 0; a < atoms.size(); ++a) calls.emplace_back(g, a);
  }
  if (calls.size() > kMaxCateCalls) calls.resize(kMaxCateCalls);
  for (std::vector<double>* sink : {&out->cate_miss_us, &out->cate_hit_us}) {
    for (const auto& [g, a] : calls) {
      const Pattern treatment({atoms[a]});
      Timer t;
      ctx.EstimateCate(treatment, outcome, grouping[g].rows);
      sink->push_back(t.Seconds() * 1e6);
    }
  }
}

double ProbeViewMs(const causumx::Table& table, const GroupByAvgQuery& query,
                   const causumx::ShardPlan& plan, causumx::ThreadPool* pool) {
  Timer t;
  [[maybe_unused]] const causumx::AggregateView view =
      causumx::AggregateView::Evaluate(table, query, plan, pool);
  return t.Millis();
}

void AddProbeMetrics(const ProbeSamples& s, Outcome* out) {
  out->metrics.push_back({"causal.cate_miss_us.p50", Median(s.cate_miss_us), "us"});
  out->metrics.push_back({"causal.cate_hit_us.p50", Median(s.cate_hit_us), "us"});
  out->metrics.push_back({"engine.atom_build_us.p50", Median(s.atom_build_us), "us"});
  out->metrics.push_back({"engine.conj_eval_us.p50", Median(s.conj_eval_us), "us"});
}

}  // namespace layerbench
