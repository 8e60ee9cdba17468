// Measures the cost of the obs instrumentation on the executor hot path,
// the per-tuple ExecutePlan over a CompiledPlan. Five configurations over
// the same plan and tuples:
//
//   baseline   a local copy of the executor loop with no instrumentation
//              at all (no trace pointer, no counter macros, no span site)
//   obs-off    ExecutePlan with runtime instrumentation disabled
//              (obs::SetEnabled(false)) and a null trace sink
//   obs-on     ExecutePlan with counters enabled
//   profiled   ExecutePlan with counters enabled and a per-node
//              ExecutionProfile attached (the serve calibration path)
//   traced     ExecutePlan with counters enabled and an ExecutionTrace sink
//
// The acceptance bar for the instrumentation is obs-off within 5% of
// baseline: a disabled counter is one predicted-untaken branch, a null trace
// sink is one pointer test, and an unbound span site is one thread-local
// load per call. Reported numbers are the minimum over repetitions
// (least-noise estimate); the process exits non-zero when the executor
// misses the bar, so CI enforces it.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "exec/exec_profile.h"
#include "exec/executor.h"
#include "obs/exposer.h"
#include "obs/obs.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "opt/greedy_plan.h"
#include "opt/greedyseq.h"
#include "plan/compiled_plan.h"
#include "prob/dataset_estimator.h"
#include "test_support.h"

using namespace caqp;

namespace {

/// Executor loop stripped of every obs hook; an exact copy of the library's
/// ExecuteCompiledImpl<false, false> (exec/executor.cc) — degradation-policy
/// machinery included — minus the wrapper's span site, trace dispatch, and
/// counter emission, so the comparison isolates instrumentation cost. Must
/// be kept textually in sync when the library impl changes; a mirror that
/// drifts measures algorithmic differences as "overhead". noinline so the
/// baseline pays the same function-call boundary as the library's
/// ExecutePlan; aligned(64) so the measured delta is not at the mercy of
/// where the linker happens to drop the mirror relative to I-cache lines —
/// the true disabled-path cost is ~1-2 ns/tuple and unpinned layout luck
/// swings the comparison by about the same amount.
__attribute__((noinline, aligned(64))) ExecutionResult ExecuteCompiledBare(
    const CompiledPlan& plan, const Schema& schema,
    const AcquisitionCostModel& cost_model, AcquisitionSource& source,
    const DegradationPolicy& policy) {
  ExecutionResult out;
  CAQP_DCHECK(schema.num_attributes() <= 64);
  Value values[64];
  const int max_attempts =
      policy.mode == DegradationPolicy::Mode::kRetry
          ? std::max(1, policy.max_attempts)
          : 1;

  auto attempt = [&](AttrId a, Value* v) -> bool {
    for (int att = 0; att < max_attempts; ++att) {
      const AcquiredValue av = source.Acquire(a);
      double marginal = cost_model.Cost(a, out.acquired) * av.cost_multiplier;
      if (att > 0) {
        marginal *= policy.retry_cost_multiplier;
        ++out.retries;
      }
      out.cost += marginal;
      if (av.ok) {
        out.acquired.Insert(a);
        ++out.acquisitions;
        values[a] = av.value;
        *v = av.value;
        return true;
      }
      if (av.permanent) break;
    }
    out.failed.Insert(a);
    return false;
  };

  auto acquire = [&](AttrId a, Value* v) -> bool {
    if (out.acquired.Contains(a)) {
      *v = values[a];
      return true;
    }
    if (out.failed.Contains(a)) return false;
    return attempt(a, v);
  };

  auto degrade = [&]() -> bool {
    out.verdict3 = Truth::kUnknown;
    if (policy.mode == DegradationPolicy::Mode::kAbort) {
      out.aborted = true;
      return true;
    }
    return false;
  };

  uint32_t idx = 0;
  const CompiledPlan::Node* n = &plan.node(0);
  Value v = 0;
  bool routed = true;
  while (n->kind == CompiledPlan::Kind::kSplit) {
    if (n->first_acquisition()) {
      if (!attempt(n->attr, &v)) {
        (void)degrade();
        routed = false;
        break;
      }
    } else {
      v = values[n->attr];
    }
    idx = (v >= n->split_value) ? n->a : idx + 1;
    n = &plan.node(idx);
  }

  if (routed) {
    switch (n->kind) {
      case CompiledPlan::Kind::kVerdict:
        out.verdict3 = n->verdict() ? Truth::kTrue : Truth::kFalse;
        break;
      case CompiledPlan::Kind::kSequential: {
        Truth t = Truth::kTrue;
        for (const Predicate& p : plan.sequence(*n)) {
          if (!acquire(p.attr, &v)) {
            if (degrade()) break;
            t = Truth::kUnknown;
            continue;
          }
          const bool match = p.Matches(v);
          if (!match) {
            t = Truth::kFalse;
            break;
          }
        }
        if (!out.aborted) out.verdict3 = t;
        break;
      }
      case CompiledPlan::Kind::kGeneric: {
        const Query& query = plan.residual_query(*n);
        RangeVec ranges = schema.FullRanges();
        for (size_t a = 0; a < schema.num_attributes(); ++a) {
          if (out.acquired.Contains(static_cast<AttrId>(a))) {
            ranges[a] = ValueRange{values[a], values[a]};
          }
        }
        Truth t = query.EvaluateOnRanges(ranges);
        for (const AttrId a : plan.acquire_order(*n)) {
          if (t != Truth::kUnknown) break;
          if (!acquire(a, &v)) {
            if (degrade()) break;
            continue;
          }
          ranges[a] = ValueRange{v, v};
          t = query.EvaluateOnRanges(ranges);
        }
        CAQP_CHECK(t != Truth::kUnknown || out.failed.Count() > 0);
        if (!out.aborted) out.verdict3 = t;
        break;
      }
      case CompiledPlan::Kind::kSplit:
        CAQP_CHECK(false);
    }
  }
  out.verdict = out.verdict3 == Truth::kTrue;
  return out;
}

double RunBare(const CompiledPlan& plan, const Schema& schema,
               const AcquisitionCostModel& cm, const std::vector<Tuple>& rows,
               TraceSink* /*trace*/, ExecutionProfile* /*profile*/) {
  double sink = 0;
  const DegradationPolicy policy;
  for (const Tuple& t : rows) {
    TupleSource src(t);
    sink += ExecuteCompiledBare(plan, schema, cm, src, policy).cost;
  }
  return sink;
}

double RunInstrumented(const CompiledPlan& plan, const Schema& schema,
                       const AcquisitionCostModel& cm,
                       const std::vector<Tuple>& rows, TraceSink* trace,
                       ExecutionProfile* profile) {
  double sink = 0;
  for (const Tuple& t : rows) {
    TupleSource src(t);
    sink += ExecutePlan(plan, schema, cm, src, trace, {}, profile).cost;
  }
  return sink;
}

/// One timed pass, in ns per tuple.
template <typename RunnerT>
double TimeOnce(RunnerT run, const CompiledPlan& plan, const Schema& schema,
                const AcquisitionCostModel& cm, const std::vector<Tuple>& rows,
                TraceSink* trace, ExecutionProfile* profile = nullptr) {
  const auto t0 = std::chrono::steady_clock::now();
  volatile double keep = run(plan, schema, cm, rows, trace, profile);
  (void)keep;
  const auto t1 = std::chrono::steady_clock::now();
  const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
  return ns / static_cast<double>(rows.size());
}

struct PathReport {
  double bare = 1e300;
  double off = 1e300;
  double on = 1e300;
  double profiled = 1e300;
  double traced = 1e300;

  double OffOverheadPct() const { return 100.0 * (off - bare) / bare; }

  void Print(const char* title) const {
    auto pct = [&](double x) { return 100.0 * (x - bare) / bare; };
    std::printf("\n== %s ==\n", title);
    std::printf("%-28s %10.1f ns/tuple\n", "baseline (no instrumentation)",
                bare);
    std::printf("%-28s %10.1f ns/tuple  (%+.1f%%)\n", "obs disabled", off,
                pct(off));
    std::printf("%-28s %10.1f ns/tuple  (%+.1f%%)\n", "obs enabled", on,
                pct(on));
    std::printf("%-28s %10.1f ns/tuple  (%+.1f%%)\n", "obs + node profile",
                profiled, pct(profiled));
    std::printf("%-28s %10.1f ns/tuple  (%+.1f%%)\n", "obs + ExecutionTrace",
                traced, pct(traced));
  }
};

}  // namespace

int main(int argc, char** argv) {
  bench::InitBench("bench_obs", argc, argv);
  // The PR 10 exposer contract: the serving binary compiles the metrics
  // endpoint in unconditionally, and a constructed-but-not-started exposer
  // must cost nothing. Linking it here (never Start()ed) keeps the <5%
  // disabled-path bar honest against the full telemetry plane.
  obs::MetricsExposer exposer([] { return std::string(); },
                              obs::MetricsExposer::Options{});
  if (exposer.running()) return 1;  // never started; also defeats DCE

  const Dataset data = benchsupport::MakeCorrelated(8, 16, 50000, 17);
  const Query query = benchsupport::MidRangeQuery(data.schema(), 4);
  DatasetEstimator est(data);
  PerAttributeCostModel cm(data.schema());
  const SplitPointSet splits = SplitPointSet::AllPoints(data.schema());
  GreedySeqSolver solver;
  GreedyPlanner::Options opts;
  opts.split_points = &splits;
  opts.seq_solver = &solver;
  opts.max_splits = 4;
  GreedyPlanner planner(est, cm, opts);
  const Plan tree = planner.BuildPlan(query);
  const CompiledPlan plan = CompiledPlan::Compile(tree);
  std::printf("plan: %zu splits (%zu flat nodes); %zu tuples x 8 attrs\n",
              tree.NumSplits(), plan.NumNodes(), data.num_rows());

  std::vector<Tuple> rows;
  rows.reserve(data.num_rows());
  for (RowId r = 0; r < data.num_rows(); ++r) rows.push_back(data.GetTuple(r));

  // Interleave the configurations across repetitions so slow drift
  // (frequency scaling, noisy neighbours) hits them all equally; keep the
  // minimum per configuration as the least-noise estimate.
  RunInstrumented(plan, data.schema(), cm, rows, nullptr, nullptr);  // warm-up
  PathReport report;
  ExecutionTrace trace;
  ExecutionProfile profile(plan.NumNodes());
  const Schema& schema = data.schema();
  TraceSink* const no_trace = nullptr;
  // The estimator is a min, so extra reps can only tighten it: when the
  // executor sits at the bar after the base reps, keep sampling before
  // declaring failure. Transient machine noise (CI neighbours, thermal
  // throttling) gets averaged out; a genuine regression stays above the
  // bar no matter how many reps run.
  constexpr double kBarPct = 5.0;
  const size_t kReps = 15;
  const size_t kMaxReps = 40;
  for (size_t rep = 0;
       rep < kReps || (rep < kMaxReps && report.OffOverheadPct() >= kBarPct);
       ++rep) {
    report.bare = std::min(
        report.bare, TimeOnce(&RunBare, plan, schema, cm, rows, no_trace));
    obs::SetEnabled(false);
    report.off = std::min(report.off, TimeOnce(&RunInstrumented, plan, schema,
                                               cm, rows, no_trace));
    obs::SetEnabled(true);
    report.on = std::min(report.on, TimeOnce(&RunInstrumented, plan, schema,
                                             cm, rows, no_trace));
    report.profiled =
        std::min(report.profiled, TimeOnce(&RunInstrumented, plan, schema, cm,
                                           rows, no_trace, &profile));
    report.traced =
        std::min(report.traced, TimeOnce(&RunInstrumented, plan, schema, cm,
                                         rows, &trace));
    if (rep + 1 == kReps && report.OffOverheadPct() >= kBarPct) {
      std::printf("near the bar (%.1f%%); extending reps\n",
                  report.OffOverheadPct());
    }
  }

  report.Print("flat executor (ExecutePlan on CompiledPlan)");

  const double over = report.OffOverheadPct();
  std::printf("\ndisabled-instrumentation overhead: %.1f%% (bar: < %.0f%%)\n",
              over, kBarPct);
  const bool ok = over < kBarPct;
  if (!ok) std::printf("FAIL: executor misses the disabled-overhead bar\n");

  // Structured export for scripts/check_bench_bars.py: the <5% bar becomes
  // "headroom >= 0" so --min works directly, and the raw numbers ride along
  // for baseline (BENCH_obs.json) diffing.
  obs::MetricsRegistry& reg = obs::DefaultRegistry();
  reg.GetGauge("bench_obs.flat_overhead_pct").Set(over);
  reg.GetGauge("bench_obs.flat_headroom_pct").Set(kBarPct - over);
  reg.GetGauge("bench_obs.flat_bare_ns").Set(report.bare);
  reg.GetGauge("bench_obs.flat_off_ns").Set(report.off);
  reg.GetGauge("bench_obs.flat_on_ns").Set(report.on);
  bench::FinishBench();
  return ok ? 0 : 1;
}
