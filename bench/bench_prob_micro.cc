// Section 5 microbenchmarks: the probability-computation machinery.
//
//  * DatasetEstimator's one-time bitmap-index build, and one conditional
//    marginal whose scope bits must be rebuilt on every call.
//  * One-pass per-value predicate joints (the incremental Eq. (7) sweep)
//    vs re-counting each candidate split from scratch.
//  * Chow-Liu evidence inference vs direct counting for one conditional.

#include <benchmark/benchmark.h>

#include "prob/chow_liu.h"
#include "prob/dataset_estimator.h"
#include "test_support.h"

using namespace caqp;

namespace {

const Dataset& SharedData() {
  static const Dataset ds = benchsupport::MakeCorrelated(8, 16, 100000, 7);
  return ds;
}

RangeVec NarrowedRanges(const Schema& schema) {
  RangeVec ranges = schema.FullRanges();
  ranges[0] = ValueRange{4, 11};
  ranges[2] = ValueRange{2, 13};
  return ranges;
}

void BM_IndexBuild(benchmark::State& state) {
  const Dataset& ds = SharedData();
  for (auto _ : state) {
    DatasetEstimator est(ds);
    benchmark::DoNotOptimize(&est);
  }
}
BENCHMARK(BM_IndexBuild)->Unit(benchmark::kMillisecond);

void BM_MarginalFreshScope(benchmark::State& state) {
  const Dataset& ds = SharedData();
  DatasetEstimator est(ds);
  // Alternating scopes defeat the estimator's one-entry scope memo, so each
  // call ANDs its narrowed ranges again before counting.
  const RangeVec ranges[2] = {NarrowedRanges(ds.schema()),
                              Refined(NarrowedRanges(ds.schema()), 3,
                                      ValueRange{1, 14})};
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.Marginal(ranges[i ^= 1], 5));
  }
}
BENCHMARK(BM_MarginalFreshScope)->Unit(benchmark::kMicrosecond);

void BM_PerValueMasksOnePass(benchmark::State& state) {
  const Dataset& ds = SharedData();
  DatasetEstimator est(ds);
  const RangeVec ranges = ds.schema().FullRanges();
  const std::vector<Predicate> preds = {Predicate(6, 4, 11),
                                        Predicate(7, 4, 11)};
  for (auto _ : state) {
    // One pass yields the "< x" side of every candidate split of attr 0.
    benchmark::DoNotOptimize(est.PerValuePredicateMasks(ranges, 0, preds));
  }
}
BENCHMARK(BM_PerValueMasksOnePass)->Unit(benchmark::kMicrosecond);

void BM_PerCandidateMasksRecount(benchmark::State& state) {
  const Dataset& ds = SharedData();
  DatasetEstimator est(ds);
  const RangeVec ranges = ds.schema().FullRanges();
  const std::vector<Predicate> preds = {Predicate(6, 4, 11),
                                        Predicate(7, 4, 11)};
  const uint32_t k = ds.schema().domain_size(0);
  for (auto _ : state) {
    // The naive alternative: one full recount per candidate split point.
    for (Value x = 1; x < k; ++x) {
      const RangeVec lt = Refined(ranges, 0, ValueRange{0, static_cast<Value>(x - 1)});
      benchmark::DoNotOptimize(est.PredicateMasks(lt, preds));
    }
  }
}
BENCHMARK(BM_PerCandidateMasksRecount)->Unit(benchmark::kMicrosecond);

void BM_ChowLiuFit(benchmark::State& state) {
  const Dataset& ds = SharedData();
  for (auto _ : state) {
    ChowLiuEstimator est(ds);
    benchmark::DoNotOptimize(&est);
  }
}
BENCHMARK(BM_ChowLiuFit)->Unit(benchmark::kMillisecond);

void BM_ChowLiuConditional(benchmark::State& state) {
  const Dataset& ds = SharedData();
  ChowLiuEstimator est(ds);
  const RangeVec ranges = NarrowedRanges(ds.schema());
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.Marginal(ranges, 5));
  }
}
BENCHMARK(BM_ChowLiuConditional)->Unit(benchmark::kMicrosecond);

void BM_CountingConditional(benchmark::State& state) {
  const Dataset& ds = SharedData();
  DatasetEstimator est(ds);
  const RangeVec ranges = NarrowedRanges(ds.schema());
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.Marginal(ranges, 5));
  }
}
BENCHMARK(BM_CountingConditional)->Unit(benchmark::kMicrosecond);

}  // namespace
