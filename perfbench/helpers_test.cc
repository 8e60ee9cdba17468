#include "helpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "core/query_signature.h"

namespace perfbench {
namespace {

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n
  return v;
}

TEST(PercentileRule, MedianIsNearestRank) {
  std::vector<double> odd = {5, 1, 3};
  EXPECT_EQ(Summarize(odd).p50, 3);
  std::vector<double> even = {4, 1, 3, 2};
  EXPECT_EQ(Summarize(even).p50, 2);
}

TEST(PercentileRule, PicksHighestTailWithTenSamplesBeyond) {
  // 1000 samples: rank(p99) = 990 leaves exactly 10 beyond; p99.9 leaves 1.
  std::vector<double> v = Iota(1000);
  std::reverse(v.begin(), v.end());
  const Summary s = Summarize(v);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.tail_pct, 99.0);
  EXPECT_EQ(s.tail, 990);
  EXPECT_EQ(s.p50, 500);

  std::vector<double> w = Iota(999);  // p99 would leave only 9 beyond
  const Summary t = Summarize(w);
  EXPECT_EQ(t.tail_pct, 90.0);
  EXPECT_EQ(t.tail, 900);

  std::vector<double> big = Iota(10000);  // p99.9 leaves exactly 10
  EXPECT_EQ(Summarize(big).tail_pct, 99.9);
}

TEST(PercentileRule, TooFewSamplesForAnyTail) {
  std::vector<double> v = Iota(19);  // the median leaves 9 beyond
  const Summary s = Summarize(v);
  EXPECT_EQ(s.tail_pct, 0.0);
  EXPECT_EQ(s.tail, 19);
  EXPECT_EQ(s.count, 19u);
  std::vector<double> twenty = Iota(20);
  EXPECT_EQ(Summarize(twenty).tail_pct, 50.0);
  std::vector<double> empty;
  EXPECT_EQ(Summarize(empty).count, 0u);
  EXPECT_FALSE(TailSupported(0, 50.0));
}

TEST(PercentileRule, HistogramAgreesWithExactRule) {
  // Below 256 ns the histogram is exact, so both forms must agree.
  std::vector<double> v(1000);
  for (size_t k = 0; k < v.size(); ++k) v[k] = static_cast<double>(k % 250 + 1);
  LatencyHistogram h;
  for (double x : v) h.Record(static_cast<uint64_t>(x));
  const Summary exact = Summarize(v);
  const Summary hist = Summarize(h);
  EXPECT_EQ(hist.count, exact.count);
  EXPECT_EQ(hist.p50, exact.p50);
  EXPECT_EQ(hist.tail_pct, exact.tail_pct);
  EXPECT_EQ(hist.tail, exact.tail);
}

TEST(PercentileRule, HistogramRelativePrecisionAndFailures) {
  LatencyHistogram h;
  for (uint64_t x : {3'000'000ull, 5'000'000ull, 7'000'000ull}) h.Record(x);
  EXPECT_NEAR(h.Quantile(0.5), 5e6, 5e6 / 128);
  h.RecordFailure();  // ranks above every latency
  EXPECT_EQ(h.count(), 4u);
  EXPECT_TRUE(std::isinf(h.Quantile(1.0)));
  EXPECT_NEAR(h.Quantile(0.75), 7e6, 7e6 / 128);
}

TEST(SpanSelfTime, NestedChildren) {
  // root [0,100) > a [10,40) > a1 [20,30); root > b [50,60).
  const std::vector<Span> spans = {
      {"root", 0, 100, 1, 0, 7},
      {"a", 10, 40, 2, 1, 7},
      {"a1", 20, 30, 3, 2, 7},
      {"b", 50, 60, 4, 1, 7},
  };
  const std::vector<uint64_t> self = SelfTimes(spans);
  EXPECT_EQ(self, (std::vector<uint64_t>{60, 20, 10, 10}));
}

TEST(SpanSelfTime, OverlappingChildrenCountOnce) {
  // Parallel children [10,50) and [30,70) cover [10,70) of the parent; a
  // child running past its parent's end is clipped to [80,100).
  const std::vector<Span> spans = {
      {"parent", 0, 100, 1, 0, 1},
      {"c1", 10, 50, 2, 1, 1},
      {"c2", 30, 70, 3, 1, 1},
      {"c3", 80, 130, 4, 1, 1},
  };
  const std::vector<uint64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100u - 60u - 20u);
  EXPECT_EQ(self[1], 40u);
  EXPECT_EQ(self[3], 50u);
}

TEST(SpanSelfTime, OrphansAndFullCover) {
  const std::vector<Span> spans = {
      {"p", 0, 10, 1, 0, 1},
      {"c", 0, 10, 2, 1, 1},
      {"orphan", 0, 5, 3, 99, 1},  // parent not in the set: a root
  };
  EXPECT_EQ(SelfTimes(spans), (std::vector<uint64_t>{0, 10, 5}));
}

TEST(ZipfPool, SameSeedSameSequence) {
  EXPECT_EQ(ZipfSequence(42, 4096, 1.0, 2000),
            ZipfSequence(42, 4096, 1.0, 2000));
  EXPECT_NE(ZipfSequence(42, 4096, 1.0, 2000),
            ZipfSequence(43, 4096, 1.0, 2000));
}

TEST(ZipfPool, SkewedTowardsLowRanks) {
  const std::vector<size_t> seq = ZipfSequence(7, 4096, 1.0, 20000);
  std::vector<size_t> count(4096, 0);
  for (size_t r : seq) {
    ASSERT_LT(r, 4096u);
    ++count[r];
  }
  EXPECT_GT(count[0], count[1]);
  EXPECT_GT(count[1], count[100]);
  // Rank 0 carries 1 / H(4096) ~ 11% of the mass.
  EXPECT_NEAR(static_cast<double>(count[0]) / seq.size(), 0.112, 0.01);
}

caqp::Schema TenBinary() {
  caqp::Schema s;
  for (int a = 0; a < 10; ++a) s.AddAttribute("a" + std::to_string(a), 2, 1.0);
  return s;
}

TEST(ZipfPool, QueryPoolIsDeterministicAndDistinct) {
  const caqp::Schema schema = TenBinary();
  const std::vector<caqp::Query> a = DistinctQueries(schema, 5, 512);
  const std::vector<caqp::Query> b = DistinctQueries(schema, 5, 512);
  const std::vector<caqp::Query> c = DistinctQueries(schema, 6, 512);
  ASSERT_EQ(a.size(), 512u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  std::vector<uint64_t> sigs;
  for (size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].predicates().size(), 3 + k % 8);
    sigs.push_back(caqp::QuerySignature(a[k]));
  }
  std::sort(sigs.begin(), sigs.end());
  EXPECT_EQ(std::unique(sigs.begin(), sigs.end()), sigs.end());
}

TEST(CpuTicks, ParsesTheAggregateLine) {
  uint64_t steal = 0;
  uint64_t total = 0;
  ASSERT_TRUE(ParseCpuTicks(
      "cpu  112584 0 21664 459670 276 0 282 1061 0 0", &steal, &total));
  EXPECT_EQ(steal, 1061u);
  EXPECT_EQ(total, 112584u + 21664u + 459670u + 276u + 282u + 1061u);
  EXPECT_FALSE(ParseCpuTicks("cpu0 1 2 3 4 5 6 7 8", &steal, &total));
  EXPECT_FALSE(ParseCpuTicks("cpu 1 2 3", &steal, &total));
  EXPECT_FALSE(ParseCpuTicks("", &steal, &total));
}

TEST(MixSeed, SeparatesStreams) {
  EXPECT_EQ(MixSeed(1, 2), MixSeed(1, 2));
  EXPECT_NE(MixSeed(1, 2), MixSeed(1, 3));
  EXPECT_NE(MixSeed(1, 2), MixSeed(2, 2));
}

}  // namespace
}  // namespace perfbench
