// Statistics, span and workload helpers of the end-to-end benchmark
// (main.cc). Kept apart from the driver so helpers_test.cc can pin their
// rules down.
#ifndef CAQP_PERFBENCH_HELPERS_H_
#define CAQP_PERFBENCH_HELPERS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/query.h"
#include "core/schema.h"

namespace perfbench {

/// Nearest-rank quantile of an ascending-sorted sample: the smallest value
/// with at least q * n samples at or below it. 0 for an empty sample.
double SortedQuantile(const std::vector<double>& sorted, double q);

/// A timing summarised by the benchmark's percentile rule: the median, and
/// the highest percentile of {99.99, 99.9, 99, 90, 50} that leaves at least
/// 10 samples beyond it (nearest rank), with the sample count.
struct Summary {
  size_t count = 0;
  double p50 = 0.0;
  /// Chosen tail percentile (e.g. 99.0); 0 when even the median has fewer
  /// than 10 samples beyond it, in which case `tail` is the maximum.
  double tail_pct = 0.0;
  double tail = 0.0;
};

/// Sorts `samples` in place and summarises them.
Summary Summarize(std::vector<double>& samples);

/// Fixed-memory latency record for the closed loop, so the benchmark's own
/// bookkeeping does not grow with throughput (peak_rss_mb is a metric).
/// Log-linear buckets: values below 256 ns are exact, larger ones are kept
/// to 1/128 relative precision (about 30 KB per histogram). Failed requests
/// rank above every latency and read as +infinity, so they miss every
/// bound.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Record(uint64_t ns) { ++counts_[Bucket(ns)]; }
  void RecordFailure() { ++failures_; }
  void Merge(const LatencyHistogram& other);
  uint64_t count() const;
  uint64_t failures() const { return failures_; }
  /// Nearest-rank quantile in ns, interpolated inside the rank's bucket.
  double Quantile(double q) const;

 private:
  static constexpr int kSubBits = 7;
  static size_t Bucket(uint64_t ns);
  /// Lower bound and width of a bucket (width 0 where values are exact).
  static void Bounds(size_t bucket, double* lo, double* width);
  std::vector<uint32_t> counts_;
  uint64_t failures_ = 0;
};

/// The percentile rule of Summarize, over a histogram (values in ns).
Summary Summarize(const LatencyHistogram& hist);

/// True iff percentile `pct` of `n` samples has at least 10 samples beyond
/// it under the nearest-rank rule.
bool TailSupported(size_t n, double pct);

/// One closed span. `id` is unique within the set passed to SelfTimes;
/// `parent` is 0 for a root. `request` groups the spans of one request.
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
};

/// Self time of every span, in input order: its duration minus the part of
/// [start_ns, end_ns] that the union of its direct children's intervals
/// covers. Children that overlap each other (parallel work) count once;
/// parts of a child outside its parent are ignored.
std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans);

/// `count` ranks in [0, n), P(rank k) proportional to 1 / (k + 1)^s, drawn
/// from a generator seeded with `seed`: the request mix of the serve-churn
/// workload. Same arguments, same sequence.
std::vector<size_t> ZipfSequence(uint64_t seed, size_t n, double s,
                                 size_t count);

/// `count` conjunctive queries with pairwise distinct canonical signatures,
/// drawn from a generator seeded with `seed`. Query k has 3 + k % (n - 2)
/// point predicates on distinct attributes (n = attribute count), so every
/// pool spans the same arities whatever the seed; about one predicate in
/// four is negated. Requires n >= 3 and enough distinct queries to exist.
std::vector<caqp::Query> DistinctQueries(const caqp::Schema& schema,
                                         uint64_t seed, size_t count);

/// Parses the aggregate "cpu" line of /proc/stat: `total` is the sum of the
/// user, nice, system, idle, iowait, irq, softirq and steal ticks, `steal`
/// the last of them. False if the line is not a complete "cpu" line.
bool ParseCpuTicks(const std::string& line, uint64_t* steal, uint64_t* total);

/// Deterministic 64-bit mix of a seed and a stream id (SplitMix64), so each
/// part of a workload draws from its own generator.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

}  // namespace perfbench

#endif  // CAQP_PERFBENCH_HELPERS_H_
