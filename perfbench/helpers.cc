#include "helpers.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "core/query_signature.h"

namespace perfbench {

namespace {
constexpr double kTailLadder[] = {99.99, 99.9, 99.0, 90.0, 50.0};
constexpr size_t kTailBeyond = 10;

/// Nearest-rank position (1-based) of quantile q over n samples.
size_t Rank(size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(r, 1.0)), 1, n);
}
}  // namespace

double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return sorted[Rank(sorted.size(), q) - 1];
}

bool TailSupported(size_t n, double pct) {
  return n > 0 && n - Rank(n, pct / 100.0) >= kTailBeyond;
}

Summary Summarize(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  s.p50 = SortedQuantile(samples, 0.5);
  s.tail = samples.back();
  for (double pct : kTailLadder) {
    if (TailSupported(samples.size(), pct)) {
      s.tail_pct = pct;
      s.tail = SortedQuantile(samples, pct / 100.0);
      break;
    }
  }
  return s;
}

LatencyHistogram::LatencyHistogram()
    : counts_(size_t{64 - kSubBits + 1} << kSubBits, 0) {}

size_t LatencyHistogram::Bucket(uint64_t ns) {
  if (ns < (uint64_t{1} << kSubBits)) return static_cast<size_t>(ns);
  const int e = 63 - __builtin_clzll(ns);  // >= kSubBits
  const int shift = e - kSubBits;
  const uint64_t mantissa = ns >> shift;  // in [2^kSubBits, 2^(kSubBits+1))
  return (static_cast<size_t>(shift + 1) << kSubBits) +
         static_cast<size_t>(mantissa - (uint64_t{1} << kSubBits));
}

void LatencyHistogram::Bounds(size_t bucket, double* lo, double* width) {
  const size_t group = bucket >> kSubBits;
  if (group == 0) {
    *lo = static_cast<double>(bucket);
    *width = 0.0;
    return;
  }
  const int shift = static_cast<int>(group) - 1;
  const uint64_t mantissa =
      (uint64_t{1} << kSubBits) + (bucket & ((size_t{1} << kSubBits) - 1));
  *lo = std::ldexp(static_cast<double>(mantissa), shift);
  *width = shift == 0 ? 0.0 : std::ldexp(1.0, shift);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  failures_ += other.failures_;
}

uint64_t LatencyHistogram::count() const {
  uint64_t n = failures_;
  for (uint32_t c : counts_) n += c;
  return n;
}

double LatencyHistogram::Quantile(double q) const {
  const size_t n = count();
  if (n == 0) return 0.0;
  const size_t rank = Rank(n, q);
  uint64_t cum = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (cum + counts_[i] >= rank) {
      // Spread the bucket's samples evenly over its width.
      double lo = 0.0;
      double width = 0.0;
      Bounds(i, &lo, &width);
      return lo + width * (static_cast<double>(rank - cum) - 0.5) /
                      static_cast<double>(counts_[i]);
    }
    cum += counts_[i];
  }
  return std::numeric_limits<double>::infinity();
}

Summary Summarize(const LatencyHistogram& hist) {
  Summary s;
  s.count = hist.count();
  if (s.count == 0) return s;
  s.p50 = hist.Quantile(0.5);
  s.tail = hist.Quantile(1.0);
  for (double pct : kTailLadder) {
    if (TailSupported(s.count, pct)) {
      s.tail_pct = pct;
      s.tail = hist.Quantile(pct / 100.0);
      break;
    }
  }
  return s;
}

std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> covered(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    const uint64_t lo = std::max(s.start_ns, p.start_ns);
    const uint64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) covered[it->second].emplace_back(lo, hi);
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t dur = spans[i].end_ns > spans[i].start_ns
                             ? spans[i].end_ns - spans[i].start_ns
                             : 0;
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    uint64_t union_ns = 0;
    uint64_t cur_lo = 0;
    uint64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) union_ns += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) union_ns += cur_hi - cur_lo;
    self[i] = dur - std::min(dur, union_ns);
  }
  return self;
}

std::vector<size_t> ZipfSequence(uint64_t seed, size_t n, double s,
                                 size_t count) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf[k] = total;
  }
  for (double& c : cdf) c /= total;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::vector<size_t> out(count);
  for (size_t& r : out) {
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), uniform(rng));
    r = std::min<size_t>(static_cast<size_t>(it - cdf.begin()), n - 1);
  }
  return out;
}

std::vector<caqp::Query> DistinctQueries(const caqp::Schema& schema,
                                         uint64_t seed, size_t count) {
  const size_t n = schema.num_attributes();
  std::mt19937_64 rng(seed);
  std::unordered_set<uint64_t> sigs;
  std::vector<caqp::Query> out;
  out.reserve(count);
  std::vector<caqp::AttrId> attrs(n);
  while (out.size() < count) {
    const size_t arity = 3 + out.size() % (n - 2);
    for (size_t i = 0; i < n; ++i) attrs[i] = static_cast<caqp::AttrId>(i);
    std::shuffle(attrs.begin(), attrs.end(), rng);
    caqp::Conjunct preds;
    for (size_t i = 0; i < arity; ++i) {
      const auto v =
          static_cast<caqp::Value>(rng() % schema.domain_size(attrs[i]));
      preds.emplace_back(attrs[i], v, v, /*neg=*/rng() % 4 == 0);
    }
    caqp::Query q = caqp::Query::Conjunction(std::move(preds));
    if (!sigs.insert(caqp::QuerySignature(q)).second) continue;
    out.push_back(std::move(q));
  }
  return out;
}

bool ParseCpuTicks(const std::string& line, uint64_t* steal,
                   uint64_t* total) {
  std::istringstream in(line);
  std::string label;
  if (!(in >> label) || label != "cpu") return false;
  uint64_t sum = 0;
  uint64_t v = 0;
  for (int field = 0; field < 8; ++field) {
    if (!(in >> v)) return false;
    sum += v;
  }
  *steal = v;
  *total = sum;
  return true;
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
