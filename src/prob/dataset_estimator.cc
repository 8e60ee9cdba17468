#include "prob/dataset_estimator.h"

#include <algorithm>
#include <bit>
#include <unordered_map>
#include <utility>

namespace caqp {

namespace {

/// Largest groups * 2^k mask table counted densely; larger joints go to one
/// hash map per group.
constexpr size_t kDenseCells = size_t{1} << 12;

/// Splits the rows in `bits` by each predicate word in turn and calls
/// emit(mask, count) once per nonempty cell: `mask` holds the predicate
/// truths shared by the cell's rows, `count` is its popcount. Cells
/// partition `bits`, so at most 64 are live.
template <typename Emit>
[[gnu::always_inline]] inline void CountCells(uint64_t bits, const uint64_t* pred, size_t k, Emit&& emit) {
  uint64_t cell[65];  // one spare slot: a split is written before it counts
  uint64_t mask[65];
  cell[0] = bits;
  mask[0] = 0;
  size_t n = 1;
  for (size_t j = 0; j < k; ++j) {
    const uint64_t p = pred[j];
    const uint64_t bit = uint64_t{1} << j;
    const size_t live = n;
    for (size_t i = 0; i < live; ++i) {
      const uint64_t t = cell[i] & p;
      const uint64_t f = cell[i] & ~p;
      cell[n] = t;
      mask[n] = mask[i] | bit;
      n += (t != 0) & (f != 0);
      cell[i] = f != 0 ? f : t;
      mask[i] = f != 0 ? mask[i] : mask[i] | bit;
    }
  }
  for (size_t i = 0; i < n; ++i) emit(mask[i], __builtin_popcountll(cell[i]));
}

/// Integer row counts per (group, mask), emitted as MaskDistributions in
/// ascending mask order.
class MaskCounts {
 public:
  MaskCounts(size_t groups, size_t num_preds)
      : k_(num_preds),
        dense_(num_preds <= 12 && (groups << num_preds) <= kDenseCells) {
    if (dense_) {
      table_.assign(groups << k_, 0);
    } else {
      maps_.resize(groups);
    }
  }

  void Add(size_t group, uint64_t mask, uint64_t n) {
    if (dense_) {
      table_[(group << k_) | mask] += n;
    } else {
      maps_[group][mask] += n;
    }
  }

  MaskDistribution Emit(size_t group) const {
    MaskDistribution d;
    if (dense_) {
      const uint64_t* row = table_.data() + (group << k_);
      for (uint64_t m = 0; m < (uint64_t{1} << k_); ++m) {
        if (row[m] != 0) d.Add(m, static_cast<double>(row[m]));
      }
    } else {
      std::vector<std::pair<uint64_t, uint64_t>> sorted(maps_[group].begin(),
                                                        maps_[group].end());
      std::sort(sorted.begin(), sorted.end());
      for (const auto& [m, n] : sorted) d.Add(m, static_cast<double>(n));
    }
    return d;
  }

 private:
  size_t k_;
  bool dense_;
  std::vector<uint64_t> table_;
  std::vector<std::unordered_map<uint64_t, uint64_t>> maps_;
};

/// Predicate j's truth word is (Le[hi] & ~Le[lo-1]) ^ negated, read straight
/// from the index.
class PredicateWords {
 public:
  PredicateWords(const DatasetEstimator& est,
                 const std::vector<Predicate>& preds)
      : terms_(preds.size()), words_(preds.size()) {
    CAQP_CHECK_LE(preds.size(), 64u);
    for (size_t j = 0; j < preds.size(); ++j) {
      const Predicate& p = preds[j];
      const int top = static_cast<int>(est.schema().domain_size(p.attr)) - 1;
      // An interval past the domain's end holds no value.
      const bool empty = p.lo > top;
      terms_[j].upto =
          est.RowsAtMost(p.attr, empty ? -1 : std::min<int>(p.hi, top));
      terms_[j].below = est.RowsAtMost(p.attr, empty ? -1 : p.lo - 1);
      terms_[j].flip = p.negated ? ~uint64_t{0} : 0;
    }
  }

  size_t size() const { return terms_.size(); }

  /// Truth words of every predicate at index word `w`.
  const uint64_t* At(size_t w) {
    for (size_t j = 0; j < terms_.size(); ++j) {
      const Term& t = terms_[j];
      words_[j] = (t.upto[w] & ~t.below[w]) ^ t.flip;
    }
    return words_.data();
  }

 private:
  struct Term {
    const uint64_t* upto;
    const uint64_t* below;
    uint64_t flip;
  };
  std::vector<Term> terms_;
  std::vector<uint64_t> words_;
};

// ---- Counting kernels: every popcount of the estimator runs in these two.

/// Rows set in both `a` and `b`.
[[gnu::always_inline]] inline uint64_t CountBothImpl(const uint64_t* a,
                                                     const uint64_t* b,
                                                     size_t words) {
  uint64_t n = 0;
  for (size_t w = 0; w < words; ++w) n += __builtin_popcountll(a[w] & b[w]);
  return n;
}

/// Counts the scope's rows per (group, predicate mask). Group g holds the
/// rows of `upto` bitset g (bitsets `words` apart) not in any earlier one;
/// every scope row must lie in some group.
[[gnu::always_inline]] inline void CountGroupsImpl(const uint64_t* scope,
                                                   size_t words,
                                                   PredicateWords& truth,
                                                   const uint64_t* upto,
                                                   MaskCounts& counts) {
  for (size_t w = 0; w < words; ++w) {
    if (scope[w] == 0) continue;
    const uint64_t* pred = truth.At(w);
    // Peel the word's rows off group by group.
    uint64_t rest = scope[w];
    for (size_t g = 0; rest != 0; ++g) {
      const uint64_t in_group = rest & upto[g * words + w];
      if (in_group == 0) continue;
      rest ^= in_group;
      CountCells(in_group, pred, truth.size(),
                 [&](uint64_t mask, uint64_t n) { counts.Add(g, mask, n); });
    }
  }
}

#if defined(__x86_64__) && !defined(__POPCNT__)
// Baseline x86-64 has no POPCNT instruction, so __builtin_popcountll is a
// libgcc call. These copies of the kernels use the instruction; it is picked
// once at run time, as the AVX-512 masked engine is (target_clones would
// dispatch through an ifunc, which ThreadSanitizer does not survive).
[[gnu::target("popcnt")]] uint64_t CountBothPopcnt(const uint64_t* a,
                                                   const uint64_t* b,
                                                   size_t words) {
  return CountBothImpl(a, b, words);
}
[[gnu::target("popcnt")]] void CountGroupsPopcnt(const uint64_t* scope,
                                                 size_t words,
                                                 PredicateWords& truth,
                                                 const uint64_t* upto,
                                                 MaskCounts& counts) {
  CountGroupsImpl(scope, words, truth, upto, counts);
}
bool HasPopcnt() {
  static const bool ok = __builtin_cpu_supports("popcnt");
  return ok;
}
#endif

uint64_t CountBoth(const uint64_t* a, const uint64_t* b, size_t words) {
#if defined(__x86_64__) && !defined(__POPCNT__)
  if (HasPopcnt()) return CountBothPopcnt(a, b, words);
#endif
  return CountBothImpl(a, b, words);
}

void CountGroups(const uint64_t* scope, size_t words, PredicateWords& truth,
                 const uint64_t* upto, MaskCounts& counts) {
#if defined(__x86_64__) && !defined(__POPCNT__)
  if (HasPopcnt()) return CountGroupsPopcnt(scope, words, truth, upto, counts);
#endif
  CountGroupsImpl(scope, words, truth, upto, counts);
}

}  // namespace

DatasetEstimator::DatasetEstimator(const Dataset& data)
    : data_(data), words_((data.num_rows() + 63) / 64), none_(words_, 0) {
  const Schema& schema = data_.schema();
  size_t bitsets = 0;
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    attr_base_.push_back(bitsets);
    bitsets += schema.domain_size(static_cast<AttrId>(a));
  }
  le_.assign(bitsets * words_, 0);
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    const AttrId attr = static_cast<AttrId>(a);
    uint64_t* base = le_.data() + attr_base_[a] * words_;
    const std::vector<Value>& col = data_.column(attr);
    for (size_t r = 0; r < col.size(); ++r) {
      base[col[r] * words_ + r / 64] |= uint64_t{1} << (r % 64);
    }
    // Value bitsets -> cumulative X_a <= v bitsets.
    for (uint32_t v = 1; v < schema.domain_size(attr); ++v) {
      for (size_t w = 0; w < words_; ++w) {
        base[v * words_ + w] |= base[(v - 1) * words_ + w];
      }
    }
  }

  all_.assign(words_, ~uint64_t{0});
  if (data_.num_rows() % 64 != 0) {
    all_.back() = (uint64_t{1} << (data_.num_rows() % 64)) - 1;
  }
  memo_ranges_ = schema.FullRanges();
  memo_bits_ = all_;
}

const uint64_t* DatasetEstimator::RowsAtMost(AttrId attr, int v) const {
  CAQP_DCHECK(v < static_cast<int>(data_.schema().domain_size(attr)));
  if (v < 0) return none_.data();
  return le_.data() + (attr_base_[attr] + static_cast<size_t>(v)) * words_;
}

const std::vector<uint64_t>& DatasetEstimator::ScopeBits(
    const RangeVec& given) {
  if (given == memo_ranges_) return memo_bits_;
  const Schema& schema = data_.schema();
  CAQP_CHECK(schema.ValidRanges(given));
  memo_bits_ = all_;
  for (size_t a = 0; a < given.size(); ++a) {
    const AttrId attr = static_cast<AttrId>(a);
    if (IsFullRange(schema, given, attr)) continue;
    const uint64_t* upto = RowsAtMost(attr, given[a].hi);
    const uint64_t* below = RowsAtMost(attr, given[a].lo - 1);
    for (size_t w = 0; w < words_; ++w) memo_bits_[w] &= upto[w] & ~below[w];
  }
  memo_ranges_ = given;
  return memo_bits_;
}

std::vector<RowId> DatasetEstimator::RowsMatching(const RangeVec& given) {
  const std::vector<uint64_t>& scope = ScopeBits(given);
  std::vector<RowId> rows;
  for (size_t w = 0; w < words_; ++w) {
    for (uint64_t bits = scope[w]; bits != 0; bits &= bits - 1) {
      rows.push_back(static_cast<RowId>(w * 64 + std::countr_zero(bits)));
    }
  }
  return rows;
}

Histogram DatasetEstimator::Marginal(const RangeVec& given, AttrId attr) {
  const std::vector<uint64_t>& scope = ScopeBits(given);
  Histogram h(data_.schema().domain_size(attr));
  // Scope rows all lie in given[attr], so the rows with X_attr <= v,
  // counted from its lo upwards, differ by exactly the rows at v.
  uint64_t below = 0;
  for (uint32_t v = given[attr].lo; v <= given[attr].hi; ++v) {
    const uint64_t n = CountBoth(
        scope.data(), RowsAtMost(attr, static_cast<int>(v)), words_);
    if (n > below) h.Add(static_cast<Value>(v), static_cast<double>(n - below));
    below = n;
  }
  return h;
}

double DatasetEstimator::ReachProbability(const RangeVec& given) {
  if (data_.num_rows() == 0) return 0.0;
  const uint64_t n = CountBoth(ScopeBits(given).data(), all_.data(), words_);
  return static_cast<double>(n) / static_cast<double>(data_.num_rows());
}

MaskDistribution DatasetEstimator::PredicateMasks(
    const RangeVec& given, const std::vector<Predicate>& preds) {
  PredicateWords truth(*this, preds);
  MaskCounts counts(1, preds.size());
  // One group: every row.
  CountGroups(ScopeBits(given).data(), words_, truth, all_.data(), counts);
  return counts.Emit(0);
}

std::vector<MaskDistribution> DatasetEstimator::PerValuePredicateMasks(
    const RangeVec& given, AttrId attr, const std::vector<Predicate>& preds) {
  PredicateWords truth(*this, preds);
  const ValueRange range = given[attr];
  MaskCounts counts(range.Width(), preds.size());
  // Group g: X_attr <= lo + g, so (scope rows lying in `range`) the rows
  // with X_attr == lo + g.
  CountGroups(ScopeBits(given).data(), words_, truth,
              RowsAtMost(attr, range.lo), counts);
  std::vector<MaskDistribution> out;
  out.reserve(range.Width());
  for (size_t g = 0; g < range.Width(); ++g) out.push_back(counts.Emit(g));
  return out;
}

}  // namespace caqp
