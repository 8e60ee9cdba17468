// DatasetEstimator: exact conditional probabilities by counting over a
// historical dataset (paper Sections 2.3 and 5).
//
// The constructor builds an immutable bitmap index over the discretized
// dataset: for every attribute a and value v, the bitset Le[a][v] of rows
// with X_a <= v (RowsAtMost), 64 rows per word. Every statistic is then
// word-parallel:
//
//  * a range lo <= X_a <= hi is Le[a][hi] & ~Le[a][lo-1] (one AND-NOT),
//  * a subproblem's rows (its *scope*) are the AND of its narrowed ranges,
//  * a count is a popcount.
//
// Predicate joints split each scope word by every predicate's word in turn
// and popcount the resulting cells, so no per-row value lookups remain.
// Counts are integers, so the probabilities are exact and every
// MaskDistribution comes out in ascending mask order with the same integer
// weights as aggregating the rows one by one.
//
// NOT thread-safe: the only per-instance state besides the index is a
// one-entry memo of the last scope's bits, rewritten by queries for a new
// scope. Use one instance per thread (caqp::serve gives each worker its own
// PlanBuilder bundle for exactly this reason).

#ifndef CAQP_PROB_DATASET_ESTIMATOR_H_
#define CAQP_PROB_DATASET_ESTIMATOR_H_

#include <cstdint>
#include <vector>

#include "core/dataset.h"
#include "prob/estimator.h"

namespace caqp {

class DatasetEstimator : public CondProbEstimator {
 public:
  /// Builds the index once. The dataset must outlive the estimator.
  explicit DatasetEstimator(const Dataset& data);

  const Schema& schema() const override { return data_.schema(); }

  Histogram Marginal(const RangeVec& given, AttrId attr) override;
  double ReachProbability(const RangeVec& given) override;
  MaskDistribution PredicateMasks(const RangeVec& given,
                                  const std::vector<Predicate>& preds) override;
  std::vector<MaskDistribution> PerValuePredicateMasks(
      const RangeVec& given, AttrId attr,
      const std::vector<Predicate>& preds) override;

  /// Rows matching the ranges, in ascending order. Exposed for tests and
  /// for metrics.
  std::vector<RowId> RowsMatching(const RangeVec& given);

  const Dataset& dataset() const { return data_; }

  /// The index bitset of rows with X_attr <= v (v == -1: no rows), as
  /// ceil(rows / 64) words; row r is bit r % 64 of word r / 64.
  const uint64_t* RowsAtMost(AttrId attr, int v) const;

 private:
  /// Bits of the rows matching `given`; valid until the next call.
  const std::vector<uint64_t>& ScopeBits(const RangeVec& given);

  const Dataset& data_;
  size_t words_ = 0;  // ceil(rows / 64)
  /// le_[(attr_base_[a] + v) * words_ + w]: word w of RowsAtMost(a, v).
  std::vector<size_t> attr_base_;
  std::vector<uint64_t> le_;
  std::vector<uint64_t> none_;  // no rows
  std::vector<uint64_t> all_;   // every row

  RangeVec memo_ranges_;
  std::vector<uint64_t> memo_bits_;
};

}  // namespace caqp

#endif  // CAQP_PROB_DATASET_ESTIMATOR_H_
