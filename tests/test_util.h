// Shared helpers for CAQP tests: small random datasets with injected
// correlations and brute-force probability computations to validate the
// estimators and planners against.

#ifndef CAQP_TESTS_TEST_UTIL_H_
#define CAQP_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "core/dataset.h"
#include "core/query.h"
#include "exec/executor.h"
#include "plan/plan.h"
#include "prob/estimator.h"
#include "prob/subproblem.h"

namespace caqp {
namespace testing_util {

/// A small schema with mixed domain sizes and costs.
inline Schema SmallSchema() {
  Schema s;
  s.AddAttribute("cheap0", 4, 1.0);
  s.AddAttribute("cheap1", 6, 2.0);
  s.AddAttribute("exp0", 4, 50.0);
  s.AddAttribute("exp1", 5, 80.0);
  return s;
}

/// Random dataset over `schema` where attribute i>0 is correlated with
/// attribute 0 (value tends to track attr0 scaled into its domain), so
/// conditional planners have something to exploit.
inline Dataset CorrelatedDataset(const Schema& schema, size_t rows,
                                 uint64_t seed, double noise = 0.25) {
  Rng rng(seed);
  Dataset ds(schema);
  Tuple t(schema.num_attributes());
  for (size_t r = 0; r < rows; ++r) {
    const uint32_t k0 = schema.domain_size(0);
    const auto base = static_cast<uint32_t>(rng.UniformInt(0, k0 - 1));
    t[0] = static_cast<Value>(base);
    for (size_t a = 1; a < schema.num_attributes(); ++a) {
      const uint32_t k = schema.domain_size(static_cast<AttrId>(a));
      uint32_t v;
      if (rng.Bernoulli(noise)) {
        v = static_cast<uint32_t>(rng.UniformInt(0, k - 1));
      } else {
        v = base * k / k0;
        if (v >= k) v = k - 1;
      }
      t[a] = static_cast<Value>(v);
    }
    ds.Append(t);
  }
  return ds;
}

/// Fully independent uniform dataset.
inline Dataset UniformDataset(const Schema& schema, size_t rows,
                              uint64_t seed) {
  Rng rng(seed);
  Dataset ds(schema);
  Tuple t(schema.num_attributes());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      t[a] = static_cast<Value>(
          rng.UniformInt(0, schema.domain_size(static_cast<AttrId>(a)) - 1));
    }
    ds.Append(t);
  }
  return ds;
}

/// Rows of `ds` matching every range, by brute force.
inline std::vector<RowId> BruteForceRows(const Dataset& ds,
                                         const RangeVec& ranges) {
  std::vector<RowId> rows;
  for (RowId r = 0; r < ds.num_rows(); ++r) {
    bool ok = true;
    for (size_t a = 0; a < ranges.size(); ++a) {
      const Value v = ds.at(r, static_cast<AttrId>(a));
      if (v < ranges[a].lo || v > ranges[a].hi) {
        ok = false;
        break;
      }
    }
    if (ok) rows.push_back(r);
  }
  return rows;
}

/// Differential oracle for DatasetEstimator: answers every call by scanning
/// all rows, one weight-1 Add per matching row, then MaskDistribution's own
/// Aggregate. Slow by design; for tests only.
class BruteForceEstimator : public CondProbEstimator {
 public:
  /// The dataset must outlive the estimator.
  explicit BruteForceEstimator(const Dataset& data) : data_(data) {}

  const Schema& schema() const override { return data_.schema(); }

  Histogram Marginal(const RangeVec& given, AttrId attr) override {
    Histogram h(schema().domain_size(attr));
    for (RowId r : BruteForceRows(data_, given)) h.Add(data_.at(r, attr));
    return h;
  }

  double ReachProbability(const RangeVec& given) override {
    if (data_.num_rows() == 0) return 0.0;
    return static_cast<double>(BruteForceRows(data_, given).size()) /
           static_cast<double>(data_.num_rows());
  }

  MaskDistribution PredicateMasks(
      const RangeVec& given, const std::vector<Predicate>& preds) override {
    MaskDistribution dist;
    for (RowId r : BruteForceRows(data_, given)) {
      dist.Add(PredicateMask(preds, data_.GetTuple(r)), 1.0);
    }
    dist.Aggregate();
    return dist;
  }

  std::vector<MaskDistribution> PerValuePredicateMasks(
      const RangeVec& given, AttrId attr,
      const std::vector<Predicate>& preds) override {
    std::vector<MaskDistribution> out(given[attr].Width());
    for (RowId r : BruteForceRows(data_, given)) {
      out[data_.at(r, attr) - given[attr].lo].Add(
          PredicateMask(preds, data_.GetTuple(r)), 1.0);
    }
    for (MaskDistribution& d : out) d.Aggregate();
    return out;
  }

 private:
  const Dataset& data_;
};

/// Differential oracle for the flat executor: a plain walk down the
/// pointer tree with ExecutePlan's acquisition, charging and degradation
/// semantics written out once more, and no trace, profile or obs hooks.
/// ExecutePlan on the compiled plan must match it bit for bit, cost
/// included.
inline ExecutionResult ReferenceExecute(const Plan& plan, const Schema& schema,
                                        const AcquisitionCostModel& cost_model,
                                        AcquisitionSource& source,
                                        const DegradationPolicy& policy = {}) {
  ExecutionResult out;
  std::vector<Value> values(schema.num_attributes(), 0);
  const int max_attempts =
      policy.mode == DegradationPolicy::Mode::kRetry
          ? std::max(1, policy.max_attempts)
          : 1;

  // Every attempt is charged; a failed attribute is never retried later.
  auto acquire = [&](AttrId a, Value* v) -> bool {
    if (out.acquired.Contains(a)) {
      *v = values[a];
      return true;
    }
    if (out.failed.Contains(a)) return false;
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
      const AcquiredValue av = source.Acquire(a);
      double marginal = cost_model.Cost(a, out.acquired) * av.cost_multiplier;
      if (attempt > 0) {
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
  // Marks the verdict Unknown; true when kAbort must stop execution.
  auto degrade = [&]() -> bool {
    out.verdict3 = Truth::kUnknown;
    out.aborted = policy.mode == DegradationPolicy::Mode::kAbort;
    return out.aborted;
  };

  const PlanNode* n = &plan.root();
  Value v = 0;
  while (n->kind == PlanNode::Kind::kSplit) {
    if (!acquire(n->attr, &v)) {
      (void)degrade();
      out.verdict = false;
      return out;
    }
    n = v >= n->split_value ? n->ge.get() : n->lt.get();
  }
  Truth t = Truth::kTrue;
  switch (n->kind) {
    case PlanNode::Kind::kVerdict:
      t = n->verdict ? Truth::kTrue : Truth::kFalse;
      break;
    case PlanNode::Kind::kSequential:
      for (const Predicate& p : n->sequence) {
        if (!acquire(p.attr, &v)) {
          if (degrade()) break;
          t = Truth::kUnknown;
        } else if (!p.Matches(v)) {
          t = Truth::kFalse;
          break;
        }
      }
      break;
    case PlanNode::Kind::kGeneric: {
      RangeVec ranges = schema.FullRanges();
      for (size_t a = 0; a < schema.num_attributes(); ++a) {
        if (out.acquired.Contains(static_cast<AttrId>(a))) {
          ranges[a] = ValueRange{values[a], values[a]};
        }
      }
      t = n->residual_query.EvaluateOnRanges(ranges);
      for (const AttrId a : n->acquire_order) {
        if (t != Truth::kUnknown) break;
        if (!acquire(a, &v)) {
          if (degrade()) break;
          continue;
        }
        ranges[a] = ValueRange{v, v};
        t = n->residual_query.EvaluateOnRanges(ranges);
      }
      break;
    }
    case PlanNode::Kind::kSplit:
      break;
  }
  if (!out.aborted) out.verdict3 = t;
  out.verdict = out.verdict3 == Truth::kTrue;
  return out;
}

/// Random valid sub-ranges of the schema's domains.
inline RangeVec RandomRanges(const Schema& schema, Rng& rng,
                             double narrow_probability = 0.5) {
  RangeVec ranges = schema.FullRanges();
  for (size_t a = 0; a < ranges.size(); ++a) {
    if (!rng.Bernoulli(narrow_probability)) continue;
    const uint32_t k = schema.domain_size(static_cast<AttrId>(a));
    const Value lo = static_cast<Value>(rng.UniformInt(0, k - 1));
    const Value hi = static_cast<Value>(rng.UniformInt(lo, k - 1));
    ranges[a] = ValueRange{lo, hi};
  }
  return ranges;
}

/// Random conjunctive query over a subset of attributes.
inline Query RandomConjunctiveQuery(const Schema& schema, Rng& rng,
                                    size_t max_preds = 3) {
  Conjunct preds;
  std::vector<AttrId> attrs;
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    attrs.push_back(static_cast<AttrId>(a));
  }
  // Shuffle attribute choice.
  for (size_t i = attrs.size(); i > 1; --i) {
    std::swap(attrs[i - 1],
              attrs[static_cast<size_t>(rng.UniformInt(0, i - 1))]);
  }
  const size_t n =
      1 + static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(
                     std::min(max_preds, attrs.size())) - 1));
  for (size_t i = 0; i < n; ++i) {
    const AttrId a = attrs[i];
    const uint32_t k = schema.domain_size(a);
    Value lo = static_cast<Value>(rng.UniformInt(0, k - 1));
    Value hi = static_cast<Value>(rng.UniformInt(lo, k - 1));
    // Avoid trivially-true predicates covering the whole domain.
    if (lo == 0 && hi == k - 1) hi = static_cast<Value>(k - 2);
    preds.emplace_back(a, lo, hi, rng.Bernoulli(0.3));
  }
  return Query::Conjunction(std::move(preds));
}

/// Enumerates every tuple of the (small!) schema and checks that the plan's
/// verdict matches the query everywhere. Returns the number of mismatches.
template <typename PlanT>
size_t CountVerdictMismatches(const PlanT& plan, const Query& query,
                              const Schema& schema) {
  size_t mismatches = 0;
  Tuple t(schema.num_attributes(), 0);
  // Odometer enumeration.
  while (true) {
    if (plan.VerdictFor(t) != query.Matches(t)) ++mismatches;
    size_t a = 0;
    for (; a < t.size(); ++a) {
      if (++t[a] < schema.domain_size(static_cast<AttrId>(a))) break;
      t[a] = 0;
    }
    if (a == t.size()) break;
  }
  return mismatches;
}

}  // namespace testing_util
}  // namespace caqp

#endif  // CAQP_TESTS_TEST_UTIL_H_
