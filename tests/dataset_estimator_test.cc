// DatasetEstimator tests: every statistic must agree exactly with brute-
// force counting over the dataset (the estimator is the paper's Section 5
// machinery, so its correctness underpins every planner). The oracle tests
// compare whole MaskDistributions -- entries, their order and total() --
// and serialized plans against testing_util::BruteForceEstimator.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "data/garden_gen.h"
#include "data/lab_gen.h"
#include "data/synthetic_gen.h"
#include "data/workload.h"
#include "opt/cost_model.h"
#include "opt/exhaustive.h"
#include "opt/greedy_plan.h"
#include "opt/greedyseq.h"
#include "opt/split_points.h"
#include "plan/plan_serde.h"
#include "prob/dataset_estimator.h"
#include "test_util.h"

namespace caqp {
namespace {

using testing_util::BruteForceEstimator;
using testing_util::BruteForceRows;
using testing_util::CorrelatedDataset;
using testing_util::RandomRanges;
using testing_util::SmallSchema;

TEST(DatasetEstimatorTest, RootMarginalMatchesColumnCounts) {
  const Dataset ds = CorrelatedDataset(SmallSchema(), 500, 1);
  DatasetEstimator est(ds);
  const RangeVec root = ds.schema().FullRanges();
  for (size_t a = 0; a < ds.num_attributes(); ++a) {
    const Histogram h = est.Marginal(root, static_cast<AttrId>(a));
    EXPECT_DOUBLE_EQ(h.total(), 500.0);
    std::vector<double> counts(ds.schema().domain_size(static_cast<AttrId>(a)),
                               0);
    for (Value v : ds.column(static_cast<AttrId>(a))) counts[v] += 1;
    for (Value v = 0; v < counts.size(); ++v) {
      EXPECT_DOUBLE_EQ(h.Count(v), counts[v]);
    }
  }
}

TEST(DatasetEstimatorTest, ConditionalMarginalMatchesBruteForce) {
  const Dataset ds = CorrelatedDataset(SmallSchema(), 800, 2);
  DatasetEstimator est(ds);
  Rng rng(3);
  for (int iter = 0; iter < 50; ++iter) {
    const RangeVec ranges = RandomRanges(ds.schema(), rng);
    const std::vector<RowId> expected = BruteForceRows(ds, ranges);
    for (size_t a = 0; a < ds.num_attributes(); ++a) {
      const Histogram h = est.Marginal(ranges, static_cast<AttrId>(a));
      EXPECT_DOUBLE_EQ(h.total(), static_cast<double>(expected.size()));
      std::vector<double> counts(
          ds.schema().domain_size(static_cast<AttrId>(a)), 0);
      for (RowId r : expected) counts[ds.at(r, static_cast<AttrId>(a))] += 1;
      for (Value v = 0; v < counts.size(); ++v) {
        ASSERT_DOUBLE_EQ(h.Count(v), counts[v]);
      }
    }
  }
}

TEST(DatasetEstimatorTest, ReachProbabilityMatchesBruteForce) {
  const Dataset ds = CorrelatedDataset(SmallSchema(), 600, 4);
  DatasetEstimator est(ds);
  Rng rng(5);
  for (int iter = 0; iter < 50; ++iter) {
    const RangeVec ranges = RandomRanges(ds.schema(), rng);
    const double expected =
        static_cast<double>(BruteForceRows(ds, ranges).size()) / 600.0;
    EXPECT_DOUBLE_EQ(est.ReachProbability(ranges), expected);
  }
}

TEST(DatasetEstimatorTest, PredicateMasksMatchBruteForce) {
  const Dataset ds = CorrelatedDataset(SmallSchema(), 700, 6);
  DatasetEstimator est(ds);
  Rng rng(7);
  std::vector<Predicate> preds = {Predicate(2, 1, 2), Predicate(3, 0, 2),
                                  Predicate(1, 2, 4, /*neg=*/true)};
  for (int iter = 0; iter < 30; ++iter) {
    const RangeVec ranges = RandomRanges(ds.schema(), rng);
    const MaskDistribution dist = est.PredicateMasks(ranges, preds);
    const std::vector<RowId> rows = BruteForceRows(ds, ranges);
    EXPECT_DOUBLE_EQ(dist.total(), static_cast<double>(rows.size()));
    // Brute-force mask counts.
    std::vector<double> expected(8, 0);
    for (RowId r : rows) {
      expected[PredicateMask(preds, ds.GetTuple(r))] += 1;
    }
    for (uint64_t mask = 0; mask < 8; ++mask) {
      double got = 0;
      for (const auto& [m, w] : dist.entries()) {
        if (m == mask) got += w;
      }
      ASSERT_DOUBLE_EQ(got, expected[mask]) << "mask " << mask;
    }
  }
}

TEST(DatasetEstimatorTest, PerValueMasksPartitionParent) {
  const Dataset ds = CorrelatedDataset(SmallSchema(), 900, 8);
  DatasetEstimator est(ds);
  Rng rng(9);
  std::vector<Predicate> preds = {Predicate(2, 1, 2), Predicate(3, 1, 3)};
  for (int iter = 0; iter < 30; ++iter) {
    const RangeVec ranges = RandomRanges(ds.schema(), rng);
    for (size_t a = 0; a < ds.num_attributes(); ++a) {
      const AttrId attr = static_cast<AttrId>(a);
      const auto per_value = est.PerValuePredicateMasks(ranges, attr, preds);
      ASSERT_EQ(per_value.size(), ranges[attr].Width());
      const MaskDistribution parent = est.PredicateMasks(ranges, preds);
      double total = 0;
      for (const auto& d : per_value) total += d.total();
      EXPECT_DOUBLE_EQ(total, parent.total());
      // Summing per-value distributions over the whole range recovers the
      // parent's subset masses exactly.
      for (uint64_t mask = 0; mask < 4; ++mask) {
        double sum = 0;
        for (const auto& d : per_value) sum += d.MassAllTrue(mask);
        EXPECT_NEAR(sum, parent.MassAllTrue(mask), 1e-9);
      }
      // Check per-value contents directly against brute force.
      const std::vector<RowId> rows = BruteForceRows(ds, ranges);
      for (Value v = ranges[attr].lo; v <= ranges[attr].hi; ++v) {
        double expected = 0;
        for (RowId r : rows) {
          if (ds.at(r, attr) == v) expected += 1;
        }
        EXPECT_DOUBLE_EQ(per_value[v - ranges[attr].lo].total(), expected);
      }
    }
  }
}

TEST(DatasetEstimatorTest, ScopeStackSpeedsEqualAnswers) {
  const Dataset ds = CorrelatedDataset(SmallSchema(), 500, 10);
  DatasetEstimator est(ds);
  const Schema& schema = ds.schema();
  RangeVec outer = schema.FullRanges();
  outer[0] = ValueRange{1, 2};
  RangeVec inner = outer;
  inner[2] = ValueRange{0, 1};

  // Without scopes.
  const double p_no_scope = est.ReachProbability(inner);

  // With a scope stack mirroring planner recursion.
  est.PushScope(outer);
  est.PushScope(inner);
  const double p_scoped = est.ReachProbability(inner);
  est.PopScope();
  const double p_outer = est.ReachProbability(outer);
  est.PopScope();

  EXPECT_DOUBLE_EQ(p_no_scope, p_scoped);
  EXPECT_DOUBLE_EQ(
      p_outer, static_cast<double>(BruteForceRows(ds, outer).size()) / 500.0);
}

TEST(DatasetEstimatorTest, OffStackQueriesResolveFromNearestScope) {
  const Dataset ds = CorrelatedDataset(SmallSchema(), 400, 11);
  DatasetEstimator est(ds);
  RangeVec scope = ds.schema().FullRanges();
  scope[1] = ValueRange{1, 4};
  est.PushScope(scope);
  // Query a sibling refinement not on the stack.
  RangeVec probe = scope;
  probe[3] = ValueRange{2, 3};
  EXPECT_DOUBLE_EQ(
      est.ReachProbability(probe),
      static_cast<double>(BruteForceRows(ds, probe).size()) / 400.0);
  est.PopScope();
}

TEST(DatasetEstimatorTest, RangeProbabilityConvenience) {
  const Dataset ds = CorrelatedDataset(SmallSchema(), 300, 12);
  DatasetEstimator est(ds);
  const RangeVec root = ds.schema().FullRanges();
  double total = 0;
  for (Value v = 0; v < 4; ++v) {
    total += est.RangeProbability(root, 0, ValueRange{v, v});
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(DatasetEstimatorTest, PredicateProbabilityHandlesNegation) {
  const Dataset ds = CorrelatedDataset(SmallSchema(), 300, 13);
  DatasetEstimator est(ds);
  const RangeVec root = ds.schema().FullRanges();
  const Predicate p(1, 2, 4);
  const Predicate np(1, 2, 4, /*neg=*/true);
  EXPECT_NEAR(est.PredicateProbability(root, p) +
                  est.PredicateProbability(root, np),
              1.0, 1e-12);
}

TEST(DatasetEstimatorTest, EmptyDatasetIsSafe) {
  Dataset ds(SmallSchema());
  DatasetEstimator est(ds);
  const RangeVec root = ds.schema().FullRanges();
  EXPECT_DOUBLE_EQ(est.ReachProbability(root), 0.0);
  EXPECT_DOUBLE_EQ(est.Marginal(root, 0).total(), 0.0);
  EXPECT_TRUE(est.PredicateMasks(root, {Predicate(0, 0, 1)}).empty());
}

TEST(DatasetEstimatorTest, RowsMatchingExactAndSubset) {
  const Dataset ds = CorrelatedDataset(SmallSchema(), 200, 14);
  DatasetEstimator est(ds);
  Rng rng(15);
  for (int iter = 0; iter < 20; ++iter) {
    const RangeVec ranges = RandomRanges(ds.schema(), rng);
    EXPECT_EQ(est.RowsMatching(ranges), BruteForceRows(ds, ranges));
  }
}

// ---------------------------------------------------------------------------
// Differential oracle: exact equality with BruteForceEstimator.

/// Random predicates; lo == 0 and negation are both common.
std::vector<Predicate> RandomPredicates(const Schema& schema, Rng& rng,
                                        size_t count) {
  std::vector<Predicate> preds;
  for (size_t j = 0; j < count; ++j) {
    const auto attr = static_cast<AttrId>(
        rng.UniformInt(0, static_cast<int64_t>(schema.num_attributes()) - 1));
    const uint32_t k = schema.domain_size(attr);
    const Value lo =
        rng.Bernoulli(0.3) ? 0 : static_cast<Value>(rng.UniformInt(0, k - 1));
    const auto hi = static_cast<Value>(rng.UniformInt(lo, k - 1));
    preds.emplace_back(attr, lo, hi, rng.Bernoulli(0.4));
  }
  return preds;
}

void ExpectSameMasks(const MaskDistribution& got,
                     const MaskDistribution& want) {
  EXPECT_EQ(got.entries(), want.entries());
  EXPECT_EQ(got.total(), want.total());
}

/// Every statistic of `est` equals the oracle's bit for bit.
void ExpectMatchesOracle(DatasetEstimator& est, BruteForceEstimator& oracle,
                         const RangeVec& ranges,
                         const std::vector<Predicate>& preds) {
  const Schema& schema = est.schema();
  EXPECT_EQ(est.ReachProbability(ranges), oracle.ReachProbability(ranges));
  ExpectSameMasks(est.PredicateMasks(ranges, preds),
                  oracle.PredicateMasks(ranges, preds));
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    const auto attr = static_cast<AttrId>(a);
    const Histogram got = est.Marginal(ranges, attr);
    const Histogram want = oracle.Marginal(ranges, attr);
    ASSERT_EQ(got.domain(), want.domain());
    EXPECT_EQ(got.total(), want.total());
    for (Value v = 0; v < got.domain(); ++v) {
      EXPECT_EQ(got.Count(v), want.Count(v)) << "attr " << a << " value " << v;
    }
    const auto per_value = est.PerValuePredicateMasks(ranges, attr, preds);
    const auto want_per_value =
        oracle.PerValuePredicateMasks(ranges, attr, preds);
    ASSERT_EQ(per_value.size(), want_per_value.size());
    for (size_t g = 0; g < per_value.size(); ++g) {
      ExpectSameMasks(per_value[g], want_per_value[g]);
    }
  }
}

TEST(DatasetEstimatorOracleTest, RandomRangesAndPredicates) {
  // Row counts straddle the 64-row word boundary.
  for (size_t rows : {1u, 63u, 64u, 65u, 130u, 701u}) {
    SCOPED_TRACE("rows " + std::to_string(rows));
    const Dataset ds = CorrelatedDataset(SmallSchema(), rows, 40 + rows);
    DatasetEstimator est(ds);
    BruteForceEstimator oracle(ds);
    Rng rng(rows);
    for (int iter = 0; iter < 40; ++iter) {
      const RangeVec ranges = RandomRanges(ds.schema(), rng);
      const std::vector<Predicate> preds = RandomPredicates(
          ds.schema(), rng, static_cast<size_t>(rng.UniformInt(0, 6)));
      ExpectMatchesOracle(est, oracle, ranges, preds);
    }
  }
}

TEST(DatasetEstimatorOracleTest, EmptyScopes) {
  // Attribute 0 only ever takes values 0 and 1, so [2,3] selects no row.
  const Schema schema = SmallSchema();
  Dataset ds(schema);
  Rng rng(16);
  for (int r = 0; r < 150; ++r) {
    Tuple t(schema.num_attributes());
    t[0] = static_cast<Value>(r % 2);
    for (size_t a = 1; a < t.size(); ++a) {
      t[a] = static_cast<Value>(rng.UniformInt(
          0, schema.domain_size(static_cast<AttrId>(a)) - 1));
    }
    ds.Append(t);
  }
  DatasetEstimator est(ds);
  BruteForceEstimator oracle(ds);
  for (int iter = 0; iter < 20; ++iter) {
    RangeVec ranges = RandomRanges(schema, rng);
    ranges[0] = ValueRange{2, 3};
    ASSERT_TRUE(BruteForceRows(ds, ranges).empty());
    EXPECT_TRUE(est.RowsMatching(ranges).empty());
    ExpectMatchesOracle(est, oracle, ranges, RandomPredicates(schema, rng, 3));
  }
}

TEST(DatasetEstimatorOracleTest, ZeroRowDataset) {
  const Dataset ds(SmallSchema());
  DatasetEstimator est(ds);
  BruteForceEstimator oracle(ds);
  Rng rng(17);
  ExpectMatchesOracle(est, oracle, ds.schema().FullRanges(),
                      RandomPredicates(ds.schema(), rng, 2));
  for (int iter = 0; iter < 10; ++iter) {
    ExpectMatchesOracle(est, oracle, RandomRanges(ds.schema(), rng),
                        RandomPredicates(ds.schema(), rng, 3));
  }
}

TEST(DatasetEstimatorOracleTest, MorePredicatesThanTheDenseTable) {
  // Garden-11 queries carry 22 predicates: the sparse counting path.
  GardenDataOptions gopts;
  gopts.num_motes = 11;
  gopts.epochs = 700;
  const Dataset ds = GenerateGardenData(gopts);
  const GardenAttrs attrs = ResolveGardenAttrs(ds.schema());
  GardenQueryOptions qopts;
  qopts.num_queries = 3;
  const std::vector<Query> queries = GenerateGardenQueries(
      ds.schema(), attrs.temperature, attrs.humidity, qopts);
  DatasetEstimator est(ds);
  BruteForceEstimator oracle(ds);
  Rng rng(18);
  for (const Query& q : queries) {
    ASSERT_EQ(q.predicates().size(), 22u);
    ExpectMatchesOracle(est, oracle, ds.schema().FullRanges(), q.predicates());
    for (int iter = 0; iter < 3; ++iter) {
      ExpectMatchesOracle(est, oracle, RandomRanges(ds.schema(), rng, 0.2),
                          q.predicates());
    }
  }
}

/// Greedy and Exhaustive plans serialize to the same bytes under
/// DatasetEstimator as under the oracle. Exhaustive search gets its own,
/// smaller split-point set so the oracle's full scans stay affordable.
void ExpectSamePlans(const Dataset& train, const std::vector<Query>& queries,
                     const SplitPointSet& greedy_splits,
                     const SplitPointSet& exhaustive_splits) {
  DatasetEstimator est(train);
  BruteForceEstimator oracle(train);
  PerAttributeCostModel cm(train.schema());
  GreedySeqSolver seq;
  GreedyPlanner::Options gopts;
  gopts.split_points = &greedy_splits;
  gopts.seq_solver = &seq;
  gopts.max_splits = 5;
  GreedyPlanner greedy(est, cm, gopts);
  GreedyPlanner greedy_oracle(oracle, cm, gopts);
  ExhaustivePlanner::Options xopts;
  xopts.split_points = &exhaustive_splits;
  ExhaustivePlanner exhaustive(est, cm, xopts);
  ExhaustivePlanner exhaustive_oracle(oracle, cm, xopts);
  size_t greedy_splits_made = 0;
  size_t exhaustive_splits_made = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    const Plan g = greedy.BuildPlan(queries[i]);
    EXPECT_EQ(SerializePlan(g),
              SerializePlan(greedy_oracle.BuildPlan(queries[i])));
    const Plan x = exhaustive.BuildPlan(queries[i]);
    EXPECT_EQ(SerializePlan(x),
              SerializePlan(exhaustive_oracle.BuildPlan(queries[i])));
    greedy_splits_made += g.NumSplits();
    exhaustive_splits_made += x.NumSplits();
  }
  // Conditional plans, not just sequential leaves, were compared.
  EXPECT_GT(greedy_splits_made, 0u);
  EXPECT_GT(exhaustive_splits_made, 0u);
}

/// `points` split points on the first `attrs` attributes, none elsewhere.
SplitPointSet FewSplitPoints(const Schema& schema, size_t attrs,
                             uint32_t points) {
  std::vector<uint32_t> per_attr(schema.num_attributes(), 0);
  for (size_t a = 0; a < std::min(attrs, per_attr.size()); ++a) {
    per_attr[a] = points;
  }
  return SplitPointSet::EquiSpaced(schema, per_attr);
}

TEST(DatasetEstimatorOracleTest, SamePlanBytesOnLab) {
  LabDataOptions lopts;
  lopts.num_motes = 4;
  lopts.readings = 1500;
  const Dataset train = GenerateLabData(lopts);
  const LabAttrs attrs = ResolveLabAttrs(train.schema());
  LabQueryOptions qopts;
  qopts.num_queries = 4;
  const std::vector<Query> queries = GenerateLabQueries(
      train, {attrs.light, attrs.temperature, attrs.humidity}, qopts);
  ExpectSamePlans(train, queries,
                  SplitPointSet::FromLog10Spsf(train.schema(), 6.0),
                  FewSplitPoints(train.schema(), 3, 2));
}

TEST(DatasetEstimatorOracleTest, SamePlanBytesOnGarden) {
  for (size_t motes : {5u, 11u}) {
    SCOPED_TRACE("garden-" + std::to_string(motes));
    GardenDataOptions gopts;
    gopts.num_motes = motes;
    gopts.epochs = 1000;
    const Dataset train = GenerateGardenData(gopts);
    const GardenAttrs attrs = ResolveGardenAttrs(train.schema());
    GardenQueryOptions qopts;
    qopts.num_queries = 3;
    const std::vector<Query> queries = GenerateGardenQueries(
        train.schema(), attrs.temperature, attrs.humidity, qopts);
    ExpectSamePlans(train, queries,
                    SplitPointSet::FromLog10Spsf(
                        train.schema(),
                        static_cast<double>(train.num_attributes())),
                    FewSplitPoints(train.schema(), 4, 2));
  }
}

TEST(DatasetEstimatorOracleTest, SamePlanBytesOnSynthetic) {
  SyntheticDataOptions sopts;
  sopts.n = 6;
  sopts.gamma = 2;
  sopts.tuples = 3000;
  const Dataset train = GenerateSyntheticData(sopts);
  Rng rng(19);
  std::vector<Query> queries = {SyntheticAllExpensiveQuery(train.schema())};
  for (int i = 0; i < 4; ++i) {
    queries.push_back(
        testing_util::RandomConjunctiveQuery(train.schema(), rng, 4));
  }
  const SplitPointSet all = SplitPointSet::AllPoints(train.schema());
  ExpectSamePlans(train, queries, all, all);
}

}  // namespace
}  // namespace caqp
