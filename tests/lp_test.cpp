// Tests for the simplex solver and the paper's Section 4.1 state
// distribution LP, including the paper's two-server optimum (11240 cps) and
// the changing-loads prediction.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "lp/simplex.hpp"
#include "lp/state_model.hpp"

namespace svk::lp {
namespace {

constexpr double kTsf = 10360.0;
constexpr double kTsl = 12300.0;

// ---------------------------------------------------------------------------
// Simplex
// ---------------------------------------------------------------------------

TEST(SimplexTest, SimpleMaximization) {
  // max 3x + 2y st x + y <= 4, x + 3y <= 6, x,y >= 0 -> x=4, y=0, obj 12.
  Problem p;
  p.num_vars = 2;
  p.objective = {3.0, 2.0};
  p.add_constraint(Relation::kLessEqual, 4.0).coeffs = {1.0, 1.0};
  p.add_constraint(Relation::kLessEqual, 6.0).coeffs = {1.0, 3.0};
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 12.0, 1e-9);
  EXPECT_NEAR(s.values[0], 4.0, 1e-9);
  EXPECT_NEAR(s.values[1], 0.0, 1e-9);
}

TEST(SimplexTest, ClassicTwoVariable) {
  // max 5x + 4y st 6x + 4y <= 24, x + 2y <= 6 -> x=3, y=1.5, obj 21.
  Problem p;
  p.num_vars = 2;
  p.objective = {5.0, 4.0};
  p.add_constraint(Relation::kLessEqual, 24.0).coeffs = {6.0, 4.0};
  p.add_constraint(Relation::kLessEqual, 6.0).coeffs = {1.0, 2.0};
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 21.0, 1e-9);
  EXPECT_NEAR(s.values[0], 3.0, 1e-9);
  EXPECT_NEAR(s.values[1], 1.5, 1e-9);
}

TEST(SimplexTest, EqualityConstraints) {
  // max x + y st x + y = 5, x <= 3 -> obj 5.
  Problem p;
  p.num_vars = 2;
  p.objective = {1.0, 1.0};
  p.add_constraint(Relation::kEqual, 5.0).coeffs = {1.0, 1.0};
  p.add_constraint(Relation::kLessEqual, 3.0).coeffs = {1.0, 0.0};
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 5.0, 1e-9);
}

TEST(SimplexTest, GreaterEqualConstraints) {
  // min x + y st x + 2y >= 4, 3x + y >= 6  (maximize -(x+y)).
  // Optimum at intersection: x=1.6, y=1.2, obj 2.8.
  Problem p;
  p.num_vars = 2;
  p.objective = {-1.0, -1.0};
  p.add_constraint(Relation::kGreaterEqual, 4.0).coeffs = {1.0, 2.0};
  p.add_constraint(Relation::kGreaterEqual, 6.0).coeffs = {3.0, 1.0};
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, -2.8, 1e-9);
  EXPECT_NEAR(s.values[0], 1.6, 1e-9);
  EXPECT_NEAR(s.values[1], 1.2, 1e-9);
}

TEST(SimplexTest, DetectsInfeasible) {
  Problem p;
  p.num_vars = 1;
  p.objective = {1.0};
  p.add_constraint(Relation::kLessEqual, 1.0).coeffs = {1.0};
  p.add_constraint(Relation::kGreaterEqual, 2.0).coeffs = {1.0};
  EXPECT_EQ(solve(p).status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, DetectsUnbounded) {
  Problem p;
  p.num_vars = 2;
  p.objective = {1.0, 0.0};
  p.add_constraint(Relation::kLessEqual, 4.0).coeffs = {0.0, 1.0};
  EXPECT_EQ(solve(p).status, SolveStatus::kUnbounded);
}

TEST(SimplexTest, NegativeRhsNormalized) {
  // x <= -1 is infeasible for x >= 0 (normalizes to -x >= 1).
  Problem p;
  p.num_vars = 1;
  p.objective = {1.0};
  p.add_constraint(Relation::kLessEqual, -1.0).coeffs = {1.0};
  EXPECT_EQ(solve(p).status, SolveStatus::kInfeasible);

  // -x >= -3 (i.e. x <= 3): max x = 3.
  Problem q;
  q.num_vars = 1;
  q.objective = {1.0};
  q.add_constraint(Relation::kGreaterEqual, -3.0).coeffs = {-1.0};
  const Solution s = solve(q);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 3.0, 1e-9);
}

TEST(SimplexTest, DegenerateProblemTerminates) {
  // Multiple redundant constraints through one vertex (degeneracy); Bland's
  // rule must still terminate.
  Problem p;
  p.num_vars = 2;
  p.objective = {1.0, 1.0};
  p.add_constraint(Relation::kLessEqual, 1.0).coeffs = {1.0, 0.0};
  p.add_constraint(Relation::kLessEqual, 1.0).coeffs = {0.0, 1.0};
  p.add_constraint(Relation::kLessEqual, 2.0).coeffs = {1.0, 1.0};
  p.add_constraint(Relation::kLessEqual, 2.0).coeffs = {1.0, 1.0};
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 2.0, 1e-9);
}

TEST(SimplexTest, ZeroObjectiveFeasibility) {
  Problem p;
  p.num_vars = 1;
  p.objective = {0.0};
  p.add_constraint(Relation::kEqual, 2.0).coeffs = {1.0};
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.values[0], 2.0, 1e-9);
}

// ---------------------------------------------------------------------------
// State distribution model
// ---------------------------------------------------------------------------

TEST(StateModelTest, SingleNodeCapsAtStatefulThreshold) {
  StateDistributionModel model;
  const NodeIndex n = model.add_node("s1", kTsf, kTsl);
  model.mark_entry(n);
  model.mark_exit(n);
  const auto result = model.solve();
  ASSERT_TRUE(result.optimal());
  // Alone, every call must be handled statefully here.
  EXPECT_NEAR(result.max_throughput, kTsf, 1.0);
  EXPECT_NEAR(result.node_stateful[n], kTsf, 1.0);
}

TEST(StateModelTest, PaperTwoSeriesOptimum) {
  // Section 4.1: two servers in series, thresholds 10360/12300 ->
  // optimal ~11240 cps with ~5620 stateful at each node.
  StateDistributionModel model;
  const NodeIndex s1 = model.add_node("s1", kTsf, kTsl);
  const NodeIndex s2 = model.add_node("s2", kTsf, kTsl);
  model.add_edge(s1, s2);
  model.mark_entry(s1);
  model.mark_exit(s2);
  const auto result = model.solve();
  ASSERT_TRUE(result.optimal());
  // Closed form: 2 / (alpha + beta) = 11247.3; the paper rounds to 11240.
  EXPECT_NEAR(result.max_throughput, 11247.3, 1.0);
  EXPECT_NEAR(result.node_stateful[s1], result.max_throughput / 2.0, 1.0);
  EXPECT_NEAR(result.node_stateful[s2], result.max_throughput / 2.0, 1.0);
}

TEST(StateModelTest, TwoSeriesBeatsAnyStaticSplit) {
  // LP optimum must dominate both static configurations (all state at one
  // node = T_SF).
  StateDistributionModel model;
  const NodeIndex s1 = model.add_node("s1", kTsf, kTsl);
  const NodeIndex s2 = model.add_node("s2", kTsf, kTsl);
  model.add_edge(s1, s2);
  model.mark_entry(s1);
  model.mark_exit(s2);
  const auto result = model.solve();
  ASSERT_TRUE(result.optimal());
  EXPECT_GT(result.max_throughput, kTsf * 1.05);
  EXPECT_LT(result.max_throughput, kTsl);
}

TEST(StateModelTest, ThreeSeriesOptimum) {
  // Three in series: system must hold state once per call; capacity sums:
  // 3 feasibility constraints, optimum = 3/(alpha + 2 beta).
  StateDistributionModel model;
  const NodeIndex s1 = model.add_node("s1", kTsf, kTsl);
  const NodeIndex s2 = model.add_node("s2", kTsf, kTsl);
  const NodeIndex s3 = model.add_node("s3", kTsf, kTsl);
  model.add_edge(s1, s2);
  model.add_edge(s2, s3);
  model.mark_entry(s1);
  model.mark_exit(s3);
  const auto result = model.solve();
  ASSERT_TRUE(result.optimal());
  const double alpha = 1.0 / kTsf;
  const double beta = 1.0 / kTsl;
  EXPECT_NEAR(result.max_throughput, 3.0 / (alpha + 2.0 * beta), 1.0);
}

TEST(StateModelTest, ChangingLoads80_20Prediction) {
  // Figure 7 LP prediction: 80% external (through both), 20% internal
  // (exits at s1). At that mix s1's feasibility dominates:
  // T = 1 / (0.2*alpha + 0.8*beta) ~ 11856 cps with these thresholds.
  StateDistributionModel model;
  const NodeIndex s1 = model.add_node("s1", kTsf, kTsl);
  const NodeIndex s2 = model.add_node("s2", kTsf, kTsl);
  model.add_edge(s1, s2);
  model.mark_entry(s1);
  model.mark_exit(s1);  // internal flow leaves at s1
  model.mark_exit(s2);
  model.fix_exit_split(s1, 0.2);
  model.fix_split(s1, s2, 0.8);
  const auto result = model.solve();
  ASSERT_TRUE(result.optimal());
  const double alpha = 1.0 / kTsf;
  const double beta = 1.0 / kTsl;
  EXPECT_NEAR(result.max_throughput, 1.0 / (0.2 * alpha + 0.8 * beta), 2.0);
  EXPECT_GT(result.max_throughput, kTsf);
}

TEST(StateModelTest, ChangingLoadsPeaksNearEighty) {
  // The paper observes the largest headroom around an 80/20 split; sweep
  // the fraction and verify the optimum peaks in [0.7, 0.9].
  double best_fraction = 0.0;
  double best = 0.0;
  for (double f = 0.0; f <= 1.0 + 1e-9; f += 0.1) {
    StateDistributionModel model;
    const NodeIndex s1 = model.add_node("s1", kTsf, kTsl);
    const NodeIndex s2 = model.add_node("s2", kTsf, kTsl);
    model.add_edge(s1, s2);
    model.mark_entry(s1);
    model.mark_exit(s1);
    model.mark_exit(s2);
    model.fix_exit_split(s1, 1.0 - f);
    model.fix_split(s1, s2, f);
    const auto result = model.solve();
    ASSERT_TRUE(result.optimal()) << "fraction " << f;
    if (result.max_throughput > best) {
      best = result.max_throughput;
      best_fraction = f;
    }
  }
  EXPECT_GE(best_fraction, 0.7);
  EXPECT_LE(best_fraction, 0.9);
}

TEST(StateModelTest, ParallelForkOptimum) {
  // Entry fans to two exits 50/50. The entry can stay stateless; each exit
  // handles half. Exits bind at (alpha+beta)/2 per unit -> T = 2/(alpha+beta)
  // until the entry's stateless bound T <= T_SL; with these numbers the
  // exits bind first at 22494... capped by the entry at T_SL = 12300.
  StateDistributionModel model;
  const NodeIndex s0 = model.add_node("s0", kTsf, kTsl);
  const NodeIndex sa = model.add_node("sa", kTsf, kTsl);
  const NodeIndex sb = model.add_node("sb", kTsf, kTsl);
  model.add_edge(s0, sa);
  model.add_edge(s0, sb);
  model.mark_entry(s0);
  model.mark_exit(sa);
  model.mark_exit(sb);
  model.fix_split(s0, sa, 0.5);
  model.fix_split(s0, sb, 0.5);
  const auto result = model.solve();
  ASSERT_TRUE(result.optimal());
  EXPECT_NEAR(result.max_throughput, kTsl, 1.0);
  // Entry keeps no state at the optimum.
  EXPECT_NEAR(result.node_stateful[s0], 0.0, 1.0);
  EXPECT_GT(result.node_stateful[sa], 0.0);
  EXPECT_GT(result.node_stateful[sb], 0.0);
}

TEST(StateModelTest, HeterogeneousForkEntryKeepsState) {
  // A beefy entry (3x capacity) over two weak exits: the optimum has the
  // entry absorbing most state (the paper's Section 6.2 observation).
  StateDistributionModel model;
  const NodeIndex s0 = model.add_node("s0", 3.0 * kTsf, 3.0 * kTsl);
  const NodeIndex sa = model.add_node("sa", kTsf, kTsl);
  const NodeIndex sb = model.add_node("sb", kTsf, kTsl);
  model.add_edge(s0, sa);
  model.add_edge(s0, sb);
  model.mark_entry(s0);
  model.mark_exit(sa);
  model.mark_exit(sb);
  model.fix_split(s0, sa, 0.5);
  model.fix_split(s0, sb, 0.5);
  const auto result = model.solve();
  ASSERT_TRUE(result.optimal());
  EXPECT_GT(result.node_stateful[s0], result.node_stateful[sa]);
  EXPECT_GT(result.max_throughput, 2.0 * kTsf);
}

TEST(StateModelTest, FlowConservationHolds) {
  StateDistributionModel model;
  const NodeIndex s1 = model.add_node("s1", kTsf, kTsl);
  const NodeIndex s2 = model.add_node("s2", kTsf, kTsl);
  model.add_edge(s1, s2);
  model.mark_entry(s1);
  model.mark_exit(s2);
  const auto result = model.solve();
  ASSERT_TRUE(result.optimal());
  // Node loads equal the admitted throughput at every node of a chain.
  EXPECT_NEAR(result.node_load[s1], result.max_throughput, 1e-6);
  EXPECT_NEAR(result.node_load[s2], result.max_throughput, 1e-6);
  // Total stateful across nodes covers every call exactly once.
  EXPECT_NEAR(result.node_stateful[s1] + result.node_stateful[s2],
              result.max_throughput, 1e-6);
}

TEST(StateModelTest, UtilizationFeasibleAtOptimum) {
  StateDistributionModel model;
  const NodeIndex s1 = model.add_node("s1", kTsf, kTsl);
  const NodeIndex s2 = model.add_node("s2", kTsf, kTsl);
  const NodeIndex s3 = model.add_node("s3", kTsf, kTsl);
  model.add_edge(s1, s2);
  model.add_edge(s2, s3);
  model.mark_entry(s1);
  model.mark_exit(s3);
  const auto result = model.solve();
  ASSERT_TRUE(result.optimal());
  const double alpha = 1.0 / kTsf;
  const double beta = 1.0 / kTsl;
  for (NodeIndex n = 0; n < 3; ++n) {
    const double sf = result.node_stateful[n];
    const double sl = result.node_load[n] - sf;
    EXPECT_LE(alpha * sf + beta * sl, 1.0 + 1e-9) << "node " << n;
  }
}

class SeriesLengthTest : public ::testing::TestWithParam<int> {};

TEST_P(SeriesLengthTest, OptimumMatchesClosedForm) {
  // N homogeneous servers in series: optimum N / (alpha + (N-1) beta);
  // approaches T_SL as N grows but never exceeds it... up to the point
  // where the budget exceeds what must be kept (N large): capped at T_SL.
  const int n = GetParam();
  StateDistributionModel model;
  std::vector<NodeIndex> nodes;
  for (int i = 0; i < n; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    nodes.push_back(model.add_node(std::move(name), kTsf, kTsl));
  }
  for (int i = 0; i + 1 < n; ++i) model.add_edge(nodes[i], nodes[i + 1]);
  model.mark_entry(nodes.front());
  model.mark_exit(nodes.back());
  const auto result = model.solve();
  ASSERT_TRUE(result.optimal());
  const double alpha = 1.0 / kTsf;
  const double beta = 1.0 / kTsl;
  const double closed_form = n / (alpha + (n - 1) * beta);
  EXPECT_NEAR(result.max_throughput, std::min(closed_form, kTsl), 2.0);
}

INSTANTIATE_TEST_SUITE_P(Lengths, SeriesLengthTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8));

}  // namespace
}  // namespace svk::lp
