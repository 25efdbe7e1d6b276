// Class-membership tests: the auditor verifies, on live runs, that each
// implemented algorithm belongs to the class the paper assigns to it
// (Observations 2.2 and 3.2), and that the deliberate outliers do not.
#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "analysis/experiment.hpp"
#include "balancers/fixed_priority.hpp"
#include "balancers/randomized_extra.hpp"
#include "balancers/randomized_rounding.hpp"
#include "balancers/registry.hpp"
#include "balancers/rotor_router.hpp"
#include "balancers/rotor_router_star.hpp"
#include "balancers/send_floor.hpp"
#include "balancers/send_round.hpp"
#include "core/fairness.hpp"
#include "core/flow_tracker.hpp"
#include "graph/generators.hpp"
#include "util/assertions.hpp"

namespace dlb {
namespace {

/// Runs `steps` rounds of `balancer` from a rough random initial load and
/// returns the audited fairness report.
FairnessReport audit(const Graph& g, int d_loops, Balancer& balancer,
                     Step steps, std::uint64_t seed = 31) {
  Engine e(g, EngineConfig{.self_loops = d_loops}, balancer,
           random_initial(g.num_nodes(), 50 * g.degree(), seed));
  FairnessAuditor auditor;
  e.add_observer(auditor);
  e.run(steps);
  return auditor.report();
}

// ------------------------------------------- Observation 2.2: SEND(...) --

TEST(Fairness, SendFloorIsCumulativelyZeroFair) {
  const Graph g = make_torus2d(5, 5);
  SendFloor b;
  const auto rep = audit(g, g.degree(), b, 400);
  EXPECT_EQ(rep.observed_delta, 0);
  EXPECT_TRUE(rep.floor_condition_ok);
  EXPECT_FALSE(rep.negative_seen);
  EXPECT_LT(rep.max_remainder, 2 * g.degree());  // r < d⁺
}

TEST(Fairness, SendRoundIsCumulativelyZeroFair) {
  const Graph g = make_torus2d(5, 5);
  SendRound b;
  const auto rep = audit(g, g.degree(), b, 400);
  EXPECT_EQ(rep.observed_delta, 0);
  EXPECT_TRUE(rep.floor_condition_ok);
  EXPECT_TRUE(rep.round_fair);
  EXPECT_FALSE(rep.negative_seen);
}

TEST(Fairness, SendFloorIsNotRoundFairButRespectsFloor) {
  // SendFloor keeps up to d⁺−1 tokens as the remainder — all ports get
  // exactly the floor share, which *is* round-fair.
  const Graph g = make_cycle(9);
  SendFloor b;
  const auto rep = audit(g, 2, b, 300);
  EXPECT_TRUE(rep.round_fair);
  EXPECT_EQ(rep.observed_s, 0);  // never prefers a self-loop
}

// ------------------------------------- Observation 2.2: ROTOR-ROUTER --

class RotorFairnessTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RotorFairnessTest, RotorRouterIsCumulativelyOneFair) {
  const Graph g = make_hypercube(5);
  RotorRouter b(GetParam());
  const auto rep = audit(g, g.degree(), b, 500, /*seed=*/GetParam() + 7);
  EXPECT_LE(rep.observed_delta, 1);
  EXPECT_TRUE(rep.floor_condition_ok);
  EXPECT_TRUE(rep.round_fair);
  EXPECT_FALSE(rep.negative_seen);
  EXPECT_EQ(rep.max_remainder, 0);  // rotor deals out every token
}

INSTANTIATE_TEST_SUITE_P(Seeds, RotorFairnessTest,
                         ::testing::Values<std::uint64_t>(0, 1, 42, 4711));

TEST(Fairness, RotorRouterOneFairOnCycleToo) {
  const Graph g = make_cycle(17);
  RotorRouter b(3);
  const auto rep = audit(g, 2, b, 1000);
  EXPECT_LE(rep.observed_delta, 1);
  EXPECT_TRUE(rep.round_fair);
}

// --------------------------------- Observation 3.2: good s-balancers --

TEST(Fairness, RotorRouterStarIsGoodOneBalancer) {
  const Graph g = make_torus2d(5, 5);
  RotorRouterStar b(11);
  const auto rep = audit(g, g.degree(), b, 600);
  EXPECT_LE(rep.observed_delta, 1);   // cumulatively 1-fair
  EXPECT_TRUE(rep.floor_condition_ok);
  EXPECT_TRUE(rep.round_fair);
  EXPECT_GE(rep.observed_s, 1);       // 1-self-preferring
}

TEST(Fairness, SendRoundIsGoodBalancerForThreeD) {
  // d⁺ = 3d: guaranteed s = ⌈d/2⌉ by the implementation analysis.
  const Graph g = make_torus2d(5, 5);
  const int d = g.degree();
  SendRound b;
  Engine e(g, EngineConfig{.self_loops = 2 * d}, b,
           random_initial(g.num_nodes(), 200, 3));
  FairnessAuditor auditor;
  e.add_observer(auditor);
  e.run(600);
  const auto rep = auditor.report();
  EXPECT_TRUE(rep.round_fair);
  EXPECT_EQ(rep.observed_delta, 0);
  EXPECT_GE(rep.observed_s, b.guaranteed_s());
  EXPECT_GE(b.guaranteed_s(), (3 * d - 2 * d + 1) / 2);
}

TEST(Fairness, SendRoundGuaranteedSFormula) {
  const Graph g = make_hypercube(4);  // d = 4
  SendRound b;
  b.reset(g, 4);   // d⁺ = 2d -> s = 0
  EXPECT_EQ(b.guaranteed_s(), 0);
  b.reset(g, 5);   // d⁺ = 2d+1 -> s = ceil(1/2) = 1
  EXPECT_EQ(b.guaranteed_s(), 1);
  b.reset(g, 8);   // d⁺ = 3d -> s = ceil(d/2) = 2
  EXPECT_EQ(b.guaranteed_s(), 2);
}

// ------------------------------------------------- negative controls --

TEST(Fairness, FixedPriorityViolatesCumulativeFairness) {
  // Round-fair ([17]-class) but the cumulative imbalance grows with t.
  const Graph g = make_cycle(16);
  FixedPriority b;
  const auto rep = audit(g, 2, b, 2000);
  EXPECT_TRUE(rep.round_fair);
  EXPECT_TRUE(rep.floor_condition_ok);
  EXPECT_GT(rep.observed_delta, 10);  // unbounded in t; far beyond O(1)
}

TEST(Fairness, FixedPriorityDeltaGrowsWithTime) {
  const Graph g = make_cycle(16);
  FixedPriority b1, b2;
  const auto short_run = audit(g, 2, b1, 200);
  const auto long_run = audit(g, 2, b2, 4000);
  EXPECT_GT(long_run.observed_delta, short_run.observed_delta);
}

TEST(Fairness, RandomizedExtraIsNotRoundFair) {
  const Graph g = make_torus2d(5, 5);
  RandomizedExtra b(99);
  const auto rep = audit(g, g.degree(), b, 500);
  EXPECT_FALSE(rep.round_fair);  // one port can draw several extras
  EXPECT_TRUE(rep.floor_condition_ok);
  EXPECT_FALSE(rep.negative_seen);
}

TEST(Fairness, RandomizedRoundingGoesNegative) {
  // The [18] scheme oversubscribes low-load nodes; with a near-empty
  // initial load negative remainders appear quickly.
  const Graph g = make_torus2d(5, 5);
  RandomizedRounding b(5);
  Engine e(g, EngineConfig{.self_loops = g.degree()}, b,
           point_mass_initial(g.num_nodes(), 40));
  FairnessAuditor auditor;
  e.add_observer(auditor);
  e.run(300);
  EXPECT_TRUE(auditor.report().negative_seen);
  EXPECT_LT(e.min_load_seen(), 0);
}

TEST(Fairness, ReusedAuditorRejectsARunOfAnotherShape) {
  // The auditor sizes its cumulative rows on its first step. Attached to
  // a second engine over a smaller graph (or another d°) it must refuse
  // the step rather than read past the smaller round's flow matrix.
  FairnessAuditor auditor;
  const Graph big = make_cycle(64);
  SendFloor b1;
  Engine first(big, EngineConfig{.self_loops = 2}, b1,
               random_initial(big.num_nodes(), 100, 3));
  first.add_observer(auditor);
  first.run(3);
  ASSERT_EQ(auditor.report().steps, 3);

  const Graph small = make_cycle(16);
  SendFloor b2;
  Engine second(small, EngineConfig{.self_loops = 2}, b2,
                random_initial(small.num_nodes(), 100, 3));
  second.add_observer(auditor);
  EXPECT_THROW(second.step(), invariant_error);

  SendFloor b3;
  Engine more_loops(big, EngineConfig{.self_loops = 3}, b3,
                    random_initial(big.num_nodes(), 100, 3));
  more_loops.add_observer(auditor);
  EXPECT_THROW(more_loops.step(), invariant_error);
  EXPECT_EQ(auditor.report().steps, 3);
}

// ----------------------------------------------------- flow tracker --

TEST(FlowTracker, CumulativeFlowsMatchHandComputation) {
  // Cycle of 3, SendFloor with d° = 1 (d⁺ = 3): node with load 5 sends 1
  // per port each step until loads change.
  const Graph g = make_cycle(3);
  SendFloor b;
  Engine e(g, EngineConfig{.self_loops = 1}, b, LoadVector{5, 5, 5});
  FlowTracker tracker;
  e.add_observer(tracker);
  e.step();
  // Every node: q = ⌊5/3⌋ = 1 per port, remainder 2; loads stay 5.
  for (NodeId u = 0; u < 3; ++u) {
    EXPECT_EQ(tracker.cumulative(u, 0), 1);
    EXPECT_EQ(tracker.cumulative(u, 1), 1);
    EXPECT_EQ(tracker.cumulative_self_loop(u, 0), 1);
    EXPECT_EQ(tracker.cumulative_out(u), 3);
  }
  e.step();
  EXPECT_EQ(tracker.cumulative(0, 0), 2);
  EXPECT_EQ(tracker.steps_observed(), 2);
  EXPECT_EQ(tracker.max_edge_imbalance(), 0);
}

TEST(FlowTracker, EdgeImbalanceSeesRotorStagger) {
  const Graph g = make_cycle(5);
  RotorRouter b(0);
  Engine e(g, EngineConfig{.self_loops = 2}, b,
           random_initial(g.num_nodes(), 40, 8));
  FlowTracker tracker;
  e.add_observer(tracker);
  e.run(200);
  EXPECT_LE(tracker.max_edge_imbalance(), 1);
}

// ------------------------------------------------------- registry --

TEST(Registry, AllAlgorithmsInstantiable) {
  for (Algorithm a : all_algorithms()) {
    auto b = make_balancer(a, 1);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->name(), algorithm_name(a));
  }
}

TEST(Registry, SelfLoopRequirements) {
  EXPECT_EQ(min_self_loops(Algorithm::kSendFloor, 4), 0);
  EXPECT_EQ(min_self_loops(Algorithm::kSendRound, 4), 4);
  EXPECT_EQ(min_self_loops(Algorithm::kRotorRouterStar, 6), 6);
  EXPECT_TRUE(requires_exact_d_loops(Algorithm::kRotorRouterStar));
  EXPECT_FALSE(requires_exact_d_loops(Algorithm::kRotorRouter));
}

TEST(Registry, RotorRouterStarRejectsWrongLoopCount) {
  const Graph g = make_torus2d(4, 4);
  RotorRouterStar b;
  EXPECT_THROW(b.reset(g, 3), invariant_error);
  EXPECT_THROW(b.reset(g, 5), invariant_error);
  EXPECT_NO_THROW(b.reset(g, 4));
}

TEST(Registry, SendRoundRejectsTooFewLoops) {
  const Graph g = make_torus2d(4, 4);
  SendRound b;
  EXPECT_THROW(b.reset(g, 2), invariant_error);
}

// -------------------------------------- determinism of randomized algos --

TEST(Determinism, RandomizedAlgorithmsAreSeedReproducible) {
  const Graph g = make_hypercube(4);
  for (Algorithm a : {Algorithm::kRandomizedExtra,
                      Algorithm::kRandomizedRounding,
                      Algorithm::kRotorRouter}) {
    auto b1 = make_balancer(a, 777);
    auto b2 = make_balancer(a, 777);
    Engine e1(g, EngineConfig{.self_loops = 4}, *b1,
              point_mass_initial(g.num_nodes(), 4096));
    Engine e2(g, EngineConfig{.self_loops = 4}, *b2,
              point_mass_initial(g.num_nodes(), 4096));
    e1.run(100);
    e2.run(100);
    EXPECT_EQ(e1.loads(), e2.loads()) << algorithm_name(a);
  }
}

TEST(Determinism, DifferentSeedsDivergeForRandomized) {
  const Graph g = make_hypercube(4);
  auto b1 = make_balancer(Algorithm::kRandomizedExtra, 1);
  auto b2 = make_balancer(Algorithm::kRandomizedExtra, 2);
  Engine e1(g, EngineConfig{.self_loops = 4}, *b1,
            point_mass_initial(g.num_nodes(), 4096));
  Engine e2(g, EngineConfig{.self_loops = 4}, *b2,
            point_mass_initial(g.num_nodes(), 4096));
  e1.run(50);
  e2.run(50);
  EXPECT_NE(e1.loads(), e2.loads());
}

}  // namespace
}  // namespace dlb
