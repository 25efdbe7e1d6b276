// Tests for the heterogeneous-machines adapter (related work [2]):
// speed blow-up construction, replica bookkeeping, and speed-proportional
// balancing of the padded blow-up on the ordinary Engine.
#include <gtest/gtest.h>

#include "balancers/registry.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "irregular/hetero.hpp"
#include "markov/mixing.hpp"
#include "markov/spectral.hpp"

namespace dlb {
namespace {

TEST(Hetero, BlowupSizesAndMapping) {
  const Graph g = make_cycle(4);
  const auto inst = make_hetero_instance(g, {1, 2, 3, 1});
  EXPECT_EQ(inst.blowup.num_nodes(), 7);
  EXPECT_EQ(inst.replica_of[0], 0);
  EXPECT_EQ(inst.replica_of[1], 1);
  EXPECT_EQ(inst.replica_of[2], 1);
  EXPECT_EQ(inst.replica_of[3], 2);
  EXPECT_EQ(inst.replica_of[6], 3);
  // Replica degrees: node 1's replicas see each other (1) plus all
  // replicas of neighbours 0 and 2 (1 + 3).
  EXPECT_EQ(inst.blowup.degree(1), 1 + 1 + 3);
}

TEST(Hetero, UnitSpeedsReduceToOriginalStructure) {
  const Graph g = make_cycle(6);
  const auto inst = make_hetero_instance(g, std::vector<int>(6, 1));
  EXPECT_EQ(inst.blowup.num_nodes(), 6);
  EXPECT_EQ(inst.blowup.max_degree(), 2);
}

TEST(Hetero, RejectsBadSpeeds) {
  const Graph g = make_cycle(4);
  EXPECT_THROW(make_hetero_instance(g, {1, 0, 1, 1}), invariant_error);
  EXPECT_THROW(make_hetero_instance(g, {1, 1}), invariant_error);
}

TEST(Hetero, SpreadAndCollapseRoundTrip) {
  const Graph g = make_cycle(4);
  const auto inst = make_hetero_instance(g, {1, 2, 3, 1});
  const LoadVector physical{10, 7, 11, 0};
  const LoadVector replicas = spread_to_replicas(inst, physical);
  EXPECT_EQ(total_load(replicas), 28);
  // Within a replica group loads differ by <= 1.
  EXPECT_EQ(replicas[1] + replicas[2], 7);
  EXPECT_LE(std::abs(replicas[1] - replicas[2]), 1);
  EXPECT_EQ(collapse_to_physical(inst, replicas), physical);
}

TEST(Hetero, WeightedDiscrepancyDefinition) {
  // Loads exactly proportional to speed -> 0.
  EXPECT_DOUBLE_EQ(weighted_discrepancy({10, 20, 30}, {1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(weighted_discrepancy({10, 10}, {1, 2}), 5.0);
}

TEST(Hetero, BalancesProportionallyToSpeed) {
  // Cycle of 8 machines, speeds 1..4; all load starts on one slow node.
  const Graph g = make_cycle(8);
  const std::vector<int> speeds{1, 2, 3, 4, 4, 3, 2, 1};
  const auto inst = make_hetero_instance(g, speeds);

  LoadVector physical(8, 0);
  physical[0] = 2000;  // 100 tokens per unit of speed (Σs = 20)
  const PaddedGraph padded = pad_to_regular(inst.blowup);
  auto rotor = make_balancer(Algorithm::kRotorRouter);
  Engine e(padded.graph, EngineConfig{.self_loops = padded.self_loops},
           *rotor, spread_to_replicas(inst, physical));
  const double mu = spectral_gap(padded.graph, padded.self_loops).gap;
  e.run(2 * balancing_time(inst.blowup.num_nodes(), 2000, mu));

  const LoadVector balanced = collapse_to_physical(inst, e.loads());
  EXPECT_EQ(total_load(balanced), 2000);
  // Every machine within a few tokens-per-speed of the density 100.
  EXPECT_LE(weighted_discrepancy(balanced, speeds),
            2.0 * inst.blowup.max_degree());
  for (std::size_t u = 0; u < 8; ++u) {
    const double norm = static_cast<double>(balanced[u]) / speeds[u];
    EXPECT_NEAR(norm, 100.0, 30.0) << "node " << u;
  }
}

TEST(Hetero, FastMachineEndsWithProportionallyMore) {
  const Graph g = make_torus2d(3, 3);
  std::vector<int> speeds(9, 1);
  speeds[4] = 8;  // one fast machine in the middle
  const auto inst = make_hetero_instance(g, speeds);
  LoadVector physical(9, 0);
  physical[0] = 1600;
  const PaddedGraph padded = pad_to_regular(inst.blowup);
  auto rotor = make_balancer(Algorithm::kRotorRouter);
  Engine e(padded.graph, EngineConfig{.self_loops = padded.self_loops},
           *rotor, spread_to_replicas(inst, physical));
  e.run(20000);
  const LoadVector balanced = collapse_to_physical(inst, e.loads());
  // Fast machine holds ~8x a slow machine's share (100 per speed unit).
  EXPECT_GT(balanced[4], 5 * balanced[0]);
  EXPECT_NEAR(static_cast<double>(balanced[4]), 800.0, 100.0);
}

}  // namespace
}  // namespace dlb
