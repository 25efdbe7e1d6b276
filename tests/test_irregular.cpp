// Tests for the non-regular extension: graph construction, the padding
// to a regular Graph, balancing on the ordinary Engine, and the claim
// that the regular theory carries over with d replaced by the maximum
// degree.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <numbers>

#include "analysis/experiment.hpp"
#include "balancers/registry.hpp"
#include "core/engine.hpp"
#include "dynamics/workload.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "irregular/hetero.hpp"
#include "irregular/igraph.hpp"
#include "markov/mixing.hpp"
#include "markov/spectral.hpp"
#include "util/thread_pool.hpp"

namespace dlb {
namespace {

/// An irregular graph on the ordinary Engine: padded to uniform degree D,
/// balanced by a registry algorithm at seed 0 (natural port order, every
/// rotor at 0), so the real ports come first and the padding after them.
struct PaddedRun {
  PaddedGraph padded;
  std::unique_ptr<Balancer> balancer;
  Engine engine;

  PaddedRun(const IrregularGraph& g, Algorithm a, int uniform_d_plus,
            LoadVector initial)
      : padded(pad_to_regular(g, uniform_d_plus)),
        balancer(make_balancer(a)),
        engine(padded.graph, EngineConfig{.self_loops = padded.self_loops},
               *balancer, std::move(initial)) {}
};

double padded_gap(const IrregularGraph& g, int uniform_d_plus) {
  const PaddedGraph p = pad_to_regular(g, uniform_d_plus);
  return spectral_gap(p.graph, p.self_loops).gap;
}

// ----------------------------------------------------------- builders --

TEST(IrregularGraphTest, CsrConstructionAndDegrees) {
  // Path 0-1-2 plus edge 1-3: degrees 1,3,1,1.
  const IrregularGraph g(4, {{0, 1}, {1, 2}, {1, 3}});
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(1), 3);
  EXPECT_EQ(g.max_degree(), 3);
  EXPECT_EQ(g.min_degree(), 1);
  EXPECT_EQ(g.num_edges(), 3);
}

TEST(IrregularGraphTest, RejectsBadEdges) {
  EXPECT_THROW(IrregularGraph(3, {{0, 0}}), invariant_error);   // self
  EXPECT_THROW(IrregularGraph(3, {{0, 5}}), invariant_error);   // range
  EXPECT_THROW(IrregularGraph(3, {{0, 1}}), invariant_error);   // isolated 2
}

TEST(IrregularGraphTest, Grid2dDegrees) {
  const IrregularGraph g = make_grid2d(4, 3);
  EXPECT_EQ(g.num_nodes(), 12);
  EXPECT_EQ(g.degree(0), 2);   // corner
  EXPECT_EQ(g.degree(1), 3);   // edge
  EXPECT_EQ(g.degree(5), 4);   // interior
  EXPECT_EQ(g.max_degree(), 4);
  EXPECT_EQ(g.min_degree(), 2);
}

TEST(IrregularGraphTest, WheelDegrees) {
  const IrregularGraph g = make_wheel(9);
  EXPECT_EQ(g.degree(0), 8);  // hub
  for (NodeId r = 1; r < 9; ++r) EXPECT_EQ(g.degree(r), 3);
}

TEST(IrregularGraphTest, BarbellShape) {
  const IrregularGraph g = make_barbell(4, 3);
  EXPECT_EQ(g.num_nodes(), 11);
  // Clique interiors have degree 3; the two bridge clique nodes 4.
  EXPECT_EQ(g.degree(1), 3);
  EXPECT_EQ(g.degree(0), 4);  // clique-A node carrying the path
  EXPECT_EQ(g.degree(4), 4);  // clique-B node carrying the path
  EXPECT_EQ(g.degree(8), 2);  // path node
}

TEST(IrregularGraphTest, GnpConnectedAndSeedStable) {
  const IrregularGraph a = make_gnp_connected(64, 6.0, 3);
  const IrregularGraph b = make_gnp_connected(64, 6.0, 3);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_GE(a.min_degree(), 1);
}

// ------------------------------------------------------------ padding --

TEST(PadToRegularTest, RealPortsFirstThenSelfEdgePorts) {
  // Path 0-1-2 plus edge 1-3: degrees 1,3,1,1.
  const IrregularGraph g(4, {{0, 1}, {1, 2}, {1, 3}});
  const PaddedGraph p = pad_to_regular(g, 5);
  EXPECT_EQ(p.graph.degree(), 3);
  EXPECT_EQ(p.self_loops, 2);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto real = g.neighbors(u);
    for (int port = 0; port < p.graph.degree(); ++port) {
      const NodeId want = port < g.degree(u)
                              ? real[static_cast<std::size_t>(port)]
                              : u;
      EXPECT_EQ(p.graph.neighbor(u, port), want) << u << ":" << port;
    }
  }
  // Node 0 has two padding ports (paired with each other), nodes 2 and 3
  // too; node 1 has none.
  EXPECT_EQ(p.graph.rev_port(0, 1), 2);
  EXPECT_EQ(p.graph.rev_port(0, 2), 1);
  EXPECT_EQ(verify_regular_symmetric(p.graph), 3);
}

TEST(PadToRegularTest, OddPaddingSelfPairsTheLeftoverPort) {
  // wheel(9): hub degree 8, rim degree 3 -> 5 padding ports per rim node.
  const PaddedGraph p = pad_to_regular(make_wheel(9));
  EXPECT_EQ(p.graph.degree(), 8);
  EXPECT_EQ(p.self_loops, 8);
  EXPECT_EQ(p.graph.rev_port(1, 7), 7);
  EXPECT_EQ(verify_regular_symmetric(p.graph), 8);
}

TEST(PadToRegularTest, DefaultPaddingIsTwiceMaxDegree) {
  const IrregularGraph g = make_grid2d(3, 3);
  PaddedRun run(g, Algorithm::kSendFloor, 0, LoadVector(9, 10));
  EXPECT_EQ(run.engine.balancing_degree(), 8);
}

TEST(PadToRegularTest, RejectsTooSmallD) {
  const IrregularGraph g = make_grid2d(3, 3);
  EXPECT_THROW(pad_to_regular(g, 4), invariant_error);
}

// ------------------------------------------------------------- engine --

TEST(PaddedEngineTest, ConservesTokens) {
  const IrregularGraph g = make_wheel(16);
  LoadVector init(16, 0);
  init[0] = 1600;
  PaddedRun run(g, Algorithm::kRotorRouter, 0, init);
  run.engine.run(500);
  EXPECT_EQ(total_load(run.engine.loads()), 1600);
}

TEST(PaddedEngineTest, SerialMatchesIntraRoundParallel) {
  // The row path's rev_port pull must reproduce the serial scatter
  // exactly at any thread count, on every heterogeneous family (including
  // the gnp instance, whose adjacency order is arbitrary).
  for (const IrregularGraph& g :
       {make_grid2d(6, 6), make_wheel(24), make_barbell(5, 3),
        make_gnp_connected(48, 5.0, 7)}) {
    LoadVector init(static_cast<std::size_t>(g.num_nodes()), 0);
    init[0] = 100 * g.num_nodes();
    for (int threads : {2, 8}) {
      ThreadPool pool(threads);
      for (Algorithm a : {Algorithm::kSendFloor, Algorithm::kRotorRouter}) {
        PaddedRun serial(g, a, 0, init);
        PaddedRun parallel(g, a, 0, init);
        parallel.engine.set_thread_pool(&pool);
        for (int t = 0; t < 80; ++t) {
          serial.engine.step();
          parallel.engine.step_parallel();
          ASSERT_EQ(serial.engine.loads(), parallel.engine.loads())
              << g.name() << " " << algorithm_name(a) << " threads "
              << threads << " step " << t;
        }
      }
    }
  }
}

/// FNV-1a over every round's loads (each load as 8 little-endian bytes),
/// chained across the rounds: one value pins a whole trajectory.
std::uint64_t fold_loads(const LoadVector& loads, std::uint64_t h) {
  for (Load x : loads) {
    const auto bits = static_cast<std::uint64_t>(x);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= static_cast<std::uint8_t>(bits >> (8 * byte));
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::uint64_t trajectory_hash(Engine& e, ThreadPool* pool, Step rounds) {
  e.set_thread_pool(pool);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (Step t = 0; t < rounds; ++t) {
    if (pool) {
      e.step_parallel();
    } else {
      e.step();
    }
    h = fold_loads(e.loads(), h);
  }
  return h;
}

LoadVector hashed_initial(NodeId n) {
  LoadVector init = random_initial(n, 40, /*seed=*/5);
  init[0] += 100 * n;
  return init;
}

TEST(PaddedEngineTest, ReproducesTheRecordedTwoPolicyTrajectories) {
  // 200-round trajectory hashes recorded from the dedicated two-policy
  // irregular engine (SEND(⌊x/D⌋) on every real edge; a rotor over the D
  // ports, real ones first) that the padded Engine replaced. Indexed
  // [D = default 2·max_degree, D = max_degree + 1][SEND(floor),
  // ROTOR-ROUTER]; each must come out serially and on a 3-thread pool.
  const HeteroInstance hetero =
      make_hetero_instance(make_cycle(8), {1, 2, 3, 1, 2, 1, 3, 2});
  struct Recorded {
    IrregularGraph g;
    std::uint64_t hash[2][2];
  };
  const Recorded cases[] = {
      {make_grid2d(6, 6),
       {{13896718910601086565ULL, 8551281249443291389ULL},
        {8625187222806638230ULL, 1605821337356803997ULL}}},
      {make_wheel(24),
       {{7375025293160054272ULL, 8430642591704562018ULL},
        {11042125366869903993ULL, 18078946881599449095ULL}}},
      {make_barbell(5, 3),
       {{3553892630925738868ULL, 11057472076926826392ULL},
        {6645189302119795737ULL, 3830156071412697867ULL}}},
      {make_gnp_connected(48, 5.0, 7),
       {{3342007852852969626ULL, 17232698147733816592ULL},
        {2574170249699778823ULL, 10936215476154889109ULL}}},
      {hetero.blowup,
       {{5117403099182106275ULL, 2101997335120320407ULL},
        {7558462664218201556ULL, 17403566172540891514ULL}}},
  };
  ThreadPool pool(3);
  for (const Recorded& c : cases) {
    for (int di = 0; di < 2; ++di) {
      const int d_plus = di == 0 ? 0 : c.g.max_degree() + 1;
      for (int ai = 0; ai < 2; ++ai) {
        const Algorithm a =
            ai == 0 ? Algorithm::kSendFloor : Algorithm::kRotorRouter;
        for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
          PaddedRun run(c.g, a, d_plus, hashed_initial(c.g.num_nodes()));
          EXPECT_EQ(trajectory_hash(run.engine, p, 200), c.hash[di][ai])
              << c.g.name() << " D=" << d_plus << " " << algorithm_name(a)
              << (p ? " pool" : " serial");
        }
      }
    }
  }
}

TEST(PaddedEngineTest, ReproducesTheRecordedTrajectoryUnderChurn) {
  const IrregularGraph g = make_wheel(12);
  ThreadPool pool(3);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    CounterWorkload churn({.arrival_period = 3,
                           .arrival_amount = 2,
                           .departure_period = 5,
                           .departure_amount = 1});
    churn.reset(g.num_nodes(), 0);
    PaddedRun run(g, Algorithm::kRotorRouter, 0,
                  hashed_initial(g.num_nodes()));
    run.engine.set_workload(&churn);
    EXPECT_EQ(trajectory_hash(run.engine, p, 200), 12189837287917047870ULL)
        << (p ? "pool" : "serial");
    EXPECT_EQ(run.engine.injected_total(), 1439);
    EXPECT_EQ(run.engine.consumed_total(), 319);
  }
}

class PaddedBalanceTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(PaddedBalanceTest, BalancesToUniformNotDegreeProportional) {
  // The padded chain is doubly stochastic: the balanced state is uniform
  // even though degrees differ by a factor ~n on the wheel.
  const IrregularGraph g = make_wheel(21);
  LoadVector init(21, 0);
  init[0] = 210 * 20;  // everything on the hub
  PaddedRun run(g, GetParam(), 0, init);
  run.engine.run(20000);
  const double avg = average_load(run.engine.loads());
  EXPECT_NEAR(avg, 200.0, 1e-9);
  // Every node close to the average (within ~D).
  for (Load x : run.engine.loads()) {
    EXPECT_NEAR(static_cast<double>(x), avg,
                2.0 * run.engine.balancing_degree());
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, PaddedBalanceTest,
                         ::testing::Values(Algorithm::kSendFloor,
                                           Algorithm::kRotorRouter));

TEST(PaddedEngineTest, GridBalancesWithinPaddedTheoryTime) {
  const IrregularGraph g = make_grid2d(8, 8);
  const double mu = padded_gap(g, 0);
  EXPECT_GT(mu, 0.0);
  LoadVector init(64, 0);
  init[0] = 6400;
  PaddedRun run(g, Algorithm::kRotorRouter, 0, init);
  const auto t_bal = balancing_time(64, 6400, mu);
  run.engine.run(t_bal);
  // Regular theory with d -> max_degree: O(d√(log n/µ)) envelope.
  EXPECT_LE(static_cast<double>(run.engine.discrepancy()),
            4.0 * g.max_degree() * std::sqrt(std::log(64.0) / mu));
}

TEST(PaddedEngineTest, BarbellHasTinyGapButStillBalances) {
  const IrregularGraph g = make_barbell(6, 4);
  const double mu = padded_gap(g, 0);
  // Bad conductance: the barbell's gap is far below the grid's.
  EXPECT_LT(mu, padded_gap(make_grid2d(4, 4), 0));
  LoadVector init(static_cast<std::size_t>(g.num_nodes()), 0);
  init[0] = 160 * g.num_nodes();
  PaddedRun run(g, Algorithm::kRotorRouter, 0, init);
  run.engine.run(balancing_time(g.num_nodes(), total_load(init), mu));
  EXPECT_LE(run.engine.discrepancy(), 3 * g.max_degree());
}

TEST(IrregularSpectral, MatchesRegularFormulaOnRegularInstance) {
  // A cycle fed through the irregular machinery must reproduce the
  // regular analytic λ₂ (with D = 4 ⇔ d° = 2).
  std::vector<std::pair<NodeId, NodeId>> edges;
  const NodeId n = 24;
  for (NodeId u = 0; u < n; ++u) {
    edges.emplace_back(std::min(u, (u + 1) % n), std::max(u, (u + 1) % n));
  }
  const IrregularGraph g(n, edges, "cycle-as-igraph");
  const double mu = padded_gap(g, 4);
  const double expected =
      1.0 - (2.0 + 2.0 * std::cos(2.0 * std::numbers::pi / n)) / 4.0;
  EXPECT_NEAR(mu, expected, 1e-7);
}

}  // namespace
}  // namespace dlb
