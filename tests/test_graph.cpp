// Unit tests for graph construction, generators, and structural
// properties (diameter, odd girth, bipartiteness).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/properties.hpp"
#include "graph/topology.hpp"
#include "util/assertions.hpp"

namespace dlb {
namespace {

// -------------------------------------------------------- construction --

TEST(Graph, RejectsAsymmetricEdgeMultiset) {
  // 0->1, 1->2, 2->0 directed triangle is not symmetric.
  EXPECT_THROW(Graph(3, 1, {1, 2, 0}), invariant_error);
}

TEST(Graph, RejectsSelfEdges) {
  EXPECT_THROW(Graph(2, 2, {0, 1, 0, 1}), invariant_error);
}

TEST(Graph, RejectsOutOfRangeNeighbors) {
  EXPECT_THROW(Graph(2, 1, {1, 5}), invariant_error);
}

TEST(Graph, RejectsWrongAdjacencySize) {
  EXPECT_THROW(Graph(3, 2, {1, 2, 0}), invariant_error);
}

TEST(Graph, ReversePortInvolutionOnTriangle) {
  // Symmetric triangle, d = 2.
  const Graph g(3, 2, {1, 2, 0, 2, 1, 0});
  EXPECT_EQ(verify_regular_symmetric(g), 2);
}

TEST(Graph, ParallelEdgesPairedConsistently) {
  // Two nodes joined by two parallel edges (d = 2 multigraph).
  const Graph g(2, 2, {1, 1, 0, 0});
  EXPECT_TRUE(g.has_parallel_edges());
  EXPECT_EQ(verify_regular_symmetric(g), 2);
}

TEST(Graph, OddSelfPortCountPairsTheLeftoverPortWithItself) {
  // One self-port per node: the lone port is its own reverse.
  const Graph one(2, 2, {0, 1, 0, 1}, "one self-port", true);
  EXPECT_EQ(one.rev_port(0, 0), 0);
  EXPECT_EQ(one.rev_port(1, 1), 1);
  EXPECT_EQ(one.rev_port(0, 1), 0);
  EXPECT_EQ(verify_regular_symmetric(one), 2);
  // Three self-ports: the first two pair, the third is self-paired.
  const std::vector<NodeId> adj{1, 0, 0, 0, 0, 1, 1, 1};
  const Graph three(2, 4, adj, "three self-ports", true);
  EXPECT_EQ(three.rev_port(0, 1), 2);
  EXPECT_EQ(three.rev_port(0, 2), 1);
  EXPECT_EQ(three.rev_port(0, 3), 3);
  EXPECT_EQ(three.rev_port(1, 3), 3);
  EXPECT_EQ(three.rev_port(0, 0), 0);
  EXPECT_EQ(verify_regular_symmetric(three), 4);
  // Without the opt-in the same adjacency is still rejected.
  EXPECT_THROW(Graph(2, 4, adj), invariant_error);
}

/// FNV-1a over every reverse-port entry, in layout order.
std::uint64_t rev_port_hash(const Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (int p = 0; p < g.degree(); ++p) {
      const auto v = static_cast<std::uint32_t>(g.rev_port(u, p));
      for (int byte = 0; byte < 4; ++byte) {
        h ^= static_cast<std::uint8_t>(v >> (8 * byte));
        h *= 0x100000001b3ULL;
      }
    }
  }
  return h;
}

TEST(Graph, ReversePortTablesArePinnedPerFamily) {
  // Pinned reverse-port tables of every generator family. The pairing
  // rule — the k-th u→v copy pairs with the k-th v→u copy, self-edge
  // ports pair consecutively in port order — fixes which parallel edge a
  // flow returns on, so any change to it moves these hashes.
  struct Case {
    const char* what;
    Graph g;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {"cycle 7", make_cycle(7), 2975428403122310404ULL},
      {"torus 4x5", make_torus2d(4, 5), 3714102980778008613ULL},
      {"torus 3x4x5", make_torus({3, 4, 5}), 13244463086040309989ULL},
      {"hypercube 5", make_hypercube(5), 11009810286737080613ULL},
      {"complete 6", make_complete(6), 11038465375673807141ULL},
      {"circulant 10 {1,2,5}", make_circulant(10, {1, 2, 5}),
       628106132010063493ULL},
      {"clique-circulant 12/5", make_clique_circulant(12, 5),
       4621248547570876005ULL},
      {"de Bruijn 2^4", make_debruijn(2, 4), 1743707800243811141ULL},
      {"de Bruijn 3^3", make_debruijn(3, 3), 6348755677132059844ULL},
      {"Petersen", make_petersen(), 8736563879902632693ULL},
      {"K_{4,4}", make_complete_bipartite(4), 9083288107186708901ULL},
      {"Margulis 5", make_margulis(5), 6019786755181796133ULL},
      {"Margulis 8", make_margulis(8), 11858406337278460709ULL},
      {"random regular 50/4", make_random_regular(50, 4, 3),
       9742316308484407813ULL},
      {"random regular 64/3", make_random_regular(64, 3, 7),
       13633233997594750853ULL},
      {"two-node parallel edges", Graph(2, 2, {1, 1, 0, 0}),
       3663476130010556485ULL},
      {"two-node parallel and self edges",
       Graph(2, 4, {0, 1, 0, 1, 1, 0, 0, 1}, "multi", true),
       15336147123399314949ULL},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(rev_port_hash(c.g), c.hash) << c.what;
    EXPECT_EQ(verify_regular_symmetric(c.g), c.g.degree()) << c.what;
  }
}

TEST(Graph, AdjacencyFingerprintIsPinnedPerFamily) {
  // Snapshots persist this value and restores compare it, so it is part
  // of the v1 image format: FNV-1a over each adjacency entry's four
  // little-endian bytes, in layout order. These are the values of the
  // per-capture hash the cached fingerprint replaced.
  struct Case {
    const char* what;
    Graph g;
    std::uint64_t fingerprint;
  };
  const Case cases[] = {
      {"cycle 7", make_cycle(7), 16136990045192757173ULL},
      {"torus 4x5", make_torus2d(4, 5), 14068901007120539365ULL},
      {"torus 3x4x5", make_torus({3, 4, 5}), 11129663607954849829ULL},
      {"hypercube 5", make_hypercube(5), 17844709001965977253ULL},
      {"complete 6", make_complete(6), 903228931734833732ULL},
      {"circulant 10 {1,2,5}", make_circulant(10, {1, 2, 5}),
       5415083220845017764ULL},
      {"clique-circulant 12/5", make_clique_circulant(12, 5),
       5274767261261433125ULL},
      {"de Bruijn 2^4", make_debruijn(2, 4), 2810269463883776805ULL},
      {"de Bruijn 3^3", make_debruijn(3, 3), 17919115395678007605ULL},
      {"Petersen", make_petersen(), 13354754050306353396ULL},
      {"K_{4,4}", make_complete_bipartite(4), 13852296491147416357ULL},
      {"Margulis 5", make_margulis(5), 12799991646864143557ULL},
      {"Margulis 8", make_margulis(8), 10814164660555737893ULL},
      {"random regular 50/4", make_random_regular(50, 4, 3),
       9636605914920067733ULL},
      {"random regular 64/3", make_random_regular(64, 3, 7),
       8568282411331923109ULL},
      {"two-node parallel edges", Graph(2, 2, {1, 1, 0, 0}),
       3343233955132900565ULL},
      {"two-node parallel and self edges",
       Graph(2, 4, {0, 1, 0, 1, 1, 0, 0, 1}, "multi", true),
       16783330283426485717ULL},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    // The untagged twin shares the tables, so it shares the value; a
    // fresh copy taken before the first call computes it on its own.
    const Graph fresh = c.g;
    EXPECT_EQ(c.g.without_structure().adjacency_fingerprint(), c.fingerprint);
    EXPECT_EQ(c.g.adjacency_fingerprint(), c.fingerprint);
    EXPECT_EQ(fresh.adjacency_fingerprint(), c.fingerprint);
    if (c.g.structure().kind != GraphStructure::kGeneric) {
      // The implicit graph hashes the table it would hold.
      const Graph implicit = Graph::implicit(c.g.num_nodes(), c.g.degree(),
                                             c.g.name(), c.g.structure());
      EXPECT_EQ(implicit.adjacency_fingerprint(), c.fingerprint);
    }
  }
}

TEST(Graph, AdjacencyFingerprintSurvivesCopiesMovesAndRacingFirstCalls) {
  const std::uint64_t expected = make_torus2d(4, 5).adjacency_fingerprint();

  Graph cached = make_torus2d(4, 5);
  ASSERT_EQ(cached.adjacency_fingerprint(), expected);
  const Graph copy = cached;
  Graph assigned = make_cycle(3);
  assigned = cached;
  const Graph moved = std::move(cached);
  EXPECT_EQ(copy.adjacency_fingerprint(), expected);
  EXPECT_EQ(assigned.adjacency_fingerprint(), expected);
  EXPECT_EQ(moved.adjacency_fingerprint(), expected);

  // Eight threads race the first call on fresh graphs, table-backed and
  // implicit: every caller gets the one value (the TSan job runs this).
  const Graph implicit = Graph::implicit(
      20, 4, "torus 4x5", StructureInfo{GraphStructure::kTorus, {4, 5}});
  for (const bool use_implicit : {false, true}) {
    const Graph table = make_torus2d(4, 5);
    const Graph racer = use_implicit ? implicit : table;
    std::atomic<int> ready{0};
    std::vector<std::uint64_t> seen(8, 0);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < seen.size(); ++i) {
      threads.emplace_back([&, i] {
        ready.fetch_add(1);
        while (ready.load() < static_cast<int>(seen.size())) {
        }
        seen[i] = racer.adjacency_fingerprint();
      });
    }
    for (std::thread& t : threads) t.join();
    for (const std::uint64_t h : seen) EXPECT_EQ(h, expected);
  }
}

// ---------------------------------------------------------- generators --

TEST(Generators, CycleStructure) {
  const Graph g = make_cycle(7);
  EXPECT_EQ(g.num_nodes(), 7);
  EXPECT_EQ(g.degree(), 2);
  EXPECT_EQ(g.neighbor(0, 0), 1);
  EXPECT_EQ(g.neighbor(0, 1), 6);
  EXPECT_EQ(verify_regular_symmetric(g), 2);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, CycleTooSmallThrows) {
  EXPECT_THROW(make_cycle(2), invariant_error);
}

TEST(Generators, Torus2dStructure) {
  const Graph g = make_torus2d(4, 5);
  EXPECT_EQ(g.num_nodes(), 20);
  EXPECT_EQ(g.degree(), 4);
  EXPECT_EQ(verify_regular_symmetric(g), 4);
  EXPECT_TRUE(is_connected(g));
  EXPECT_FALSE(g.has_parallel_edges());
}

TEST(Generators, Torus3dStructure) {
  const Graph g = make_torus({3, 4, 5});
  EXPECT_EQ(g.num_nodes(), 60);
  EXPECT_EQ(g.degree(), 6);
  EXPECT_EQ(verify_regular_symmetric(g), 6);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, HypercubeStructure) {
  const Graph g = make_hypercube(4);
  EXPECT_EQ(g.num_nodes(), 16);
  EXPECT_EQ(g.degree(), 4);
  EXPECT_EQ(verify_regular_symmetric(g), 4);
  EXPECT_TRUE(is_connected(g));
  // Neighbors differ in exactly one bit.
  for (NodeId u = 0; u < 16; ++u) {
    for (NodeId v : g.neighbors(u)) {
      EXPECT_EQ(__builtin_popcount(static_cast<unsigned>(u ^ v)), 1);
    }
  }
}

TEST(Generators, CompleteStructure) {
  const Graph g = make_complete(6);
  EXPECT_EQ(g.degree(), 5);
  EXPECT_EQ(verify_regular_symmetric(g), 5);
  for (NodeId u = 0; u < 6; ++u) {
    std::set<NodeId> nb(g.neighbors(u).begin(), g.neighbors(u).end());
    EXPECT_EQ(nb.size(), 5u);
    EXPECT_EQ(nb.count(u), 0u);
  }
}

TEST(Generators, CirculantStructure) {
  const Graph g = make_circulant(10, {1, 3});
  EXPECT_EQ(g.degree(), 4);
  EXPECT_EQ(verify_regular_symmetric(g), 4);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, CirculantDiametralOffsetGivesSingleEdge) {
  const Graph g = make_circulant(10, {1, 5});
  EXPECT_EQ(g.degree(), 3);  // offset 5 == n/2 contributes one edge
  EXPECT_EQ(verify_regular_symmetric(g), 3);
}

TEST(Generators, CirculantRejectsBadOffsets) {
  EXPECT_THROW(make_circulant(10, {0}), invariant_error);
  EXPECT_THROW(make_circulant(10, {6}), invariant_error);
  EXPECT_THROW(make_circulant(10, {2, 2}), invariant_error);
}

TEST(Generators, CliqueCirculantHasClique) {
  const Graph g = make_clique_circulant(32, 8);
  EXPECT_EQ(g.degree(), 8);
  EXPECT_EQ(verify_regular_symmetric(g), 8);
  // First ⌊d/2⌋ = 4 nodes form a clique.
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = 0; v < 4; ++v) {
      if (u == v) continue;
      const auto nb = g.neighbors(u);
      EXPECT_NE(std::find(nb.begin(), nb.end(), v), nb.end())
          << u << " not adjacent to " << v;
    }
  }
}

TEST(Generators, CliqueCirculantOddDegreeNeedsEvenN) {
  EXPECT_NO_THROW(make_clique_circulant(32, 5));
  EXPECT_THROW(make_clique_circulant(31, 5), invariant_error);
}

class RandomRegularTest
    : public ::testing::TestWithParam<std::tuple<NodeId, int>> {};

TEST_P(RandomRegularTest, ProducesSimpleRegularConnectedGraph) {
  const auto [n, d] = GetParam();
  const Graph g = make_random_regular(n, d, /*seed=*/99);
  EXPECT_EQ(g.num_nodes(), n);
  EXPECT_EQ(g.degree(), d);
  EXPECT_EQ(verify_regular_symmetric(g), d);
  EXPECT_FALSE(g.has_parallel_edges());
  // No self-edges is enforced by the Graph constructor; also check
  // distinct neighbors (simple graph).
  for (NodeId u = 0; u < n; ++u) {
    std::set<NodeId> nb(g.neighbors(u).begin(), g.neighbors(u).end());
    EXPECT_EQ(nb.size(), static_cast<std::size_t>(d));
  }
  EXPECT_TRUE(is_connected(g));  // holds w.h.p.; seed fixed so it's stable
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RandomRegularTest,
    ::testing::Values(std::make_tuple(16, 3), std::make_tuple(64, 4),
                      std::make_tuple(128, 8), std::make_tuple(256, 16),
                      std::make_tuple(100, 5)));

TEST(Generators, RandomRegularDeterministicInSeed) {
  const Graph a = make_random_regular(64, 6, 1234);
  const Graph b = make_random_regular(64, 6, 1234);
  for (NodeId u = 0; u < 64; ++u) {
    const auto na = a.neighbors(u);
    const auto nb = b.neighbors(u);
    EXPECT_TRUE(std::equal(na.begin(), na.end(), nb.begin()));
  }
}

TEST(Generators, RandomRegularRejectsOddTotalDegree) {
  EXPECT_THROW(make_random_regular(5, 3, 1), invariant_error);
}

// ---------------------------------------------------- implicit topology --

/// Exhaustive check that a tagged graph's implicit arithmetic — both the
/// random-access trait calls and the ascending-sweep cursors — agrees
/// with the built adjacency/rev tables on every (node, port). This is
/// the generator-side counterpart of the constructor's own verification.
void expect_topology_matches_tables(const Graph& g) {
  with_topology(g, [&](const auto& topo) {
    ASSERT_EQ(topo.degree(), g.degree()) << g.name();
    auto cur = topo.cursor(0);
    for (NodeId u = 0; u < g.num_nodes(); ++u, cur.advance()) {
      for (int p = 0; p < g.degree(); ++p) {
        ASSERT_EQ(topo.neighbor(u, p), g.neighbor(u, p))
            << g.name() << " node " << u << " port " << p;
        ASSERT_EQ(topo.rev_port(u, p), g.rev_port(u, p))
            << g.name() << " node " << u << " port " << p;
        ASSERT_EQ(cur.neighbor(p), g.neighbor(u, p))
            << g.name() << " cursor at node " << u << " port " << p;
        ASSERT_EQ(cur.rev_port(p), g.rev_port(u, p))
            << g.name() << " cursor at node " << u << " port " << p;
      }
    }
  });
}

TEST(Topology, GeneratorTagsMatchTablesExhaustively) {
  for (NodeId n : {3, 4, 5, 7, 16, 33}) {
    const Graph g = make_cycle(n);
    EXPECT_EQ(g.structure().kind, GraphStructure::kCycle) << g.name();
    expect_topology_matches_tables(g);
  }
  for (const std::vector<NodeId>& extents :
       {std::vector<NodeId>{5}, {3, 4}, {4, 3, 5}, {3, 3, 3, 3}}) {
    const Graph g = make_torus(extents);
    EXPECT_EQ(g.structure().kind, GraphStructure::kTorus) << g.name();
    EXPECT_EQ(g.structure().extents, extents) << g.name();
    expect_topology_matches_tables(g);
  }
  for (int dim : {1, 2, 3, 4, 7, 10}) {
    const Graph g = make_hypercube(dim);
    EXPECT_EQ(g.structure().kind, GraphStructure::kHypercube) << g.name();
    expect_topology_matches_tables(g);
  }
}

TEST(Topology, UntaggedGeneratorsStayGeneric) {
  EXPECT_EQ(make_complete(5).structure().kind, GraphStructure::kGeneric);
  EXPECT_EQ(make_petersen().structure().kind, GraphStructure::kGeneric);
  EXPECT_EQ(make_circulant(10, {1, 2}).structure().kind,
            GraphStructure::kGeneric);
}

TEST(Topology, WithoutStructureStripsTheTagButKeepsTheTables) {
  const Graph g = make_torus2d(4, 5);
  const Graph stripped = g.without_structure();
  EXPECT_EQ(stripped.structure().kind, GraphStructure::kGeneric);
  EXPECT_EQ(stripped.num_nodes(), g.num_nodes());
  EXPECT_EQ(stripped.degree(), g.degree());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (int p = 0; p < g.degree(); ++p) {
      EXPECT_EQ(stripped.neighbor(u, p), g.neighbor(u, p));
      EXPECT_EQ(stripped.rev_port(u, p), g.rev_port(u, p));
    }
  }
}

TEST(Topology, MisTaggedAdjacencyThrowsAtConstruction) {
  // A 6-cycle's adjacency tagged as a hypercube (wrong n-vs-d relation).
  std::vector<NodeId> cyc6 = {1, 5, 2, 0, 3, 1, 4, 2, 5, 3, 0, 4};
  EXPECT_THROW(Graph(6, 2, cyc6, "bogus", false,
                     StructureInfo{GraphStructure::kHypercube, {}}),
               invariant_error);
  // Right parameter shape, wrong formula: a circulant with offset 2 is
  // 2-regular on 6 nodes but is not C_6.
  std::vector<NodeId> circ2 = {2, 4, 3, 5, 4, 0, 5, 1, 0, 2, 1, 3};
  EXPECT_THROW(Graph(6, 2, circ2, "bogus", false,
                     StructureInfo{GraphStructure::kCycle, {}}),
               invariant_error);
  // Torus tag whose extents do not multiply to n.
  std::vector<NodeId> cyc6_again = cyc6;
  EXPECT_THROW(Graph(6, 2, cyc6_again, "bogus", false,
                     StructureInfo{GraphStructure::kTorus, {3, 3}}),
               invariant_error);
}

TEST(Topology, FastDivU32MatchesHardwareDivision) {
  for (std::uint32_t d : {1u, 2u, 3u, 5u, 7u, 12u, 100u, 1023u, 1024u,
                          1025u, 999983u, (1u << 26)}) {
    const FastDivU32 fd(d);
    for (std::uint32_t x : {0u, 1u, d - 1, d, d + 1, 2 * d, 12345u,
                            (1u << 20), (1u << 26) - 1, 0x7fffffffu,
                            0xffffffffu}) {
      EXPECT_EQ(fd.quot(x), x / d) << x << " / " << d;
    }
  }
}

// ---------------------------------------------------------- properties --

TEST(Properties, BfsDistancesOnCycle) {
  const Graph g = make_cycle(8);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[0], 0);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[4], 4);
  EXPECT_EQ(dist[7], 1);
}

TEST(Properties, DiameterOfKnownFamilies) {
  EXPECT_EQ(diameter(make_cycle(9)), 4);
  EXPECT_EQ(diameter(make_cycle(10)), 5);
  EXPECT_EQ(diameter(make_hypercube(5)), 5);
  EXPECT_EQ(diameter(make_torus2d(4, 4)), 4);
  EXPECT_EQ(diameter(make_complete(7)), 1);
}

TEST(Properties, BipartitenessOfKnownFamilies) {
  EXPECT_TRUE(is_bipartite(make_cycle(8)));
  EXPECT_FALSE(is_bipartite(make_cycle(9)));
  EXPECT_TRUE(is_bipartite(make_hypercube(4)));
  EXPECT_FALSE(is_bipartite(make_complete(3)));
}

TEST(Properties, OddGirthOfKnownFamilies) {
  EXPECT_FALSE(odd_girth(make_cycle(8)).has_value());
  EXPECT_EQ(odd_girth(make_cycle(9)).value(), 9);
  EXPECT_EQ(odd_girth_phi(make_cycle(9)).value(), 4);
  EXPECT_EQ(odd_girth(make_complete(5)).value(), 3);
  EXPECT_FALSE(odd_girth(make_hypercube(3)).has_value());
}

TEST(Properties, OddGirthOfCirculant) {
  // circulant(12, {2}) is two disjoint 6-cycles — disconnected and even;
  // circulant(12, {1, 2}) contains triangles (0-1-2-0 via offsets 1,1,2).
  EXPECT_EQ(odd_girth(make_circulant(12, {1, 2})).value(), 3);
}

TEST(Properties, EccentricityMatchesDiameterOnVertexTransitive) {
  const Graph g = make_cycle(11);
  EXPECT_EQ(eccentricity(g, 0), 5);
  EXPECT_EQ(eccentricity(g, 7), 5);
}

class DiameterParamTest : public ::testing::TestWithParam<NodeId> {};

TEST_P(DiameterParamTest, CycleDiameterFormula) {
  const NodeId n = GetParam();
  EXPECT_EQ(diameter(make_cycle(n)), n / 2);
}

INSTANTIATE_TEST_SUITE_P(Cycles, DiameterParamTest,
                         ::testing::Values<NodeId>(3, 4, 5, 8, 13, 20, 33));

}  // namespace
}  // namespace dlb
