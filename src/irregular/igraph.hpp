// Non-regular graphs: the paper's claimed extension.
//
// Section 1.1: "Even though we limit ourselves to regular graphs in this
// paper, our results can be extended to non-regular graphs." The standard
// device (also used by [17]) is self-loop padding: give node u
// d°(u) = D − deg(u) self-loops for a uniform balancing degree
// D >= max_degree + 1 (we default to D = 2·max_degree). The padded chain
// P(u,v) = 1/D per edge, P(u,u) = (D − deg u)/D is symmetric and doubly
// stochastic, so the uniform load vector is stationary and the regular
// theory carries over with d replaced by max degree.
//
// IrregularGraph stores a CSR adjacency with per-node degrees.
// pad_to_regular turns it into an ordinary regular Graph plus a self-loop
// count, so every registry balancer, the flat and sharded engines,
// snapshots and spectral_gap run on it unchanged.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace dlb {

/// Undirected (symmetric) graph with arbitrary degrees, CSR storage.
class IrregularGraph {
 public:
  /// Builds from an undirected edge list (u, v), u != v; each edge
  /// contributes one port at u and one at v. Parallel edges allowed.
  IrregularGraph(NodeId num_nodes,
                 const std::vector<std::pair<NodeId, NodeId>>& edges,
                 std::string name = "igraph");

  NodeId num_nodes() const noexcept { return n_; }
  int degree(NodeId u) const {
    DLB_ASSERT(valid_node(u), "degree: bad node");
    return static_cast<int>(offsets_[static_cast<std::size_t>(u) + 1] -
                            offsets_[static_cast<std::size_t>(u)]);
  }
  int max_degree() const noexcept { return max_degree_; }
  int min_degree() const noexcept { return min_degree_; }
  std::int64_t num_edges() const noexcept { return num_edges_; }

  std::span<const NodeId> neighbors(NodeId u) const {
    DLB_ASSERT(valid_node(u), "neighbors: bad node");
    return {targets_.data() + offsets_[static_cast<std::size_t>(u)],
            static_cast<std::size_t>(degree(u))};
  }

  bool valid_node(NodeId u) const noexcept { return u >= 0 && u < n_; }
  const std::string& name() const noexcept { return name_; }

 private:
  NodeId n_;
  std::vector<std::int64_t> offsets_;  // n+1
  std::vector<NodeId> targets_;
  std::int64_t num_edges_ = 0;
  int max_degree_ = 0;
  int min_degree_ = 0;
  std::string name_;
};

/// An irregular graph padded to uniform balancing degree D: a regular
/// Graph of degree max_degree plus the self-loop count that tops it up to
/// D. Run it as Engine(graph, {.self_loops = self_loops}, ...).
struct PaddedGraph {
  Graph graph;     ///< node u: its real ports in CSR order, then
                   ///< max_degree − deg(u) self-edge ports
  int self_loops;  ///< D − max_degree (>= 1)
};

/// Pads `g` to uniform degree D = `uniform_d_plus`; 0 selects the default
/// 2·max_degree. D must strictly exceed max_degree (every node needs >= 1
/// self-loop to break periodicity).
PaddedGraph pad_to_regular(const IrregularGraph& g, int uniform_d_plus = 0);

/// Erdős–Rényi G(n, p) conditioned on connectivity (retries the seed
/// stream until connected; p defaults from the target average degree).
IrregularGraph make_gnp_connected(NodeId n, double avg_degree,
                                  std::uint64_t seed);

/// Non-wrapping w×h grid: corner degree 2, edge 3, interior 4.
IrregularGraph make_grid2d(NodeId width, NodeId height);

/// Wheel: hub connected to every rim node, rim forms a cycle (hub degree
/// n−1, rim degree 3). Extreme degree skew.
IrregularGraph make_wheel(NodeId n);

/// Barbell: two k-cliques joined by a path of `path_len` extra nodes —
/// the classic bad-conductance instance (tiny spectral gap).
IrregularGraph make_barbell(NodeId clique_size, NodeId path_len);

}  // namespace dlb
