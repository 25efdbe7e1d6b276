#include "irregular/igraph.hpp"

#include <algorithm>
#include <deque>

#include "util/assertions.hpp"

namespace dlb {

IrregularGraph::IrregularGraph(
    NodeId num_nodes, const std::vector<std::pair<NodeId, NodeId>>& edges,
    std::string name)
    : n_(num_nodes), name_(std::move(name)) {
  DLB_REQUIRE(n_ > 0, "igraph needs at least one node");
  std::vector<int> deg(static_cast<std::size_t>(n_), 0);
  for (const auto& [u, v] : edges) {
    DLB_REQUIRE(u >= 0 && u < n_ && v >= 0 && v < n_, "igraph: bad edge");
    DLB_REQUIRE(u != v, "igraph: self-edges not allowed");
    ++deg[static_cast<std::size_t>(u)];
    ++deg[static_cast<std::size_t>(v)];
  }
  offsets_.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (NodeId u = 0; u < n_; ++u) {
    offsets_[static_cast<std::size_t>(u) + 1] =
        offsets_[static_cast<std::size_t>(u)] + deg[static_cast<std::size_t>(u)];
  }
  targets_.assign(static_cast<std::size_t>(offsets_.back()), 0);
  std::vector<std::int64_t> fill(offsets_.begin(), offsets_.end() - 1);
  for (const auto& [u, v] : edges) {
    targets_[static_cast<std::size_t>(fill[static_cast<std::size_t>(u)]++)] = v;
    targets_[static_cast<std::size_t>(fill[static_cast<std::size_t>(v)]++)] = u;
  }
  num_edges_ = static_cast<std::int64_t>(edges.size());
  max_degree_ = *std::max_element(deg.begin(), deg.end());
  min_degree_ = *std::min_element(deg.begin(), deg.end());
  DLB_REQUIRE(min_degree_ >= 1, "igraph: isolated node");
}

PaddedGraph pad_to_regular(const IrregularGraph& g, int uniform_d_plus) {
  const int d = g.max_degree();
  const int d_plus = uniform_d_plus == 0 ? 2 * d : uniform_d_plus;
  DLB_REQUIRE(d_plus > d, "uniform D must exceed the maximum degree");
  std::vector<NodeId> adjacency;
  adjacency.reserve(static_cast<std::size_t>(g.num_nodes()) *
                    static_cast<std::size_t>(d));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto nb = g.neighbors(u);
    adjacency.insert(adjacency.end(), nb.begin(), nb.end());
    adjacency.insert(adjacency.end(), static_cast<std::size_t>(d - g.degree(u)),
                     u);
  }
  return {Graph(g.num_nodes(), d, std::move(adjacency), g.name(),
                /*allow_self_edges=*/true),
          d_plus - d};
}

namespace {

bool igraph_connected(const IrregularGraph& g) {
  std::vector<char> seen(static_cast<std::size_t>(g.num_nodes()), 0);
  std::deque<NodeId> queue{0};
  seen[0] = 1;
  NodeId count = 1;
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : g.neighbors(u)) {
      if (!seen[static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(v)] = 1;
        ++count;
        queue.push_back(v);
      }
    }
  }
  return count == g.num_nodes();
}

}  // namespace

IrregularGraph make_gnp_connected(NodeId n, double avg_degree,
                                  std::uint64_t seed) {
  DLB_REQUIRE(n >= 2, "gnp needs n >= 2");
  DLB_REQUIRE(avg_degree > 0.0 && avg_degree < n, "gnp: bad average degree");
  const double p = avg_degree / static_cast<double>(n - 1);
  Rng rng(seed);
  for (int attempt = 0; attempt < 256; ++attempt) {
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) {
        if (rng.bernoulli(p)) edges.emplace_back(u, v);
      }
    }
    if (edges.empty()) continue;
    bool isolated = false;
    {
      std::vector<char> touched(static_cast<std::size_t>(n), 0);
      for (const auto& [u, v] : edges) {
        touched[static_cast<std::size_t>(u)] = 1;
        touched[static_cast<std::size_t>(v)] = 1;
      }
      isolated = std::find(touched.begin(), touched.end(), 0) != touched.end();
    }
    if (isolated) continue;
    IrregularGraph g(n, edges,
                     "gnp(" + std::to_string(n) + ",deg~" +
                         std::to_string(static_cast<int>(avg_degree)) + ")");
    if (igraph_connected(g)) return g;
  }
  DLB_REQUIRE(false, "gnp: no connected sample in 256 attempts "
                     "(average degree too small?)");
  throw invariant_error("unreachable");
}

IrregularGraph make_grid2d(NodeId width, NodeId height) {
  DLB_REQUIRE(width >= 2 && height >= 2, "grid needs width, height >= 2");
  std::vector<std::pair<NodeId, NodeId>> edges;
  auto id = [width](NodeId x, NodeId y) { return y * width + x; };
  for (NodeId y = 0; y < height; ++y) {
    for (NodeId x = 0; x < width; ++x) {
      if (x + 1 < width) edges.emplace_back(id(x, y), id(x + 1, y));
      if (y + 1 < height) edges.emplace_back(id(x, y), id(x, y + 1));
    }
  }
  return IrregularGraph(width * height, edges,
                        "grid(" + std::to_string(width) + "x" +
                            std::to_string(height) + ")");
}

IrregularGraph make_wheel(NodeId n) {
  DLB_REQUIRE(n >= 5, "wheel needs n >= 5");
  // Node 0 = hub; 1..n-1 = rim cycle.
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId r = 1; r < n; ++r) {
    edges.emplace_back(0, r);
    const NodeId next = r == n - 1 ? 1 : r + 1;
    edges.emplace_back(std::min(r, next), std::max(r, next));
  }
  return IrregularGraph(n, edges, "wheel(" + std::to_string(n) + ")");
}

IrregularGraph make_barbell(NodeId clique_size, NodeId path_len) {
  DLB_REQUIRE(clique_size >= 3, "barbell needs cliques of >= 3 nodes");
  const NodeId n = 2 * clique_size + path_len;
  std::vector<std::pair<NodeId, NodeId>> edges;
  // Clique A: [0, k), clique B: [k, 2k), path nodes: [2k, 2k+len).
  for (NodeId u = 0; u < clique_size; ++u) {
    for (NodeId v = u + 1; v < clique_size; ++v) {
      edges.emplace_back(u, v);
      edges.emplace_back(clique_size + u, clique_size + v);
    }
  }
  NodeId prev = 0;  // a node of clique A
  for (NodeId i = 0; i < path_len; ++i) {
    const NodeId node = 2 * clique_size + i;
    edges.emplace_back(std::min(prev, node), std::max(prev, node));
    prev = node;
  }
  edges.emplace_back(std::min(prev, clique_size),
                     std::max(prev, clique_size));  // into clique B
  return IrregularGraph(n, edges,
                        "barbell(" + std::to_string(clique_size) + "," +
                            std::to_string(path_len) + ")");
}

}  // namespace dlb
