#include "graph/graph.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "graph/topology.hpp"

namespace dlb {

Graph::Graph(NodeId num_nodes, int degree, std::vector<NodeId> adjacency,
             std::string name, bool allow_self_edges, StructureInfo structure)
    : n_(num_nodes), d_(degree), adj_(std::move(adjacency)),
      name_(std::move(name)), structure_(std::move(structure)) {
  DLB_REQUIRE(n_ > 0, "graph must have at least one node");
  DLB_REQUIRE(d_ > 0, "graph must have positive degree");
  DLB_REQUIRE(adj_.size() == static_cast<std::size_t>(n_) * d_,
              "adjacency array size must be n*d");
  for (NodeId u = 0; u < n_; ++u) {
    for (int p = 0; p < d_; ++p) {
      const NodeId v = adj_[static_cast<std::size_t>(u) * d_ + p];
      DLB_REQUIRE(v >= 0 && v < n_, "adjacency entry out of range");
      DLB_REQUIRE(allow_self_edges || v != u,
                  "self-edges are not allowed in the original graph");
    }
  }
  build_reverse_ports();
  verify_structure();
}

Graph Graph::implicit(NodeId num_nodes, int degree, std::string name,
                      StructureInfo structure) {
  DLB_REQUIRE(structure.kind != GraphStructure::kGeneric,
              "implicit graph needs a concrete structure tag");
  Graph g;
  g.n_ = num_nodes;
  g.d_ = degree;
  g.name_ = std::move(name);
  g.structure_ = std::move(structure);
  DLB_REQUIRE(g.n_ > 0, "graph must have at least one node");
  DLB_REQUIRE(g.d_ > 0, "graph must have positive degree");
  // Same tag-parameter validation as the table constructor; the
  // entry-by-entry table comparison is vacuous (there are no tables —
  // the formula *is* the adjacency).
  g.verify_structure();
  return g;
}

NodeId Graph::implicit_neighbor(NodeId u, int port) const {
  // Non-inline on purpose: graph.hpp cannot see topology.hpp (it includes
  // graph.hpp), and this path is for slow-path callers — hot kernels
  // template on the trait types directly.
  return with_topology(*this,
                       [&](const auto& topo) { return topo.neighbor(u, port); });
}

std::uint64_t Graph::adjacency_fingerprint() const {
  // The value is the whole payload, so relaxed ordering suffices: a reader
  // sees either 0 (and computes) or the one value every caller computes.
  std::uint64_t h = fingerprint_.value.load(std::memory_order_relaxed);
  if (h != 0) return h;
  h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](NodeId entry) {
    const auto v = static_cast<std::uint32_t>(entry);
    for (int byte = 0; byte < 4; ++byte) {
      h ^= static_cast<std::uint8_t>(v >> (8 * byte));
      h *= 0x100000001b3ULL;
    }
  };
  if (is_implicit()) {
    with_topology(*this, [&](const auto& topo) {
      for (NodeId u = 0; u < n_; ++u) {
        for (int p = 0; p < d_; ++p) mix(topo.neighbor(u, p));
      }
    });
  } else {
    for (const NodeId entry : adj_) mix(entry);
  }
  fingerprint_.value.store(h, std::memory_order_relaxed);
  return h;
}

Graph Graph::without_structure() const {
  DLB_REQUIRE(!is_implicit(),
              "without_structure: an implicit graph has no table path");
  Graph g = *this;
  g.structure_ = StructureInfo{};
  return g;
}

void Graph::verify_structure() const {
  switch (structure_.kind) {
    case GraphStructure::kGeneric:
      return;
    case GraphStructure::kCycle:
      DLB_REQUIRE(d_ == 2 && n_ >= 3 && structure_.extents.empty(),
                  "cycle tag: need d == 2, n >= 3, no extents");
      break;
    case GraphStructure::kTorus: {
      const auto& ext = structure_.extents;
      DLB_REQUIRE(!ext.empty() &&
                      ext.size() <=
                          static_cast<std::size_t>(TorusTopology::kMaxDims),
                  "torus tag: bad dimension count");
      std::int64_t prod = 1;
      for (NodeId e : ext) {
        DLB_REQUIRE(e >= 3, "torus tag: extents must be >= 3");
        prod *= e;
      }
      DLB_REQUIRE(prod == n_ && d_ == 2 * static_cast<int>(ext.size()),
                  "torus tag: extents do not match n and d");
      break;
    }
    case GraphStructure::kHypercube:
      DLB_REQUIRE(d_ >= 1 && d_ < 31 && n_ == (NodeId{1} << d_) &&
                      structure_.extents.empty(),
                  "hypercube tag: need n == 2^d, no extents");
      break;
  }
  // Entry-by-entry check of the tag's arithmetic against the built
  // tables: O(n·d) integer compares, cheap next to build_reverse_ports'
  // port sort, and the reason a structured fast path can never
  // silently disagree with the tables it skips. Implicit graphs have no
  // tables to compare against.
  if (is_implicit()) return;
  with_topology(*this, [&](const auto& topo) {
    for (NodeId u = 0; u < n_; ++u) {
      for (int p = 0; p < d_; ++p) {
        const std::size_t i = static_cast<std::size_t>(u) * d_ + p;
        DLB_REQUIRE(adj_[i] == topo.neighbor(u, p),
                    "structure tag: implicit neighbor formula disagrees "
                    "with the adjacency table");
        DLB_REQUIRE(rev_[i] == topo.rev_port(u, p),
                    "structure tag: implicit rev_port formula disagrees "
                    "with the reverse-port table");
      }
    }
  });
}

void Graph::build_reverse_ports() {
  // One sort of port records keyed (min endpoint, max endpoint, side,
  // flat port), side 0 for ports out of the min endpoint. Each unordered
  // endpoint pair's records are then contiguous — its side-0 ports in port
  // order, then its side-1 ports in port order — and the k-th u→v copy
  // pairs with the k-th v→u copy. This handles parallel edges.
  struct PortRecord {
    std::uint64_t pair;  ///< min endpoint << 32 | max endpoint
    std::uint64_t port;  ///< side << 63 | flat port id
  };
  constexpr std::uint64_t kSide1 = std::uint64_t{1} << 63;
  const std::size_t entries = adj_.size();
  const auto d = static_cast<std::size_t>(d_);
  std::vector<PortRecord> recs(entries);
  for (std::size_t i = 0; i < entries; ++i) {
    const std::uint64_t u = i / d;
    const auto v = static_cast<std::uint64_t>(adj_[i]);
    recs[i] = {std::min(u, v) << 32 | std::max(u, v), (u > v ? kSide1 : 0) | i};
  }
  std::sort(recs.begin(), recs.end(), [](const PortRecord& a,
                                         const PortRecord& b) {
    return a.pair != b.pair ? a.pair < b.pair : a.port < b.port;
  });

  rev_.assign(entries, -1);
  // rev_ stores the *port index at the other endpoint*, not the flat id.
  const auto pair_ports = [&](std::uint64_t a, std::uint64_t b) {
    a &= ~kSide1;
    b &= ~kSide1;
    rev_[a] = static_cast<std::int32_t>(b % d);
    rev_[b] = static_cast<std::int32_t>(a % d);
  };
  for (std::size_t lo = 0; lo < entries;) {
    std::size_t hi = lo;
    std::size_t fwd = 0;  // ports out of the min endpoint
    for (; hi < entries && recs[hi].pair == recs[lo].pair; ++hi) {
      if ((recs[hi].port & kSide1) == 0) ++fwd;
    }
    const std::size_t count = hi - lo;
    if ((recs[lo].pair >> 32) == (recs[lo].pair & 0xffffffffu)) {
      // Self-edges: all ports are side 0 and pair consecutively with each
      // other. An odd count (the padding of an irregular graph) leaves
      // one port, which pairs with itself.
      for (std::size_t k = lo; k + 1 < hi; k += 2) {
        pair_ports(recs[k].port, recs[k + 1].port);
      }
      if (count % 2 == 1) pair_ports(recs[hi - 1].port, recs[hi - 1].port);
    } else {
      DLB_REQUIRE(2 * fwd == count,
                  "graph is not symmetric: directed edge multiset mismatch");
      if (fwd > 1) has_parallel_ = true;
      for (std::size_t k = 0; k < fwd; ++k) {
        pair_ports(recs[lo + k].port, recs[lo + fwd + k].port);
      }
    }
    lo = hi;
  }

  for (std::size_t i = 0; i < rev_.size(); ++i) {
    DLB_REQUIRE(rev_[i] >= 0, "reverse-port construction incomplete");
  }
}

}  // namespace dlb
