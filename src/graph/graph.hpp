// Immutable d-regular symmetric (multi)graph used as the balancing network.
//
// The paper's model (Section 1.3): a symmetric directed d-regular graph
// G = (V, E) with n nodes; every node has out-degree and in-degree d. The
// *balancing graph* G⁺ adds d° self-loops per node, but — as the paper
// stresses — G⁺ is an analysis device only, so this class stores G alone;
// the number of self-loops is a run-time parameter of the engine.
//
// Storage is a flat port array: node u's i-th out-neighbour lives at
// adj[u*d + i]. Because every directed edge (u→v) has a reverse edge
// (v→u), we also precompute rev_port so that flow bookkeeping can pair the
// two directions in O(1). Parallel edges are allowed (the configuration
// model can produce them); self-edges in G are rejected unless the
// caller opts in (the Margulis expander, and irregular graphs padded to a
// uniform degree by pad_to_regular, whose extra ports are self-edges).
//
// A Graph is immutable after construction. Its one piece of mutable state
// is the lazily computed adjacency fingerprint (adjacency_fingerprint()),
// published through an atomic so concurrent readers stay race-free.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/assertions.hpp"

namespace dlb {

using NodeId = std::int32_t;

/// Recognized implicit structures. A structured graph's adjacency is pure
/// arithmetic — neighbor(u, p) is u±1 mod n (cycle), a per-dimension torus
/// offset, or u ^ (1 << p) (hypercube) — so hot kernels can *compute*
/// neighbors instead of streaming the n·d port tables (graph/topology.hpp
/// holds the trait types the kernels template on).
enum class GraphStructure : std::uint8_t {
  kGeneric = 0,  ///< no known structure: kernels stream the port tables
  kCycle,        ///< C_n port layout: port 0 = u+1 mod n, port 1 = u−1 mod n
  kTorus,        ///< r-dim torus: ports (2k, 2k+1) = ±1 in dimension k
  kHypercube,    ///< port p = u ^ (1 << p)
};

/// Structure tag carried by a Graph. Set by the generators and *verified
/// at construction* — a tag whose implicit formula disagrees with the
/// adjacency (or reverse-port) tables on any entry throws, so a fast-path
/// kernel can never silently compute different neighbors than the tables
/// it replaces.
struct StructureInfo {
  GraphStructure kind = GraphStructure::kGeneric;
  /// kTorus only: per-dimension extents, size r (degree = 2r, node u's
  /// dimension-k coordinate is (u / stride_k) mod extents[k] with
  /// mixed-radix strides). Empty for every other kind (the cycle and
  /// hypercube parameters derive from n and d).
  std::vector<NodeId> extents;
};

/// d-regular symmetric multigraph with O(1) reverse-port lookup.
class Graph {
 public:
  /// Builds a graph from a flat port array.
  ///
  /// `adjacency` has `num_nodes * degree` entries; entry `u*degree + i` is
  /// the head of the i-th out-edge of node u. The edge multiset must be
  /// symmetric (as a multiset of directed edges). Self-edges are rejected
  /// unless `allow_self_edges` is set (the Margulis–Gabber–Galil expander
  /// has fixed points of its defining maps; a padded irregular graph
  /// fills each node's missing ports with self-edges). A node's self-edge
  /// ports pair consecutively in port order; with an odd count the last
  /// one is self-paired (rev_port(u, p) == p). Throws invariant_error
  /// otherwise.
  ///
  /// `structure` tags the graph as an instance of an implicit family
  /// (cycle/torus/hypercube); every adjacency and reverse-port entry is
  /// checked against the tag's arithmetic formula, so a bogus tag throws
  /// instead of letting structured kernels diverge from the tables.
  Graph(NodeId num_nodes, int degree, std::vector<NodeId> adjacency,
        std::string name = "graph", bool allow_self_edges = false,
        StructureInfo structure = {});

  /// Builds a *table-free* structured graph: no adjacency or reverse-port
  /// arrays are materialized; neighbor()/rev_port() evaluate the tag's
  /// arithmetic formula instead. This is how graphs bigger than one
  /// address space's table budget (2^26-node cycle = 512 MiB of adj_
  /// alone) are represented — the structured kernels never touch tables
  /// anyway, and the sharded engine computes ownership from the same
  /// arithmetic. `structure.kind` must not be kGeneric. The parameter
  /// checks of the tag (n/d/extent consistency) still run; only the
  /// entry-by-entry table verification is vacuous.
  static Graph implicit(NodeId num_nodes, int degree, std::string name,
                        StructureInfo structure);

  NodeId num_nodes() const noexcept { return n_; }
  int degree() const noexcept { return d_; }
  std::int64_t num_directed_edges() const noexcept {
    return static_cast<std::int64_t>(n_) * d_;
  }
  const std::string& name() const noexcept { return name_; }

  /// Head of the `port`-th out-edge of `u`.
  NodeId neighbor(NodeId u, int port) const {
    DLB_ASSERT(valid_node(u) && port >= 0 && port < d_, "neighbor: bad args");
    if (!adj_.empty()) return adj_[static_cast<std::size_t>(u) * d_ + port];
    return implicit_neighbor(u, port);
  }

  /// All out-neighbours of `u` (size d). Table-backed graphs only.
  std::span<const NodeId> neighbors(NodeId u) const {
    DLB_ASSERT(valid_node(u), "neighbors: bad node");
    DLB_REQUIRE(!is_implicit(),
                "neighbors: implicit graph has no adjacency table");
    return {adj_.data() + static_cast<std::size_t>(u) * d_,
            static_cast<std::size_t>(d_)};
  }

  /// Port index at `neighbor(u, port)` of the paired reverse edge.
  ///
  /// Invariant: neighbor(neighbor(u,p), rev_port(u,p)) == u, and the
  /// pairing is an involution (a self-paired self-edge port is its own
  /// fixed point).
  int rev_port(NodeId u, int port) const {
    DLB_ASSERT(valid_node(u) && port >= 0 && port < d_, "rev_port: bad args");
    if (!rev_.empty()) return rev_[static_cast<std::size_t>(u) * d_ + port];
    // Implicit families: cycle/torus pair +1 with −1 (p ^ 1); the
    // hypercube edge is its own reverse port.
    return structure_.kind == GraphStructure::kHypercube ? port : (port ^ 1);
  }

  /// Global directed-edge index of (u, port); dense in [0, n*d).
  std::int64_t edge_index(NodeId u, int port) const {
    DLB_ASSERT(valid_node(u) && port >= 0 && port < d_,
               "edge_index: bad args");
    return static_cast<std::int64_t>(u) * d_ + port;
  }

  bool valid_node(NodeId u) const noexcept { return u >= 0 && u < n_; }

  /// True if some unordered pair of nodes is joined by >1 edge.
  bool has_parallel_edges() const noexcept { return has_parallel_; }

  /// The verified structure tag (kGeneric when the adjacency has no known
  /// implicit form). Engines dispatch their fast-path kernels on this.
  const StructureInfo& structure() const noexcept { return structure_; }

  /// True when the graph was built by Graph::implicit — adjacency is
  /// arithmetic only; the raw table accessors below must not be used.
  bool is_implicit() const noexcept { return adj_.empty(); }

  /// Endian-stable fingerprint of the port tables: FNV-1a 64 over every
  /// adjacency entry as four little-endian bytes, in layout order [u*d + p].
  /// Two graphs fingerprint equal iff their flat adjacency arrays are
  /// identical (rev ports are derived, so they need no separate hash). An
  /// implicit graph hashes the entries its table *would* hold, so it
  /// fingerprints like its materialized twin and snapshots move freely
  /// between the two. Snapshots persist this value (service/snapshot.hpp).
  ///
  /// O(n·d) on the first call, then cached: the graph is immutable. The
  /// cache is published atomically (racing first calls compute the same
  /// value), and copies carry it. Construction never hashes.
  std::uint64_t adjacency_fingerprint() const;

  /// Copy of this graph with the structure tag stripped, forcing every
  /// kernel onto the generic table path. The implicit≡generic golden
  /// tests and the BM_StepImplicit_* / BM_StepGeneric_* bench pairs run
  /// the same adjacency through both paths via this.
  Graph without_structure() const;

  /// Raw flat port tables (size n·d, layout [u*d + p]) for the generic
  /// topology wrapper's unchecked hot-loop access. Implicit graphs carry
  /// no tables — they are never structure-tagged kGeneric, so the generic
  /// wrapper is unreachable for them by construction.
  const NodeId* adjacency_data() const noexcept {
    DLB_ASSERT(!is_implicit(), "adjacency_data: implicit graph");
    return adj_.data();
  }
  const std::int32_t* rev_port_data() const noexcept {
    DLB_ASSERT(!is_implicit(), "rev_port_data: implicit graph");
    return rev_.data();
  }

 private:
  Graph() = default;  ///< used by the implicit() factory only
  NodeId implicit_neighbor(NodeId u, int port) const;
  void build_reverse_ports();
  /// Checks every adjacency/rev entry against the tag's formula; throws
  /// invariant_error on the first mismatch.
  void verify_structure() const;

  /// Copyable holder of the lazily published fingerprint. 0 means "not
  /// computed yet"; a graph whose true fingerprint is 0 just recomputes it.
  struct FingerprintCache {
    mutable std::atomic<std::uint64_t> value{0};
    FingerprintCache() = default;
    FingerprintCache(const FingerprintCache& other) noexcept
        : value(other.value.load(std::memory_order_relaxed)) {}
    FingerprintCache& operator=(const FingerprintCache& other) noexcept {
      value.store(other.value.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
      return *this;
    }
  };

  NodeId n_;
  int d_;
  std::vector<NodeId> adj_;
  std::vector<std::int32_t> rev_;
  std::string name_;
  bool has_parallel_ = false;
  StructureInfo structure_;
  FingerprintCache fingerprint_;
};

}  // namespace dlb
