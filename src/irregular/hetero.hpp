// Heterogeneous machines: nodes with speeds (related work [2], Adolphs &
// Berenbrink, IPDPS 2012).
//
// In the heterogeneous model node u has integer speed s(u) >= 1 and the
// target is load *proportional to speed*; the discrepancy is measured on
// the normalized loads x(u)/s(u). We realize the model by the standard
// blow-up reduction: node u becomes s(u) replicas forming a clique, and
// every original edge (u, v) becomes a complete bipartite bundle between
// the replica sets. Uniform balancing on the blown-up (irregular) graph
// is exactly speed-proportional balancing on the original: each replica
// converges to the global token density m/Σs, so physical node u holds
// ≈ s(u)·m/Σs. This preserves the behaviour the paper's model cares
// about (diffusive, synchronous, indivisible tokens, no communication
// beyond neighbours). The blow-up runs like any irregular graph:
// pad_to_regular(blowup) gives a regular Graph for the ordinary Engine.
#pragma once

#include <vector>

#include "core/load_vector.hpp"
#include "graph/graph.hpp"
#include "irregular/igraph.hpp"

namespace dlb {

/// A heterogeneous instance: the blown-up graph plus replica bookkeeping.
struct HeteroInstance {
  IrregularGraph blowup;             ///< replica graph
  std::vector<NodeId> replica_of;    ///< blow-up node -> physical node
  std::vector<std::int64_t> first_replica;  ///< physical node -> offset
  std::vector<int> speeds;           ///< physical speeds (copied)
};

/// Builds the blow-up of `g` with per-node speeds (all >= 1).
HeteroInstance make_hetero_instance(const Graph& g,
                                    const std::vector<int>& speeds);

/// Spreads a physical load vector over replicas (round-robin within each
/// replica group, so replica loads differ by <= 1 per physical node).
LoadVector spread_to_replicas(const HeteroInstance& inst,
                              const LoadVector& physical);

/// Aggregates replica loads back to physical nodes.
LoadVector collapse_to_physical(const HeteroInstance& inst,
                                const LoadVector& replica_loads);

/// Speed-normalized discrepancy: max_u x(u)/s(u) − min_u x(u)/s(u).
double weighted_discrepancy(const LoadVector& physical,
                            const std::vector<int>& speeds);

}  // namespace dlb
