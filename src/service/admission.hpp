// AdmissionQueue: a WorkloadProcess adapter that rate-limits injection.
//
// A service-mode balancer can face demand bursts that outpace the round
// rate — the paper's model injects whatever the adversary chooses, but a
// deployment admits work at a bounded rate and queues the rest. This
// adapter caps the total tokens *admitted* per round at `round_cap`;
// positive deltas beyond the cap join a FIFO backlog that drains, oldest
// first, in later rounds. Consumption (negative deltas) is never queued —
// work completing is not subject to admission control.
//
// The backlog is part of the recovery state: save_state/load_state
// persist the queued (node, amount) pairs after the inner process's
// state, so a restored service resumes with the exact same pending
// admissions (the equivalence gate covers a mid-backlog snapshot). The
// queued token total is kept as a running sum (derived again on restore;
// the snapshot format carries only the pairs), so the per-round backlog
// gauge and status line cost O(1) however long the backlog grows.
//
// Per-round cost is the inner process's delta scan — O(n) virtual draws
// for a dense inner such as PoissonWorkload. When the engine lends its
// pool (ThreadPool::current(), set around prepare() by parallel rounds)
// and the inner process is dense and parallel_generate_safe(), that scan
// fans out into per-chunk lists of nonzero (node, delta) pairs. The FIFO
// budget pass stays serial and walks the lists in ascending node order,
// so the round table, the touched-node order and the backlog are
// identical at any pool size, and to the serial step().
#pragma once

#include <deque>
#include <utility>
#include <vector>

#include "dynamics/workload.hpp"
#include "util/thread_pool.hpp"

namespace dlb {

class AdmissionQueue : public WorkloadProcess {
 public:
  struct Params {
    Load round_cap = 64;  ///< max tokens admitted per round (>= 1)
  };

  /// Wraps `inner` (not owned; must outlive this adapter).
  AdmissionQueue(WorkloadProcess& inner, Params params);

  std::string name() const override;
  void reset(NodeId n, std::uint64_t seed) override;

  /// Advances the inner process, collects its round deltas, admits
  /// backlog first (FIFO, partial admission allowed) and then the round's
  /// arrivals in ascending node order, queueing the excess. A dense,
  /// parallel_generate_safe() inner is scanned over ThreadPool::current()
  /// when one with parallelism > 1 is lent; admission itself is serial.
  void prepare(Step t, std::span<const Load> loads) override;

  Load delta(NodeId u, Step t) override;

  /// delta() only reads the table built in prepare().
  bool parallel_generate_safe() const override { return true; }

  /// Adapter: whether prepare() needs the loads is the inner process's
  /// business — this wrapper only forwards the span.
  bool prepare_reads_loads() const override {
    return inner_->prepare_reads_loads();
  }

  /// Always list-based: the touched-node list built by prepare() (it can
  /// be dense when the inner process is, but the contract holds).
  const std::vector<NodeId>* affected_nodes() const override;

  /// Snapshot state: the inner process's state followed by the backlog.
  void save_state(StateWriter& w) const override;
  void load_state(StateReader& r) override;

  /// Tokens currently queued (sum over backlog entries), kept as a
  /// running total: O(1).
  Load backlog_total() const noexcept { return backlog_tokens_; }
  std::size_t backlog_entries() const noexcept { return backlog_.size(); }

 private:
  /// Admits up to `budget` tokens for `node`, recording into the round
  /// table; returns the amount admitted.
  Load admit(NodeId node, Load amount, Load budget);

  /// Fills chunk_nonzero_ with the inner process's nonzero round-t
  /// deltas, one contiguous ascending node block per pool chunk.
  void scan_inner(ThreadPool& pool, Step t);

  WorkloadProcess* inner_;
  Params params_;
  NodeId n_ = 0;
  std::deque<std::pair<NodeId, Load>> backlog_;
  Load backlog_tokens_ = 0;         // Σ amount over backlog_
  std::vector<Load> round_delta_;   // dense per-node table for delta()
  std::vector<NodeId> affected_;    // nodes touched this round
  // Pooled scan output: block c's nonzero (node, delta) pairs, in order.
  std::vector<std::vector<std::pair<NodeId, Load>>> chunk_nonzero_;
};

}  // namespace dlb
