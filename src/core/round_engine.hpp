// RoundDriver and RoundEngineBase: the stepping substrate shared by every
// synchronous round engine in the library — the diffusive Engine and the
// matching-model DimensionExchange (both over one flat load vector,
// through RoundEngineBase) and the k-slice ShardedEngine (directly on
// RoundDriver). Irregular graphs need no engine of their own: padded to
// a regular Graph (irregular/igraph.hpp), they run on the Engine.
//
// RoundDriver owns the one round ledger every engine shares:
//   * the round clock and the conserved total, split into Σx₀ plus the
//     workload's injected and consumed tokens, so the audit checks the
//     dynamic invariant Σx == Σx₀ + injected − consumed;
//   * the token-conservation audit, gated to every k-th step so that the
//     O(n) re-sum does not tax hot kernels (k = 1 preserves the classic
//     every-step behavior);
//   * cached min/max/min-seen statistics: rounds publish the min/max
//     their own final sweep computed (publish_round_stats), otherwise one
//     fused scan refreshes them — or, for pure run(T) workloads, the scan
//     is deferred (set_deferred_stats) and observables recompute on
//     demand;
//   * the run()/run_until_discrepancy() loops, the thread-pool and
//     workload attachments, telemetry around each round, and the ledger
//     half of save/load_core_state.
//
// The driver reaches the loads only through three storage hooks: a load
// scan (min/max, plus Σx when auditing), writing and reading the flat
// core-state load vector, and after_commit(), run once the round's
// clock and statistics are committed (the sharded engine's input log).
// The round itself is advance(): workload churn (tallied through
// record_churn) followed by one synchronous balancing round.
//
// RoundEngineBase implements the hooks over one flat LoadVector; its
// subclasses implement do_step(), which must advance loads_ by exactly
// one synchronous round (and may fan out to observers before publishing
// the new loads). Engines with a contention-free two-phase round
// additionally override do_step_parallel(); set_thread_pool() plus
// step_parallel() (or the run loops) route through it, byte-identically
// to a serial round at any thread count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>

#include "core/load_vector.hpp"
#include "util/assertions.hpp"
#include "util/serial.hpp"

namespace dlb {

namespace obs {
struct EngineTelemetry;
}  // namespace obs

class ThreadPool;
class WorkloadProcess;

/// Conservation-audit policy of a round engine.
struct ConservationPolicy {
  bool enabled = true;  ///< verify Σx == total after (gated) steps
  int interval = 1;     ///< audit every `interval`-th step (>= 1)

  /// Amortized audit for engines whose pre-refactor check was a
  /// debug-only assert: still always on, but the O(n) re-sum lands on one
  /// step in 64, which is noise next to the O(n·d) step work.
  static ConservationPolicy gated() { return {true, 64}; }
};

/// Result of one fused sweep over (part of) the loads.
struct LoadScan {
  Load lo = std::numeric_limits<Load>::max();
  Load hi = std::numeric_limits<Load>::min();
  Load sum = 0;  ///< only accumulated when the scan asks for it

  void add(std::span<const Load> xs, bool with_sum) noexcept {
    // Locals, not the members: a store to a member could alias xs, which
    // would keep the loop from vectorizing.
    Load l = lo;
    Load h = hi;
    if (with_sum) {
      Load s = sum;
      for (Load v : xs) {
        l = std::min(l, v);
        h = std::max(h, v);
        s += v;
      }
      sum = s;
    } else {
      for (Load v : xs) {
        l = std::min(l, v);
        h = std::max(h, v);
      }
    }
    lo = l;
    hi = h;
  }
};

/// One round's workload churn under the engines' truncation rule.
struct ChurnTally {
  Load injected = 0;
  Load consumed = 0;

  /// Applies delta d to load x: d > 0 injects d; d < 0 consumes
  /// min(−d, max(x, 0)), so churn never drives a node negative on its own
  /// (a node already negative under an allows_negative() balancer gives
  /// nothing). Returns the change actually applied.
  Load apply(Load& x, Load d) noexcept {
    if (d > 0) {
      x += d;
      injected += d;
      return d;
    }
    const Load take = d < 0 ? std::min(-d, std::max<Load>(x, 0)) : 0;
    x -= take;
    consumed += take;
    return -take;
  }
};

/// Always-on bounds check of a workload's sparse affected-node list: the
/// list crosses a trust boundary (any third-party process can return
/// one) and is tiny by design, so the guard is free — unlike the dense
/// path, a bad entry would otherwise corrupt memory in release builds.
inline void require_affected_node(std::int64_t u, std::size_t n) {
  DLB_REQUIRE(u >= 0 && static_cast<std::size_t>(u) < n,
              "workload affected node out of range");
}

class RoundDriver {
 public:
  virtual ~RoundDriver();

  RoundDriver(const RoundDriver&) = delete;
  RoundDriver& operator=(const RoundDriver&) = delete;

  /// Attaches a worker pool (not owned; must outlive the engine's runs).
  /// Once attached, step_parallel() and the run loops execute rounds
  /// through the engine's parallel pipeline; results are identical to
  /// the serial path at any pool size. Pass nullptr to detach.
  void set_thread_pool(ThreadPool* pool) noexcept { pool_ = pool; }
  ThreadPool* thread_pool() const noexcept { return pool_; }

  /// Attaches an online workload (not owned; must outlive the engine's
  /// runs; nullptr detaches). Before every subsequent round the engine
  /// applies the process's per-node deltas under ChurnTally's rule:
  /// positive deltas inject tokens, negative deltas consume — truncated
  /// at zero load. Injection composes with parallel rounds: when the
  /// process is parallel_generate_safe(), deltas of disjoint node ranges
  /// are generated and applied concurrently, byte-identically to the
  /// serial order.
  void set_workload(WorkloadProcess* workload) noexcept {
    workload_ = workload;
  }
  WorkloadProcess* workload() const noexcept { return workload_; }

  /// Tokens the workload injected / consumed since construction. The
  /// conservation audit verifies Σx == base_total() + injected_total()
  /// − consumed_total() on every audited step.
  Load injected_total() const noexcept { return injected_total_; }
  Load consumed_total() const noexcept { return consumed_total_; }
  /// Σx₀: the static part of the conservation identity.
  Load base_total() const noexcept { return base_total_; }

  /// Executes one synchronous round (serial path) plus shared bookkeeping.
  void step();

  /// Executes one round through the parallel pipeline when a pool with
  /// parallelism > 1 is attached; identical results to step().
  void step_parallel();

  /// Executes `steps` rounds (parallel rounds once a pool is attached).
  void run(Step steps);

  /// Runs until discrepancy() <= target or max_steps elapse; returns the
  /// number of *additional* steps taken.
  Step run_until_discrepancy(Load target, Step max_steps);

  /// When deferred, the fused per-step min/max pass is skipped and
  /// discrepancy()/min_load_seen() recompute on demand (and on gated
  /// conservation audits). min_load_seen() then reflects only the steps
  /// at which statistics were actually refreshed — pure run(T) workloads
  /// that only read the final state trade that fidelity for one less
  /// O(n) pass per step.
  void set_deferred_stats(bool deferred) noexcept { deferred_stats_ = deferred; }

  Step time() const noexcept { return t_; }
  /// Conserved total: Σx₀ plus the net workload churn so far.
  Load total() const noexcept { return total_; }

  /// max − min of the current loads; O(1) from the cached statistics
  /// (recomputed on demand in deferred-stats mode).
  Load discrepancy() const noexcept {
    refresh_if_dirty();
    return max_load_ - min_load_;
  }
  double average() const {
    return static_cast<double>(total_) / static_cast<double>(nodes_);
  }

  /// Minimum load ever observed on any node (negative iff the balancer
  /// drove some node negative, cf. the NL column of Table 1). In
  /// deferred-stats mode, only refreshed steps contribute.
  Load min_load_seen() const noexcept {
    refresh_if_dirty();
    return min_load_seen_;
  }

  /// Serializes the complete core stepping state: the flat load vector,
  /// the round counter, the conservation ledger (base/injected/consumed
  /// totals), and the cached statistics (including the dirty flag, so a
  /// deferred-stats run restores the exact same observable history it
  /// would have had uninterrupted). The bytes do not depend on how the
  /// engine stores its loads, so images move freely between the flat
  /// engine and any shard count. Audit policy, pool, and workload
  /// attachment are construction-time configuration and are NOT
  /// captured — the restore target must be configured identically.
  void save_core_state(StateWriter& w) const;

  /// Restores what save_core_state captured into an engine with the same
  /// node count; throws serial_error on size mismatch before mutating
  /// anything.
  void load_core_state(StateReader& r);

 protected:
  RoundDriver();

  /// Installs the audit policy and primes the ledger and the cached
  /// statistics from one scan of the (already installed) loads.
  void adopt(ConservationPolicy audit, std::size_t nodes);

  /// Telemetry and trace label of this engine ("flat", "sharded",
  /// "dimexchange"). Consulted lazily on the first round that runs
  /// with the metrics registry armed.
  virtual const char* engine_kind() const noexcept { return "flat"; }

  /// Advances the loads by one round: the attached workload's churn for
  /// round time() (tallied through record_churn), then one synchronous
  /// balancing round. Runs with the *pre-increment* time(). `pool` is
  /// the round's pool: non-null only on step_parallel() with a pool of
  /// parallelism > 1 attached.
  virtual void advance(ThreadPool* pool) = 0;

  // --- storage hooks -------------------------------------------------
  /// One fused pass over all loads: min/max always, Σx iff `with_sum`.
  virtual LoadScan scan_loads(bool with_sum) const = 0;
  /// Writes the loads as one flat vector (the core-state layout).
  virtual void write_loads(StateWriter& w) const = 0;
  /// Reads what write_loads wrote; throws serial_error before mutating
  /// anything when the vector's size is not the node count.
  virtual void read_loads(StateReader& r) = 0;
  /// Runs after every round, once its clock and statistics committed.
  virtual void after_commit() {}

  /// Rounds whose final sweep already visits every new load (the
  /// engine's apply pull, the scatter accumulator's finalize, the shards'
  /// emit sweeps) publish the min/max they computed here, from inside
  /// advance(). The driver then commits them instead of re-scanning —
  /// one fewer O(n) pass per round. Gated conservation audits still
  /// re-scan the loads themselves, so a wrong published value cannot
  /// survive an audited step. The publication is consumed by the
  /// current round only; rounds that do not publish keep the classic
  /// refresh behavior.
  void publish_round_stats(Load lo, Load hi) noexcept {
    round_min_ = lo;
    round_max_ = hi;
    round_stats_valid_ = true;
  }
  /// Adds one round's workload churn to the ledger.
  void record_churn(const ChurnTally& churn) noexcept {
    injected_total_ += churn.injected;
    consumed_total_ += churn.consumed;
    total_ += churn.injected - churn.consumed;
  }

 private:
  /// Refreshes the cached statistics from scan_loads; with `audit_total`
  /// it also checks Σx against the ledger.
  void refresh_stats(bool audit_total) const;
  void refresh_if_dirty() const {
    if (stats_dirty_) refresh_stats(false);
  }
  /// One round through advance() plus the shared bookkeeping.
  void run_round(ThreadPool* pool);
  /// Post-round clock, audit and statistics commit.
  void after_step();
  /// Metrics begin/commit around one round. round_begin() returns a
  /// monotonic start stamp iff the registry is armed (0 otherwise);
  /// round_end(0) is a no-op, so a disarmed round pays one relaxed load
  /// per call. round_end publishes the round counter, latency, ledger
  /// totals, and — only when the cached statistics are clean, never by
  /// forcing a refresh — the min/max/discrepancy gauges. Telemetry
  /// reads engine state exclusively; it cannot perturb determinism.
  std::uint64_t round_begin() const noexcept;
  void round_end(std::uint64_t start_ns);

  std::size_t nodes_ = 0;
  Step t_ = 0;
  Load total_ = 0;
  Load base_total_ = 0;
  Load injected_total_ = 0;
  Load consumed_total_ = 0;
  mutable Load min_load_ = 0;
  mutable Load max_load_ = 0;
  mutable Load min_load_seen_ = 0;
  mutable bool stats_dirty_ = false;
  bool deferred_stats_ = false;
  Load round_min_ = 0;
  Load round_max_ = 0;
  bool round_stats_valid_ = false;
  ConservationPolicy audit_;
  ThreadPool* pool_ = nullptr;
  WorkloadProcess* workload_ = nullptr;
  /// Lazily-registered metric handles (null until a round runs with the
  /// registry armed).
  std::unique_ptr<obs::EngineTelemetry> telemetry_;
};

/// The driver over one flat load vector.
class RoundEngineBase : public RoundDriver {
 public:
  const LoadVector& loads() const noexcept { return loads_; }

 protected:
  /// Installs the initial load vector (must be non-empty) and the audit
  /// policy; computes the conserved total and primes the cached stats.
  void adopt_loads(LoadVector initial, ConservationPolicy audit);

  /// Advances loads_ by one round. Runs with the *pre-increment* time();
  /// implementations that notify observers label the step time() + 1.
  virtual void do_step() = 0;

  /// Advances loads_ by one round using `pool` for intra-round
  /// parallelism; must produce exactly the loads do_step() would.
  /// Default: falls back to the serial round.
  virtual void do_step_parallel(ThreadPool& pool);

  LoadVector loads_;

 private:
  void advance(ThreadPool* pool) final;
  LoadScan scan_loads(bool with_sum) const final;
  void write_loads(StateWriter& w) const final;
  void read_loads(StateReader& r) final;
  /// Applies the attached workload's deltas for round time() (no-op
  /// without one). `pool` may be null; it is ThreadPool::current() during
  /// the process's prepare() and runs the dense delta pass when the
  /// process allows parallel generation.
  void apply_workload(ThreadPool* pool);
};

}  // namespace dlb
