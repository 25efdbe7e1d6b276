#include "core/round_engine.hpp"

#include <atomic>
#include <chrono>
#include <utility>

#include "dynamics/workload.hpp"
#include "obs/engine_telemetry.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace dlb {

namespace {

std::uint64_t mono_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// ------------------------------------------------------------ RoundDriver --

RoundDriver::RoundDriver() = default;
RoundDriver::~RoundDriver() = default;

std::uint64_t RoundDriver::round_begin() const noexcept {
  if (!obs::metrics_armed()) return 0;
  return mono_ns();
}

void RoundDriver::round_end(std::uint64_t start_ns) {
  if (start_ns == 0) return;
  if (!telemetry_) {
    telemetry_ = std::make_unique<obs::EngineTelemetry>(engine_kind());
  }
  obs::EngineTelemetry& tel = *telemetry_;
  tel.rounds.inc();
  tel.round_seconds.observe(static_cast<double>(mono_ns() - start_ns) * 1e-9);
  tel.time.set(t_);
  tel.injected.set(injected_total_);
  tel.consumed.set(consumed_total_);
  // Cached stats only. Forcing a refresh here would change
  // min_load_seen_'s history in deferred-stats mode — telemetry must
  // observe, never steer.
  if (!stats_dirty_) {
    tel.min_load.set(min_load_);
    tel.max_load.set(max_load_);
    tel.discrepancy.set(max_load_ - min_load_);
  }
}

void RoundDriver::adopt(ConservationPolicy audit, std::size_t nodes) {
  DLB_REQUIRE(nodes > 0, "round engine: empty load vector");
  DLB_REQUIRE(audit.interval >= 1, "round engine: audit interval must be >= 1");
  audit_ = audit;
  nodes_ = nodes;
  const LoadScan scan = scan_loads(true);
  total_ = scan.sum;
  base_total_ = total_;
  injected_total_ = 0;
  consumed_total_ = 0;
  min_load_ = scan.lo;
  max_load_ = scan.hi;
  min_load_seen_ = min_load_;
  stats_dirty_ = false;
}

void RoundDriver::refresh_stats(bool audit_total) const {
  const LoadScan scan = scan_loads(audit_total);
  if (audit_total) {
    DLB_REQUIRE(scan.sum == total_,
                "token conservation violated by engine step");
  }
  min_load_ = scan.lo;
  max_load_ = scan.hi;
  min_load_seen_ = std::min(min_load_seen_, scan.lo);
  stats_dirty_ = false;
}

void RoundDriver::save_core_state(StateWriter& w) const {
  write_loads(w);
  w.i64(t_);
  w.i64(total_);
  w.i64(base_total_);
  w.i64(injected_total_);
  w.i64(consumed_total_);
  w.i64(min_load_);
  w.i64(max_load_);
  w.i64(min_load_seen_);
  w.b(stats_dirty_);
}

void RoundDriver::load_core_state(StateReader& r) {
  read_loads(r);
  t_ = r.i64();
  total_ = r.i64();
  base_total_ = r.i64();
  injected_total_ = r.i64();
  consumed_total_ = r.i64();
  min_load_ = r.i64();
  max_load_ = r.i64();
  min_load_seen_ = r.i64();
  stats_dirty_ = r.b();
  round_stats_valid_ = false;
}

void RoundDriver::after_step() {
  ++t_;
  const bool audit =
      audit_.enabled && (audit_.interval == 1 || t_ % audit_.interval == 0);
  if (audit) {
    // The audit re-sums the loads anyway, and min/max ride that same
    // pass for free — published stats are simply superseded.
    refresh_stats(true);
  } else if (round_stats_valid_) {
    // The round's own sweep already produced min/max (fused apply pull /
    // scatter finalize / shard emit); commit without another O(n) pass.
    // This also means deferred-stats mode loses nothing on engines that
    // publish: the observables stay exact at zero extra cost.
    min_load_ = round_min_;
    max_load_ = round_max_;
    min_load_seen_ = std::min(min_load_seen_, round_min_);
    stats_dirty_ = false;
  } else if (deferred_stats_) {
    stats_dirty_ = true;
  } else {
    refresh_stats(false);
  }
  round_stats_valid_ = false;
}

void RoundDriver::run_round(ThreadPool* pool) {
  const std::uint64_t t0 = round_begin();
  {
    obs::TraceSpan span("round", engine_kind(), "t", t_ + 1);
    advance(pool);
    after_step();
    after_commit();
  }
  round_end(t0);
}

void RoundDriver::step() { run_round(nullptr); }

void RoundDriver::step_parallel() {
  run_round(pool_ != nullptr && pool_->parallelism() > 1 ? pool_ : nullptr);
}

void RoundDriver::run(Step steps) {
  DLB_REQUIRE(steps >= 0, "run: negative step count");
  for (Step i = 0; i < steps; ++i) step_parallel();
}

Step RoundDriver::run_until_discrepancy(Load target, Step max_steps) {
  DLB_REQUIRE(max_steps >= 0, "run_until_discrepancy: negative cap");
  for (Step i = 0; i < max_steps; ++i) {
    if (discrepancy() <= target) return i;
    step_parallel();
  }
  return max_steps;
}

// -------------------------------------------------------- RoundEngineBase --

void RoundEngineBase::adopt_loads(LoadVector initial,
                                  ConservationPolicy audit) {
  loads_ = std::move(initial);
  adopt(audit, loads_.size());
}

void RoundEngineBase::do_step_parallel(ThreadPool& /*pool*/) { do_step(); }

void RoundEngineBase::advance(ThreadPool* pool) {
  apply_workload(pool);
  if (pool != nullptr) {
    do_step_parallel(*pool);
  } else {
    do_step();
  }
}

LoadScan RoundEngineBase::scan_loads(bool with_sum) const {
  LoadScan scan;
  scan.add(loads_, with_sum);
  return scan;
}

void RoundEngineBase::write_loads(StateWriter& w) const { w.vec_i64(loads_); }

void RoundEngineBase::read_loads(StateReader& r) {
  const std::vector<std::int64_t> loads = r.vec_i64();
  if (loads.size() != loads_.size()) {
    throw serial_error("engine core state: load vector size mismatch");
  }
  loads_.assign(loads.begin(), loads.end());
}

void RoundEngineBase::apply_workload(ThreadPool* pool) {
  WorkloadProcess* workload = this->workload();
  if (workload == nullptr) return;
  const Step t = time();
  {
    // Lend the round's pool to prepare() (null on the serial path): a
    // process with an O(n) prepare, the admission queue's inner scan,
    // fans out over it without a pool parameter in the interface.
    ThreadPool::Scope scope(pool);
    workload->prepare(t, loads_);
  }
  // Sparse fast path: a process that knows its round's touched-node set
  // (burst hotspot, adversary targets) hands it over and the engine
  // applies exactly those deltas — no n virtual delta() calls per round.
  if (const std::vector<NodeId>* sparse = workload->affected_nodes()) {
    ChurnTally churn;
    for (const NodeId u : *sparse) {
      require_affected_node(u, loads_.size());
      churn.apply(loads_[static_cast<std::size_t>(u)], workload->delta(u, t));
    }
    record_churn(churn);
    return;
  }
  // Dense: each block applies its own nonzero deltas where they were
  // drawn. Per-block partials, combined with commutative integer adds:
  // the totals are identical for any blocking, so thread count never
  // shows.
  std::atomic<Load> injected{0};
  std::atomic<Load> consumed{0};
  scan_nonzero_deltas(
      *workload, static_cast<NodeId>(loads_.size()), t, pool, churn_lists_,
      [&](std::span<const NodeDelta> list) {
        ChurnTally churn;
        for (const auto& [u, d] : list) {
          churn.apply(loads_[static_cast<std::size_t>(u)], d);
        }
        injected.fetch_add(churn.injected, std::memory_order_relaxed);
        consumed.fetch_add(churn.consumed, std::memory_order_relaxed);
      });
  record_churn(ChurnTally{injected.load(std::memory_order_relaxed),
                          consumed.load(std::memory_order_relaxed)});
}

}  // namespace dlb
