// Online-workload processes: load churn applied between balancing rounds.
//
// The paper analyzes every scheme from a fixed initial load to
// convergence; production diffusion balancers face *churning* demand —
// tokens arrive and complete while the protocol runs. A WorkloadProcess
// perturbs the load vector before every round: positive per-node deltas
// inject tokens, negative deltas request consumption (the engine
// truncates consumption at zero load so churn never drives a node
// negative on its own). The engine's conservation audit then tracks the
// dynamic invariant
//
//     Σx  ==  Σx₀ + injected − consumed     after every round,
//
// so a buggy generator or engine still fails loudly.
//
// Determinism contract (mirrors the decide/apply split): per-node deltas
// are drawn from counter-based streams keyed on (seed, node, round) —
// never from a shared sequential RNG — so disjoint node ranges may be
// generated concurrently and a parallel round is byte-identical to a
// serial one at any thread count. Processes that need global round state
// (the adversarial injector's argmax scan, the burst hotspot pick)
// compute it in the once-per-round prepare() hook, exactly like
// Balancer::prepare_round; prepare() may use the pool the engine lends
// it (ThreadPool::current()) as long as its results stay independent
// of that pool.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/load_vector.hpp"
#include "graph/graph.hpp"  // NodeId
#include "util/rng.hpp"
#include "util/serial.hpp"

namespace dlb {

class ThreadPool;

/// stream_key with its seed-only first SplitMix64 round done once: a
/// scan over many (node, round) pairs of one seed pays two rounds per
/// key instead of three. key(node, round) == stream_key(seed, node,
/// round) by construction — stream_key is defined through it.
class StreamKeys {
 public:
  explicit StreamKeys(std::uint64_t seed) noexcept
      : state_(seed), head_(splitmix64(state_)) {}

  std::uint64_t key(std::uint64_t node, std::uint64_t round) const noexcept {
    std::uint64_t s = state_ ^ (node * 0x9e3779b97f4a7c15ULL);
    std::uint64_t h = head_ ^ splitmix64(s);
    s ^= round * 0xbf58476d1ce4e5b9ULL;
    return h ^ splitmix64(s);
  }

 private:
  std::uint64_t state_;  ///< SplitMix64 state after the seed round
  std::uint64_t head_;   ///< the seed round's output
};

/// Counter-based per-(node, round) stream key: three SplitMix64 rounds
/// over (seed, node, round). Workload generators seed a throwaway Rng
/// from this instead of sharing one sequential stream, so any node's
/// draw is independent of evaluation order — the property that makes
/// parallel injection byte-deterministic.
inline std::uint64_t stream_key(std::uint64_t seed, std::uint64_t node,
                                std::uint64_t round) noexcept {
  return StreamKeys(seed).key(node, round);
}

/// Poisson(λ) draw, deterministic for a given Rng stream and libm.
///
/// Three regimes, chosen by rate (the seams are fixed constants, so the
/// branch a draw takes is itself deterministic):
///   * λ <= 64 — Knuth's exact product-of-uniforms method, O(λ) uniforms
///     (the classic small-rate arrival case; the exp(−λ) threshold is
///     the one libm-rounded quantity).
///   * 64 < λ <= 4096 — exact additive split: Poisson(λ) is the sum of
///     ⌈λ/64⌉ independent Poisson(λ/⌈λ/64⌉) draws, each inside the
///     product method's range. Still the exact distribution, still O(λ).
///   * λ > 4096 — deterministic normal approximation: one uniform
///     through the Acklam inverse-CDF gives z, and the draw is
///     max(0, round(λ + √λ·z)) — O(1), relative error O(1/√λ), which at
///     λ > 4096 is below 2% of a standard deviation. High-traffic
///     service scenarios land here; they previously aborted outright.
/// Rejects λ > 1e15 (the draw would overflow the Load ledger).
Load poisson_draw(Rng& rng, double lambda);

/// Regime seams of poisson_draw, exposed so tests can probe both edges.
inline constexpr double kPoissonProductCap = 64.0;
inline constexpr double kPoissonSplitCap = 4096.0;

/// poisson_draw with the per-rate work done once: the regime, the split
/// chunk count, the exp(−λ) product limit and √λ are fixed at
/// construction, so a draw only consumes uniforms. Draws are
/// bit-identical to poisson_draw(rng, lambda) (which is implemented as a
/// one-shot plan); a process drawing the same rate every node and round
/// keeps one plan per rate.
class PoissonPlan {
 public:
  /// Same preconditions as poisson_draw.
  explicit PoissonPlan(double lambda);

  Load draw(Rng& rng) const;

  /// True when a draw is one product draw (0 < λ <= kPoissonProductCap).
  /// Such a draw returns 0 exactly when its first word x = rng.next()
  /// has (x >> 11) <= zero_cutoff(): the uniform (x >> 11)·2^-53 is at
  /// most exp(−λ) iff the 53-bit integer is at most floor(exp(−λ)·2^53),
  /// both sides scaled by a power of two, so the test is exact.
  bool single_product() const noexcept { return chunks_ == 1; }
  std::uint64_t zero_cutoff() const noexcept { return zero_cutoff_; }

 private:
  double lambda_;
  int chunks_ = 0;      ///< product draws summed; 0 = normal regime or λ = 0
  double limit_ = 0.0;  ///< exp(−λ/chunks_), the product stop threshold
  std::uint64_t zero_cutoff_ = 0;  ///< floor(limit_·2^53) when chunks_ == 1
  double sqrt_lambda_ = 0.0;
};

/// One nonzero workload delta: (node, net demand).
using NodeDelta = std::pair<NodeId, Load>;

/// Per-round load perturbation source. Attach to any round engine via
/// RoundDriver::set_workload; the engine calls prepare() once per
/// round (from its stepping thread) and then delta() for the nodes of
/// affected_nodes(), or nonzero_deltas() over node ranges covering
/// every node when that list is absent.
class WorkloadProcess {
 public:
  virtual ~WorkloadProcess() = default;

  /// Human-readable process name for reports and CSV rows.
  virtual std::string name() const = 0;

  /// Called once before a run; `seed` fixes the per-node streams. Only
  /// the node count is needed (not a Graph), so workloads attach to any
  /// engine substrate — regular, irregular, or matching-based.
  virtual void reset(NodeId n, std::uint64_t seed) = 0;

  /// Once-per-round hook, called before any delta() of round t with the
  /// pre-injection loads, on the engine's stepping thread. Processes
  /// needing global state (an argmax scan) compute it here. On parallel
  /// rounds the engine lends its pool for the duration of the call as
  /// ThreadPool::current() (nullptr on serial rounds); prepare() may fan
  /// out over it, as AdmissionQueue's inner scan does, provided its
  /// results do not depend on whether or how wide a pool was lent.
  /// Default: no-op.
  virtual void prepare(Step t, std::span<const Load> loads);

  /// True when prepare() actually reads its loads span (the adversarial
  /// argmax scan). The sharded engine gathers a contiguous global copy of
  /// the loads before prepare() iff this is set; processes that only use
  /// t (bursts, Poisson streams) skip that O(n) gather. Default: false.
  virtual bool prepare_reads_loads() const { return false; }

  /// Net token demand at node u in round t: > 0 injects that many
  /// tokens, < 0 requests consumption of −delta tokens (the engine
  /// truncates at zero load). Given reset() state and this round's
  /// prepare(), must be a pure function of (u, t) — no shared writes.
  virtual Load delta(NodeId u, Step t) = 0;

  /// Range form of delta(), the shape every dense scan runs through
  /// (the engines' churn pass, the admission queue's inner scan),
  /// mirroring Balancer::decide_range. Appends (u, delta(u, t)) to `out`
  /// for every u in [first, last) whose delta is nonzero, in strictly
  /// ascending u, and nothing else; `out` is not cleared. Zero deltas
  /// may be skipped because applying one is a no-op. Calls on disjoint
  /// ranges (each with its own `out`) may run concurrently iff
  /// parallel_generate_safe(). Callers check the output against this
  /// contract (collect_nonzero_deltas) — a bad entry throws, it never
  /// reaches memory. Default: the delta() loop. Override it only with
  /// a kernel that returns exactly those pairs, faster; a forwarding
  /// wrapper should forward it to its inner process, or keep this
  /// default, which reaches the inner process through its own delta().
  virtual void nonzero_deltas(NodeId first, NodeId last, Step t,
                              std::vector<NodeDelta>& out);

  /// True when delta() over disjoint node ranges may run concurrently
  /// (the counter-stream contract). Default: false — safe for any
  /// third-party process (e.g. one drawing from a sequential member RNG
  /// stream); the engine then generates serially in ascending node
  /// order, exactly like the serial path. All built-in processes
  /// opt in, mirroring Balancer::parallel_decide_safe.
  virtual bool parallel_generate_safe() const { return false; }

  /// Sparse-injection fast path. After prepare(t), a process whose round
  /// is known to touch only a small node set may expose it here; the
  /// engine then calls delta() for exactly those nodes instead of
  /// scanning all n with a virtual call each — the difference between
  /// O(1) and O(n) bookkeeping per round for a burst or adversary
  /// process on a 2^20-node graph. Contract: delta(u, t) == 0 for every
  /// node outside the list, entries are distinct, and the pointer stays
  /// valid until the next prepare()/reset(). An *empty* list means "no
  /// churn this round"; returning nullptr (the default) means "dense" —
  /// the engine scans every node. Equivalence with the dense scan is
  /// golden-tested for the built-in sparse processes.
  virtual const std::vector<NodeId>* affected_nodes() const {
    return nullptr;
  }

  /// Snapshot hooks, mirroring Balancer::save_state/load_state: persist
  /// whatever reset(n, seed) does not reconstruct — stream seeds, queued
  /// backlogs. Per-round transients (hotspots, adversary targets) need
  /// no capture: snapshots are taken between rounds and prepare() runs
  /// before the next round's deltas. The counter-stream built-ins save
  /// their seed so a restored process replays the identical streams even
  /// if the caller reset it differently. Default: stateless.
  virtual void save_state(StateWriter& w) const;
  virtual void load_state(StateReader& r);
};

/// Always-on bounds check of a workload's sparse affected-node list: the
/// list crosses a trust boundary (any third-party process can return
/// one) and is tiny by design, so the guard is free; a bad entry would
/// otherwise corrupt memory in release builds. Every consumer of the
/// list (both engines, the admission queue) checks each entry.
inline void require_affected_node(std::int64_t u, std::size_t n) {
  DLB_REQUIRE(u >= 0 && static_cast<std::size_t>(u) < n,
              "workload affected node out of range");
}

/// Clears `out`, fills it with w.nonzero_deltas(first, last, t, out) and
/// checks the result against that contract: every node in [first, last),
/// strictly ascending, every delta nonzero. The output of any override
/// crosses the same trust boundary as affected_nodes(), and the check is
/// one compare per listed node. Throws invariant_error on a bad list.
void collect_nonzero_deltas(WorkloadProcess& w, NodeId first, NodeId last,
                            Step t, std::vector<NodeDelta>& out);

/// The dense churn scan shared by the admission queue and the flat
/// engine. Splits [0, n) into one contiguous block per pool chunk —
/// block c of b is [c·n/b, (c+1)·n/b) — collects block c's checked
/// nonzero deltas into lists[c] and then calls sink(lists[c]) on the
/// thread that produced it. The blocks fan out over `pool` only when it
/// is non-null with parallelism() > 1 and w.parallel_generate_safe();
/// otherwise there is one block, scanned inline. On return `lists`
/// holds exactly the blocks' pairs, concatenating to ascending node
/// order, so a serial consumer can walk them identically at any pool
/// size. `sink` may be empty.
void scan_nonzero_deltas(
    WorkloadProcess& w, NodeId n, Step t, ThreadPool* pool,
    std::vector<std::vector<NodeDelta>>& lists,
    const std::function<void(std::span<const NodeDelta>)>& sink);

/// Deterministic per-node counter streams: node u injects
/// `arrival_amount` tokens in every round with (t + u) % arrival_period
/// == 0 and requests `departure_amount` in every round with
/// (t + u) % departure_period == departure_period − 1. The node stagger
/// spreads the churn evenly across rounds; a period of 0 disables that
/// side of the process.
class CounterWorkload : public WorkloadProcess {
 public:
  struct Params {
    Step arrival_period = 4;
    Load arrival_amount = 1;
    Step departure_period = 4;
    Load departure_amount = 1;
  };

  explicit CounterWorkload(Params params);

  std::string name() const override;
  void reset(NodeId n, std::uint64_t seed) override;
  Load delta(NodeId u, Step t) override;
  /// Pure arithmetic in (u, t) — ranges may generate concurrently.
  bool parallel_generate_safe() const override { return true; }

  const Params& params() const noexcept { return params_; }

 private:
  Params params_;
};

/// Seeded stochastic arrival/departure process: per node per round,
/// arrivals ~ Poisson(arrival_rate) and departure requests
/// ~ Poisson(departure_rate), both drawn from the (seed, node, round)
/// counter stream. The two draws are netted into one delta per node per
/// round, so the engine's injected/consumed ledger counts *net* per-node
/// movements, not gross arrival volume (a node drawing 2 in / 2 out
/// contributes 0 to both totals). Consumption truncates at zero load,
/// so the realized departure mass can also fall below the requested
/// rate on drained nodes.
class PoissonWorkload : public WorkloadProcess {
 public:
  struct Params {
    double arrival_rate = 0.5;
    double departure_rate = 0.5;
  };

  explicit PoissonWorkload(Params params);

  std::string name() const override;
  void reset(NodeId n, std::uint64_t seed) override;
  Load delta(NodeId u, Step t) override;
  /// Each delta seeds a throwaway Rng from the (seed, node, round)
  /// stream key — no shared stream, ranges may generate concurrently.
  bool parallel_generate_safe() const override { return true; }

  /// Exactly the pairs of the delta() loop, faster when both plans are
  /// single_product(): a node's delta is 0 whenever its stream's first
  /// two words each pass their plan's zero_cutoff(), and those words
  /// need only three of the Rng's four seeding rounds (word 1 feeds the
  /// first output, words 0–2 the second). Such a node — ~90% of them at
  /// λ = 0.05 per side — costs two key rounds, three seeding rounds and
  /// two integer compares; any other node finishes its two draws from
  /// the same words. Other regimes (λ = 0, split, normal) take the
  /// default loop; delta() stays the reference.
  void nonzero_deltas(NodeId first, NodeId last, Step t,
                      std::vector<NodeDelta>& out) override;

  /// Snapshot state: the counter-stream seed.
  void save_state(StateWriter& w) const override;
  void load_state(StateReader& r) override;

 private:
  /// Arrivals minus departures, drawn in that order from `rng`.
  Load draw_delta(Rng& rng) const {
    const Load arrivals = arrivals_.draw(rng);
    return arrivals - departures_.draw(rng);
  }

  Params params_;
  PoissonPlan arrivals_;
  PoissonPlan departures_;
  std::uint64_t seed_ = 0;
};

/// Burst/hotspot injector: every `period` rounds, `burst` tokens land on
/// one hotspot node drawn from the (seed, round/period) counter stream;
/// optionally every node consumes `drain_amount` tokens every
/// `drain_period` rounds so the injected mass recirculates out.
class BurstWorkload : public WorkloadProcess {
 public:
  struct Params {
    Step period = 32;
    Load burst = 256;
    Step drain_period = 0;  ///< 0 = no drain
    Load drain_amount = 0;
  };

  explicit BurstWorkload(Params params);

  std::string name() const override;
  void reset(NodeId n, std::uint64_t seed) override;
  void prepare(Step t, std::span<const Load> loads) override;
  Load delta(NodeId u, Step t) override;
  /// delta() only reads the hotspot chosen in the serial prepare().
  bool parallel_generate_safe() const override { return true; }

  /// Sparse on burst-only rounds ({hotspot} or nothing); dense (nullptr)
  /// on rounds where the global drain touches every node.
  const std::vector<NodeId>* affected_nodes() const override;

  /// Hotspot of the current round's burst (set by prepare; −1 when the
  /// round has no burst).
  NodeId hotspot() const noexcept { return hotspot_; }

  /// Snapshot state: the counter-stream seed (hotspot choice is a pure
  /// function of (seed, round) recomputed by the next prepare()).
  void save_state(StateWriter& w) const override;
  void load_state(StateReader& r) override;

 private:
  Params params_;
  std::uint64_t seed_ = 0;
  NodeId n_ = 0;
  NodeId hotspot_ = -1;
  bool dense_round_ = false;
  std::vector<NodeId> affected_;
};

/// Adversarial injector: every `period` rounds it re-targets the current
/// maximum-load node (lowest index on ties — the scan is deterministic)
/// and injects `amount` tokens there, fighting the balancer's progress
/// the way the Section-4 adversaries fight fairness. With `drain_min` it
/// additionally requests `amount` tokens from the current minimum-load
/// node, keeping the total roughly constant while widening the gap; on
/// a perfectly flat vector the drain is skipped for the round (the
/// ±amount pair would otherwise cancel into a permanent no-op).
class AdversarialInjector : public WorkloadProcess {
 public:
  struct Params {
    Load amount = 8;
    Step period = 1;
    bool drain_min = false;
  };

  explicit AdversarialInjector(Params params);

  std::string name() const override;
  void reset(NodeId n, std::uint64_t seed) override;
  void prepare(Step t, std::span<const Load> loads) override;
  Load delta(NodeId u, Step t) override;
  /// The argmax/argmin scan is the one built-in prepare() that reads the
  /// loads span — the sharded engine gathers a global copy for it.
  bool prepare_reads_loads() const override { return true; }
  /// delta() only reads the targets chosen in the serial prepare().
  bool parallel_generate_safe() const override { return true; }

  /// Always sparse: at most {argmax, argmin} per round (the prepare()
  /// argmax scan is the process's only O(n) work).
  const std::vector<NodeId>* affected_nodes() const override;

 private:
  Params params_;
  NodeId target_max_ = -1;
  NodeId target_min_ = -1;
  std::vector<NodeId> affected_;
};

}  // namespace dlb
