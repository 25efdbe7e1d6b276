// ShardedEngine: the decide/apply round over k partitioned load slices.
//
// The flat Engine keeps one n-slot load vector and one accumulator; this
// engine cuts the node range into k contiguous shards (ShardPartition's
// balanced split), gives each shard a private, cache-line-aligned window
// of loads and its own epoch accumulator, and runs the round phases
// shard-by-shard — shards-as-threads today, with every cross-shard byte
// moving through the narrow ShardChannel seam so the same protocol runs
// over processes later.
//
// Two tiers, selected per (balancer, graph) at construction:
//
//   Tier 1 — windowed gather (balancer->window_reach(g) = W >= 0). The
//   balancer promises next(u) is a pure gather over loads within ring
//   distance W of u, so the only thing shards ever exchange is W boundary
//   *loads* each way, posted before decide (the halo refill) — flows never
//   cross a shard, and structured graphs never materialize cross-shard
//   adjacency (halo geometry is ring arithmetic from the PR-5 structure
//   tags, via ring_halo_segments). A shard's window is its owned slice
//   plus 2W halo slots; decide_window runs the same SIMD kernels as the
//   flat engine over that window, single-touch, with min/max fused into
//   the emit sweep. The O(1) window/accumulator swap then retires the
//   round.
//
//   Tier 2 — routed flows (window_reach < 0: hypercube, generic graphs,
//   stateful balancers). Each shard runs the default decide() loop over
//   its owned nodes; flows to local neighbors scatter straight into the
//   shard's accumulator, flows that cross a shard are staged as (node,
//   amount) records and posted through the channel, then drained into the
//   owning shard's accumulator after a barrier. A per-node boundary table
//   (the edge cut, computed once at partition time) lets interior nodes
//   skip the owner test entirely. int64 flow adds commute exactly, so the
//   drain order never shows in the result.
//
// The round ledger is not this engine's own: it is a RoundDriver (see
// core/round_engine.hpp), so the clock, conservation ledger and audit,
// deferred statistics, telemetry, run loops and save/load_core_state are
// the ones the flat engines use. This class supplies the round
// (advance) and the storage hooks over the shard windows: the fused
// scan, the flat core-state load vector (owned slices gathered in shard
// order), and the post-commit input log.
//
// Equivalence contract (golden-tested): for every registered balancer,
// graph family, and workload, a k-shard run is byte-identical to the
// 1-shard run and to the flat Engine — same loads trajectory, same
// conservation ledger, same min/max history. save_core_state emits the
// exact byte stream the flat engine does, so snapshots move freely
// between the flat engine and any shard count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/balancer.hpp"
#include "core/epoch_accumulator.hpp"
#include "core/load_vector.hpp"
#include "core/round_engine.hpp"
#include "graph/graph.hpp"
#include "graph/topology.hpp"  // ShardPartition
#include "shard/channel.hpp"
#include "util/serial.hpp"

namespace dlb {

namespace obs {
class Counter;
}  // namespace obs

/// EngineConfig's counterpart for the sharded substrate (flow matrices and the
/// assign-first protocol are flat-engine concerns; shards always scatter).
struct ShardedEngineConfig {
  int self_loops = 0;            ///< d° self-loops per node
  bool check_conservation = true;
  int conservation_interval = 1;
  /// Frame-loss recovery budget (only consulted on a lossy channel).
  /// After an exchange's drains, any (sender → receiver) stream that is
  /// still incomplete — frames lost, corrupted, truncated, or delayed —
  /// triggers a re-post of exactly the missing sequence numbers; the
  /// engine retries up to `max_retries` times with capped exponential
  /// backoff before giving up with shard_fault_error. backoff_ns = 0
  /// (the default) retries immediately — right for the in-process fault
  /// injector, where the re-post *is* the recovery; a real network
  /// transport sets a positive base.
  struct FaultTolerance {
    int max_retries = 8;
    std::uint64_t backoff_ns = 0;          ///< base sleep before retry i
    std::uint64_t backoff_cap_ns = 1000000;  ///< 1 ms ceiling
  } fault;
};

/// Everything a shard's round consumed from outside its slice: workload
/// deltas applied to owned nodes (post-truncation, so replay needs no
/// workload process) and the validated inbound channel payloads (halo
/// segments or flow records) in application order. A bounded log of
/// these, kept by the ShardSupervisor, is what turns a per-shard
/// checkpoint into a byte-exact replay of the lost rounds.
struct ShardRoundInputs {
  std::vector<std::pair<NodeId, Load>> workload;  ///< (global node, net delta)
  std::vector<std::byte> stream;  ///< concatenated validated payloads
};

/// Sink for the engine's per-round input log (the supervisor implements
/// it). record_round is called serially, once per shard in ascending
/// shard order, after round `round` has fully committed.
class ShardInputLog {
 public:
  virtual ~ShardInputLog() = default;
  virtual void record_round(int shard, Step round,
                            const ShardRoundInputs& inputs) = 0;
};

class ShardedEngine : public RoundDriver {
 public:
  /// Partitions `initial` (size n) into `shards` contiguous slices.
  /// `balancer` is not owned and must outlive the engine (same contract
  /// as Engine). `channel` is the cross-shard transport; nullptr selects
  /// an owned InProcessShardChannel. A non-null channel must connect
  /// exactly `shards` endpoints.
  ShardedEngine(const Graph& g, ShardedEngineConfig config,
                Balancer& balancer, const LoadVector& initial, int shards,
                ShardChannel* channel = nullptr);

  ~ShardedEngine() override;

  const Graph& graph() const noexcept { return *g_; }
  const ShardedEngineConfig& config() const noexcept { return config_; }
  int self_loops() const noexcept { return config_.self_loops; }
  int balancing_degree() const noexcept {
    return g_->degree() + config_.self_loops;
  }
  Balancer& balancer() noexcept { return *balancer_; }
  const Balancer& balancer() const noexcept { return *balancer_; }

  int shards() const noexcept { return part_.shards(); }
  /// True when this run took the tier-1 windowed-gather path.
  bool windowed() const noexcept { return reach_ >= 0; }
  /// Halo width W in ring slots (tier 1), or −1 on the tier-2 path.
  NodeId halo_reach() const noexcept { return reach_; }

  /// Load of global node u (window lookup; O(1)). For tests and probes.
  Load load_of(NodeId u) const;
  /// The full load vector, owned slices concatenated in shard order —
  /// exactly the flat engine's loads(). O(n); for tests and reports.
  LoadVector gather_loads() const;

  // --- per-shard geometry and memory accounting (bench/report surface) ---
  NodeId shard_begin(int s) const { return part_.begin(s); }
  NodeId shard_size(int s) const { return part_.size(s); }
  /// Bytes of per-shard resident state: the load window plus the
  /// accumulator's value and epoch arrays (all sized owned + 2W).
  std::size_t shard_resident_bytes(int s) const;
  /// Bytes of that residency that are halo, not owned slice: the 2W halo
  /// slots across window, accumulator values, and epoch stamps (tier 1),
  /// or the flow-staging buffer capacity (tier 2).
  std::size_t shard_halo_bytes(int s) const;
  /// Edges of shard s whose other endpoint lives on another shard (the
  /// edge cut; 0 on the tier-1 path, where no flow ever crosses).
  std::uint64_t shard_cut_edges(int s) const;

  // --- fault-tolerance surface (driven by ShardSupervisor) -----------

  /// The transport this engine exchanges over (owned or injected).
  ShardChannel& channel() noexcept { return *channel_; }

  /// SIGKILL simulation: wipes shard s's window and accumulator (its
  /// slice of the load vector is *gone*) and marks it dead. step()
  /// refuses to run while any shard is dead — the supervisor must
  /// recover first, exactly as a real barrier would block on the
  /// missing member.
  void kill_shard(int s);
  bool shard_dead(int s) const;
  int dead_shards() const noexcept { return dead_count_; }

  /// Attaches the per-round input logger (nullptr detaches). While
  /// attached, every round's externally-sourced inputs are recorded per
  /// shard — the raw material of per-shard replay.
  void set_input_log(ShardInputLog* log) noexcept { input_log_ = log; }

  /// Recovers dead shard s from a checkpoint: restores its owned slice
  /// from `loads_at_t0` (the full load vector captured when time() was
  /// t0), then replays rounds t0+1 .. time() from `rounds` (one entry
  /// per round, in order). `replay_balancer` substitutes for the live
  /// balancer during replay — a private replica restored to its t0
  /// state, used when the balancer is stateful so the live instance
  /// (whose state already reflects the present) is never rewound;
  /// nullptr replays through the live balancer (stateless decides).
  /// Global ledgers, statistics, and the clock are untouched: only the
  /// lost slice is rebuilt, byte-identically to the uninterrupted run.
  void recover_shard(int s, Step t0, std::span<const Load> loads_at_t0,
                     std::span<const ShardRoundInputs* const> rounds,
                     Balancer* replay_balancer);

 private:
  struct HaloSend {
    int to = 0;                ///< destination shard
    NodeId src_window = 0;     ///< first window slot to read (owned region)
    NodeId len = 0;            ///< slots to send
    NodeId dest_window = 0;    ///< destination's window slot to fill
    std::uint32_t seq = 0;     ///< frame position in the (s, to) stream
    std::uint32_t total = 0;   ///< frames that stream carries per round
  };

  /// Reassembly state of one (sender → this shard) frame stream within
  /// the current exchange. `expected` is static per tier (halo plan
  /// inversion / flow cut), so a sender that goes silent is detected as
  /// an incomplete stream, not silence.
  struct InboundStream {
    std::uint32_t expected = 0;  ///< frames this stream must deliver
    std::uint32_t received = 0;  ///< distinct valid frames seen so far
    std::vector<std::vector<std::byte>> payloads;  ///< by seq (kept capacity)
    std::vector<std::uint8_t> seen;                ///< by seq
  };

  struct Shard {
    NodeId begin = 0;          ///< first owned global node
    NodeId size = 0;           ///< owned node count
    LoadVector window;         ///< owned + 2W loads (W = 0 on tier 2)
    EpochAccumulator acc;      ///< next-load accumulator, window-sized
    std::vector<HaloSend> sends;          ///< tier 1: halo segments to post
    std::vector<std::uint8_t> boundary;   ///< tier 2: node has a cut edge
    std::vector<std::vector<std::byte>> flow_out;  ///< tier 2: per-dest staging
    std::uint64_t cut_edges = 0;
    std::vector<std::uint32_t> expect_halo;   ///< frames owed per sender
    std::vector<std::uint8_t> flow_sends_to;  ///< tier 2: dests s must frame
    std::vector<std::uint8_t> expect_flows;   ///< tier 2: senders owing a frame
    std::vector<InboundStream> inbound;       ///< per-sender reassembly
    std::vector<std::vector<std::vector<std::byte>>> sent_frames;
        ///< [dest][seq] retained frames for re-post (lossy channels only)
    std::vector<std::byte> frame_scratch;     ///< frame encode buffer
    std::vector<std::byte> payload_scratch;   ///< halo payload build buffer
    ShardRoundInputs log_scratch;  ///< this round's inputs (when logging)
    Load round_min = 0;        ///< this round's emitted min (merged later)
    Load round_max = 0;
    ChurnTally churn;          ///< this round's workload partials
    std::vector<NodeDelta> churn_deltas;  ///< this round's nonzero deltas
    obs::Counter* bytes_posted = nullptr;   ///< channel bytes this shard sent
    obs::Counter* bytes_drained = nullptr;  ///< channel bytes it received
  };

  /// Window slot of global node u on its owning shard.
  NodeId window_slot(const Shard& sh, NodeId u) const noexcept {
    return (reach_ >= 0 ? reach_ : 0) + (u - sh.begin);
  }

  void build_tier1_plan();
  void build_tier2_plan();

  /// Round phases (see step() for the order and barriers).
  void apply_workload();
  void exchange_halos();
  void decide_shard(int s, Step t);
  void drain_flows();

  // --- framed transport plumbing (see exchange_halos/drain_flows) ----
  /// Frames `payload` and posts it as frame `seq` of `total` on the
  /// (from, to, tag) stream; retains a copy for re-post on lossy
  /// channels.
  void post_frame(int from, int to, ShardTag tag, std::uint32_t seq,
                  std::uint32_t total, std::span<const std::byte> payload);
  /// Resets shard s's reassembly table to the tag's static expectations.
  void reset_inbound(int s, ShardTag tag);
  /// Drains shard s's streams, validating and filing every frame.
  void drain_frames(int s, ShardTag tag);
  /// True when every stream of shard s has all its expected frames.
  bool inbound_complete(int s) const;
  /// Drain/validate/re-post loop: returns only when every expected
  /// stream is complete; throws shard_fault_error when the retry budget
  /// is exhausted.
  void collect_frames(ShardTag tag);
  /// Parses one frame's halo payload ([dest_window, len, loads…]) into
  /// the shard's window.
  void apply_halo_payload(Shard& sh, std::span<const std::byte> payload);
  /// Scatters one frame's flow records into the shard's accumulator.
  void apply_flow_payload(Shard& sh, std::span<const std::byte> payload);
  /// Applies shard s's completed streams in (sender, seq) order.
  void apply_halo_frames(int s);
  void apply_flow_frames(int s);
  /// Tier-1 decide body over `bal` (live engine path and replay share it).
  void decide_tier1_core(Shard& sh, Balancer& bal, Step t);
  /// Tier-2 decide body; `discard_remote` drops cross-shard flows
  /// instead of staging them (replay: the peers received the originals).
  void decide_tier2_core(int s, Shard& sh, Balancer& bal, Step t,
                         bool discard_remote);
  void backoff(int attempt) const;

  /// Runs body(s) for every shard — through the pool when one is
  /// attached and `parallel_ok`, else serially in ascending shard order.
  /// Each call is a full barrier.
  template <class Body>
  void for_shards(bool parallel_ok, Body&& body);

  // --- RoundDriver hooks ---------------------------------------------
  const char* engine_kind() const noexcept override { return "sharded"; }
  /// One round across all shards: workload churn, halo/flow exchange,
  /// decide, apply. Shards run on the attached pool on both step() and
  /// step_parallel(), so the round's `pool` argument is not consulted.
  void advance(ThreadPool* pool) override;
  /// Fused scan over the owned slots of every shard.
  LoadScan scan_loads(bool with_sum) const override;
  /// The owned slices gathered in shard order: the flat engine's bytes.
  void write_loads(StateWriter& w) const override;
  /// Scatters the flat vector into the shard windows and revives any
  /// killed shard — a full-state restore redefines every slice, which is
  /// exactly the supervisor's rollback recovery.
  void read_loads(StateReader& r) override;
  /// Hands each shard's round inputs to the attached input log.
  void after_commit() override;

  /// Gathers the owned slices into scratch_ and returns a span over it
  /// (for prepare hooks that read the global loads).
  std::span<const Load> gather_into_scratch() const;

  const Graph* g_;
  ShardedEngineConfig config_;
  Balancer* balancer_;
  ShardPartition part_;
  NodeId reach_ = -1;  ///< tier-1 halo width W, or −1 on tier 2
  std::unique_ptr<InProcessShardChannel> owned_channel_;
  ShardChannel* channel_;
  std::vector<Shard> shards_;
  mutable LoadVector scratch_;  ///< global gather buffer (lazily sized)

  bool lossless_ = true;           ///< cached channel_->lossless()
  std::vector<std::uint8_t> dead_;  ///< killed shards awaiting recovery
  int dead_count_ = 0;
  ShardInputLog* input_log_ = nullptr;
};

}  // namespace dlb
