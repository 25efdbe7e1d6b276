#include "shard/sharded_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "dynamics/workload.hpp"
#include "obs/engine_telemetry.hpp"
#include "obs/trace.hpp"
#include "shard/framing.hpp"
#include "util/assertions.hpp"
#include "util/thread_pool.hpp"

namespace dlb {

namespace {

/// Phase-latency histograms of the sharded engine (leaked; see
/// MetricsRegistry::instance).
struct ShardPhases {
  obs::Histogram& prepare;
  obs::Histogram& halo;
  obs::Histogram& decide;
  obs::Histogram& drain;
};

ShardPhases& shard_phases() {
  static ShardPhases* p = [] {
    auto& reg = obs::MetricsRegistry::instance();
    const std::string name = "dlb_engine_phase_seconds";
    const std::string help =
        "Wall-clock latency of one engine phase within a round.";
    return new ShardPhases{
        reg.histogram(name, help, obs::phase_seconds_bounds(),
                      {{"engine", "sharded"}, {"phase", "prepare"}}),
        reg.histogram(name, help, obs::phase_seconds_bounds(),
                      {{"engine", "sharded"}, {"phase", "halo"}}),
        reg.histogram(name, help, obs::phase_seconds_bounds(),
                      {{"engine", "sharded"}, {"phase", "decide"}}),
        reg.histogram(name, help, obs::phase_seconds_bounds(),
                      {{"engine", "sharded"}, {"phase", "drain"}}),
    };
  }();
  return *p;
}

/// Frame-protocol counters (leaked; registered on first use). The error
/// family is labeled by detection kind so a lossy transport's weather is
/// legible from the exposition alone.
struct ShardProtocol {
  obs::Counter& frames_posted;
  obs::Counter& frames_drained;
  obs::Counter& frames_reposted;
  obs::Counter& retries;
  obs::Counter& err_header;
  obs::Counter& err_truncated;
  obs::Counter& err_payload;
  obs::Counter& err_stale;
  obs::Counter& err_duplicate;
  obs::Counter& err_unexpected;
};

ShardProtocol& shard_protocol() {
  static ShardProtocol* p = [] {
    auto& reg = obs::MetricsRegistry::instance();
    const std::string err = "dlb_shard_frame_errors_total";
    const std::string err_help =
        "Damaged or misdelivered channel frames detected at drain time, "
        "by kind.";
    return new ShardProtocol{
        reg.counter("dlb_shard_frames_posted_total",
                    "Channel frames posted, including retry re-posts."),
        reg.counter("dlb_shard_frames_drained_total",
                    "Valid current-round frames accepted at drain time."),
        reg.counter("dlb_shard_frames_reposted_total",
                    "Frames re-posted to fill an incomplete stream."),
        reg.counter("dlb_shard_retries_total",
                    "Exchange retry sweeps (each covers every incomplete "
                    "stream of the round)."),
        reg.counter(err, err_help, {{"kind", "header"}}),
        reg.counter(err, err_help, {{"kind", "truncated"}}),
        reg.counter(err, err_help, {{"kind", "payload"}}),
        reg.counter(err, err_help, {{"kind", "stale"}}),
        reg.counter(err, err_help, {{"kind", "duplicate"}}),
        reg.counter(err, err_help, {{"kind", "unexpected"}}),
    };
  }();
  return *p;
}

/// Tier-1 frame payload: [dest_window:NodeId][len:NodeId][len × Load] —
/// the same self-describing segment bytes the pre-framing wire carried,
/// now integrity-checked by the frame around them.
inline constexpr std::size_t kHaloSegmentHeader = 2 * sizeof(NodeId);

/// Wire format of one tier-2 routed flow: (global node, amount), packed
/// to 12 bytes (no struct padding on the wire).
inline constexpr std::size_t kFlowRecordBytes = sizeof(NodeId) + sizeof(Load);

inline void append_flow(std::vector<std::byte>& buf, NodeId v, Load f) {
  std::byte rec[kFlowRecordBytes];
  std::memcpy(rec, &v, sizeof(NodeId));
  std::memcpy(rec + sizeof(NodeId), &f, sizeof(Load));
  buf.insert(buf.end(), rec, rec + kFlowRecordBytes);
}

}  // namespace

ShardedEngine::ShardedEngine(const Graph& g, ShardedEngineConfig config,
                             Balancer& balancer, const LoadVector& initial,
                             int shards, ShardChannel* channel)
    : g_(&g), config_(config), balancer_(&balancer),
      part_(g.num_nodes(), shards) {
  DLB_REQUIRE(config_.self_loops >= 0, "self_loops must be non-negative");
  DLB_REQUIRE(config_.fault.max_retries >= 0,
              "sharded engine: negative retry budget");
  DLB_REQUIRE(initial.size() == static_cast<std::size_t>(g.num_nodes()),
              "initial load vector has wrong size");
  if (channel != nullptr) {
    DLB_REQUIRE(channel->shard_count() == part_.shards(),
                "sharded engine: channel endpoint count != shard count");
    channel_ = channel;
  } else {
    owned_channel_ = std::make_unique<InProcessShardChannel>(part_.shards());
    channel_ = owned_channel_.get();
  }
  lossless_ = channel_->lossless();

  balancer_->reset(g, config_.self_loops);
  reach_ = balancer_->window_reach(g);
  // A window needs reach < n ring slots each way; a degenerate tiny graph
  // whose reach covers the whole ring routes flows instead.
  if (reach_ >= g.num_nodes()) reach_ = -1;

  const NodeId w = reach_ >= 0 ? reach_ : 0;
  const std::size_t k = static_cast<std::size_t>(part_.shards());
  shards_.resize(k);
  dead_.assign(k, 0);
  for (int s = 0; s < part_.shards(); ++s) {
    Shard& sh = shards_[static_cast<std::size_t>(s)];
    sh.begin = part_.begin(s);
    sh.size = part_.size(s);
    sh.window.assign(static_cast<std::size_t>(sh.size + 2 * w), 0);
    std::copy(initial.begin() + sh.begin, initial.begin() + sh.begin + sh.size,
              sh.window.begin() + w);
    sh.acc.reset(sh.window.size());
    sh.inbound.resize(k);
    sh.sent_frames.resize(k);
  }
  if (reach_ >= 0) {
    build_tier1_plan();
  } else {
    build_tier2_plan();
  }

  // Per-shard channel byte counters, registered up front (registration
  // is one mutex pass at construction; the per-post inc() is a no-op
  // branch until an exporter arms the registry).
  for (int s = 0; s < part_.shards(); ++s) {
    Shard& sh = shards_[static_cast<std::size_t>(s)];
    const obs::Labels labels{{"shard", std::to_string(s)}};
    sh.bytes_posted = &obs::MetricsRegistry::instance().counter(
        "dlb_shard_channel_bytes_posted_total",
        "Bytes this shard posted into the cross-shard channel (framed "
        "halo segments and routed flow records).",
        labels);
    sh.bytes_drained = &obs::MetricsRegistry::instance().counter(
        "dlb_shard_channel_bytes_drained_total",
        "Bytes this shard drained from the cross-shard channel.", labels);
  }

  adopt(ConservationPolicy{config_.check_conservation,
                           config_.conservation_interval},
        static_cast<std::size_t>(part_.num_nodes()));
}

ShardedEngine::~ShardedEngine() = default;

void ShardedEngine::build_tier1_plan() {
  const int k = part_.shards();
  for (Shard& sh : shards_) {
    sh.expect_halo.assign(static_cast<std::size_t>(k), 0);
  }
  // Invert the halo geometry: shard t's halo segments, grouped by owner,
  // become the owners' send lists. Pure ring arithmetic — no adjacency is
  // ever consulted, so a 2^26-node implicit cycle plans in O(k) space.
  // The same inversion fixes the receivers' frame expectations: shard t
  // is owed exactly one frame per segment its halo borrows from `owner`,
  // which is what lets a drain tell "nothing crossed" from "a frame was
  // lost".
  for (int t = 0; t < k; ++t) {
    for (const HaloSegment& seg : ring_halo_segments(part_, t, reach_)) {
      Shard& owner = shards_[static_cast<std::size_t>(seg.owner)];
      owner.sends.push_back(HaloSend{
          t, reach_ + (seg.global_begin - owner.begin), seg.len,
          seg.window_offset, 0, 0});
      ++shards_[static_cast<std::size_t>(t)]
            .expect_halo[static_cast<std::size_t>(seg.owner)];
    }
  }
  // Stamp each send with its (seq, total) within the per-destination
  // stream (sends were built in ascending destination order, so a
  // stream's frames are contiguous and in order).
  std::vector<std::uint32_t> count(static_cast<std::size_t>(k));
  std::vector<std::uint32_t> next(static_cast<std::size_t>(k));
  for (Shard& sh : shards_) {
    std::fill(count.begin(), count.end(), 0);
    std::fill(next.begin(), next.end(), 0);
    for (const HaloSend& send : sh.sends) {
      ++count[static_cast<std::size_t>(send.to)];
    }
    for (HaloSend& send : sh.sends) {
      send.seq = next[static_cast<std::size_t>(send.to)]++;
      send.total = count[static_cast<std::size_t>(send.to)];
    }
  }
}

void ShardedEngine::build_tier2_plan() {
  // The edge cut, computed once: nodes with no cut edge (the common case
  // on structured graphs — only the slice boundary qualifies) take a
  // branch-free all-local scatter in the decide loop. The cut also fixes
  // the frame roster: shard s owes shard o exactly one flow frame per
  // round iff any s-owned node has a neighbor owned by o — posted even
  // when empty, so receivers can always distinguish "no flows" from "a
  // lost frame".
  const int d = g_->degree();
  const std::size_t k = static_cast<std::size_t>(part_.shards());
  with_topology(*g_, [&](const auto& topo) {
    for (int s = 0; s < part_.shards(); ++s) {
      Shard& sh = shards_[static_cast<std::size_t>(s)];
      sh.boundary.assign(static_cast<std::size_t>(sh.size), 0);
      sh.flow_out.resize(k);
      sh.flow_sends_to.assign(k, 0);
      for (NodeId i = 0; i < sh.size; ++i) {
        const NodeId u = sh.begin + i;
        for (int p = 0; p < d; ++p) {
          const int o = part_.owner(topo.neighbor(u, p));
          if (o != s) {
            sh.boundary[static_cast<std::size_t>(i)] = 1;
            ++sh.cut_edges;
            sh.flow_sends_to[static_cast<std::size_t>(o)] = 1;
          }
        }
      }
    }
  });
  for (int to = 0; to < part_.shards(); ++to) {
    Shard& rcv = shards_[static_cast<std::size_t>(to)];
    rcv.expect_flows.assign(k, 0);
    for (std::size_t from = 0; from < k; ++from) {
      rcv.expect_flows[from] = shards_[from].flow_sends_to[
          static_cast<std::size_t>(to)];
    }
  }
}

template <class Body>
void ShardedEngine::for_shards(bool parallel_ok, Body&& body) {
  const int k = part_.shards();
  ThreadPool* pool = thread_pool();
  if (parallel_ok && pool != nullptr && pool->parallelism() > 1 && k > 1) {
    pool->for_ranges(k, [&](std::int64_t first, std::int64_t last) {
      for (std::int64_t s = first; s < last; ++s) body(static_cast<int>(s));
    });
  } else {
    for (int s = 0; s < k; ++s) body(s);
  }
}

std::span<const Load> ShardedEngine::gather_into_scratch() const {
  scratch_.resize(static_cast<std::size_t>(part_.num_nodes()));
  const NodeId w = reach_ >= 0 ? reach_ : 0;
  for (const Shard& sh : shards_) {
    std::copy(sh.window.begin() + w, sh.window.begin() + w + sh.size,
              scratch_.begin() + sh.begin);
  }
  return {scratch_.data(), scratch_.size()};
}

LoadVector ShardedEngine::gather_loads() const {
  const std::span<const Load> all = gather_into_scratch();
  return LoadVector(all.begin(), all.end());
}

Load ShardedEngine::load_of(NodeId u) const {
  DLB_REQUIRE(u >= 0 && u < part_.num_nodes(), "load_of: node out of range");
  const Shard& sh = shards_[static_cast<std::size_t>(part_.owner(u))];
  return sh.window[static_cast<std::size_t>(window_slot(sh, u))];
}

void ShardedEngine::apply_workload() {
  WorkloadProcess* workload = this->workload();
  if (workload == nullptr) return;
  const Step t = time();
  // The serial prepare hook sees the global loads only when it actually
  // reads them (the adversarial argmax scan) — otherwise the O(n) gather
  // is skipped and the span is empty.
  const std::span<const Load> loads = workload->prepare_reads_loads()
                                          ? gather_into_scratch()
                                          : std::span<const Load>();
  {
    // Lend the engine's pool to prepare(), as the flat engine does.
    ThreadPool::Scope scope(thread_pool());
    workload->prepare(t, loads);
  }
  const NodeId w = reach_ >= 0 ? reach_ : 0;
  const bool logging = input_log_ != nullptr;
  // Applies delta d to node u on its owning shard (logged
  // post-truncation).
  const auto apply = [&](Shard& sh, NodeId u, Load d, ChurnTally& churn) {
    const Load applied = churn.apply(
        sh.window[static_cast<std::size_t>(w + (u - sh.begin))], d);
    if (logging && applied != 0) {
      sh.log_scratch.workload.emplace_back(u, applied);
    }
  };
  if (const std::vector<NodeId>* sparse = workload->affected_nodes()) {
    ChurnTally churn;
    for (const NodeId u : *sparse) {
      require_affected_node(u, static_cast<std::size_t>(part_.num_nodes()));
      apply(shards_[static_cast<std::size_t>(part_.owner(u))], u,
            workload->delta(u, t), churn);
    }
    record_churn(churn);
    return;
  }
  // Dense: each shard draws its own slice's nonzero deltas (the flat
  // engine's block scan, with shards as the blocks). Per-shard partials,
  // combined with commutative integer adds — identical totals for any
  // shard count or pool size.
  for_shards(workload->parallel_generate_safe(), [&](int s) {
    Shard& sh = shards_[static_cast<std::size_t>(s)];
    sh.churn = ChurnTally{};
    collect_nonzero_deltas(*workload, sh.begin, sh.begin + sh.size, t,
                           sh.churn_deltas);
    for (const auto& [u, d] : sh.churn_deltas) apply(sh, u, d, sh.churn);
  });
  for (const Shard& sh : shards_) record_churn(sh.churn);
}

void ShardedEngine::post_frame(int from, int to, ShardTag tag,
                               std::uint32_t seq, std::uint32_t total,
                               std::span<const std::byte> payload) {
  Shard& sh = shards_[static_cast<std::size_t>(from)];
  sh.frame_scratch.clear();
  append_frame(sh.frame_scratch, static_cast<std::uint8_t>(tag), from,
               time() + 1, seq, total, payload);
  channel_->post(from, to, tag,
                 std::span<const std::byte>(sh.frame_scratch.data(),
                                            sh.frame_scratch.size()));
  sh.bytes_posted->inc(sh.frame_scratch.size());
  shard_protocol().frames_posted.inc();
  if (!lossless_) {
    // Retention for selective re-post: the retry loop repeats exactly
    // these bytes, so a re-posted frame is indistinguishable from the
    // original on the wire.
    auto& stream = sh.sent_frames[static_cast<std::size_t>(to)];
    if (stream.size() <= seq) stream.resize(static_cast<std::size_t>(seq) + 1);
    stream[seq] = sh.frame_scratch;
  }
}

void ShardedEngine::reset_inbound(int s, ShardTag tag) {
  Shard& sh = shards_[static_cast<std::size_t>(s)];
  const int k = part_.shards();
  for (int from = 0; from < k; ++from) {
    InboundStream& st = sh.inbound[static_cast<std::size_t>(from)];
    if (tag == ShardTag::kHaloLoads) {
      st.expected = sh.expect_halo.empty()
                        ? 0
                        : sh.expect_halo[static_cast<std::size_t>(from)];
    } else {
      st.expected = sh.expect_flows.empty()
                        ? 0
                        : sh.expect_flows[static_cast<std::size_t>(from)];
    }
    st.received = 0;
    if (st.payloads.size() < st.expected) st.payloads.resize(st.expected);
    st.seen.assign(st.expected, 0);
  }
}

bool ShardedEngine::inbound_complete(int s) const {
  const Shard& sh = shards_[static_cast<std::size_t>(s)];
  for (const InboundStream& st : sh.inbound) {
    if (st.received < st.expected) return false;
  }
  return true;
}

void ShardedEngine::drain_frames(int s, ShardTag tag) {
  Shard& sh = shards_[static_cast<std::size_t>(s)];
  ShardProtocol& proto = shard_protocol();
  const std::int64_t round = time() + 1;
  const int k = part_.shards();
  channel_->drain(
      s, tag, [&](int from, std::span<const std::byte> bytes) {
        sh.bytes_drained->inc(bytes.size());
        std::size_t off = 0;
        while (off < bytes.size()) {
          FrameView frame;
          const FrameStatus status = decode_frame(bytes, off, frame);
          if (status == FrameStatus::kBadHeader) {
            // The rest of this delivery cannot be located; the retry
            // sweep re-posts whatever it carried.
            proto.err_header.inc();
            break;
          }
          if (status == FrameStatus::kTruncated) {
            proto.err_truncated.inc();
            break;
          }
          if (status == FrameStatus::kBadPayload) {
            proto.err_payload.inc();
            continue;
          }
          if (frame.round != round) {
            // A frame delayed across the round barrier: its round's
            // retry already re-posted it, so it is pure duplicate now.
            proto.err_stale.inc();
            continue;
          }
          if (frame.tag != static_cast<std::uint8_t>(tag) ||
              frame.from != from || frame.from < 0 || frame.from >= k) {
            proto.err_unexpected.inc();
            continue;
          }
          InboundStream& stream =
              sh.inbound[static_cast<std::size_t>(frame.from)];
          if (frame.total != stream.expected || frame.seq >= stream.expected) {
            proto.err_unexpected.inc();
            continue;
          }
          if (stream.seen[frame.seq]) {
            proto.err_duplicate.inc();
            continue;
          }
          stream.seen[frame.seq] = 1;
          stream.payloads[frame.seq].assign(frame.payload.begin(),
                                            frame.payload.end());
          ++stream.received;
          proto.frames_drained.inc();
        }
      });
}

void ShardedEngine::collect_frames(ShardTag tag) {
  ShardProtocol& proto = shard_protocol();
  const int k = part_.shards();
  for (int attempt = 0;; ++attempt) {
    for_shards(true, [&](int s) { drain_frames(s, tag); });
    int missing_to = -1;
    int missing_from = -1;
    for (int to = 0; to < k && missing_to < 0; ++to) {
      const Shard& rcv = shards_[static_cast<std::size_t>(to)];
      for (int from = 0; from < k; ++from) {
        const InboundStream& st =
            rcv.inbound[static_cast<std::size_t>(from)];
        if (st.received < st.expected) {
          missing_to = to;
          missing_from = from;
          break;
        }
      }
    }
    if (missing_to < 0) return;
    DLB_REQUIRE(!lossless_,
                "sharded engine: incomplete frame stream on a lossless "
                "channel (protocol bug, not transport weather)");
    if (attempt >= config_.fault.max_retries) {
      throw shard_fault_error(
          "sharded engine: frame stream " + std::to_string(missing_from) +
          " -> " + std::to_string(missing_to) + " (tag " +
          std::to_string(static_cast<int>(tag)) + ", round " +
          std::to_string(time() + 1) + ") still incomplete after " +
          std::to_string(attempt) + " re-post attempt(s) — sender lost?");
    }
    proto.retries.inc();
    backoff(attempt);
    // Re-post exactly the missing sequence numbers of every incomplete
    // stream; duplicates from crossed retries are deduplicated by seq.
    for (int to = 0; to < k; ++to) {
      Shard& rcv = shards_[static_cast<std::size_t>(to)];
      for (int from = 0; from < k; ++from) {
        InboundStream& st = rcv.inbound[static_cast<std::size_t>(from)];
        if (st.received >= st.expected) continue;
        Shard& snd = shards_[static_cast<std::size_t>(from)];
        const auto& retained = snd.sent_frames[static_cast<std::size_t>(to)];
        for (std::uint32_t seq = 0; seq < st.expected; ++seq) {
          if (st.seen[seq]) continue;
          DLB_REQUIRE(seq < retained.size() && !retained[seq].empty(),
                      "sharded engine: no retained frame to re-post");
          channel_->post(from, to, tag,
                         std::span<const std::byte>(retained[seq].data(),
                                                    retained[seq].size()));
          snd.bytes_posted->inc(retained[seq].size());
          proto.frames_posted.inc();
          proto.frames_reposted.inc();
        }
      }
    }
  }
}

void ShardedEngine::apply_halo_payload(Shard& sh,
                                       std::span<const std::byte> payload) {
  std::size_t off = 0;
  while (off < payload.size()) {
    NodeId hdr[2];
    DLB_REQUIRE(off + kHaloSegmentHeader <= payload.size(),
                "halo stream: truncated header");
    std::memcpy(hdr, payload.data() + off, kHaloSegmentHeader);
    const NodeId dest_window = hdr[0];
    const NodeId len = hdr[1];
    const std::size_t seg = static_cast<std::size_t>(len) * sizeof(Load);
    DLB_REQUIRE(off + kHaloSegmentHeader + seg <= payload.size(),
                "halo stream: truncated payload");
    DLB_REQUIRE(dest_window >= 0 && len >= 0 &&
                    static_cast<std::size_t>(dest_window) +
                            static_cast<std::size_t>(len) <=
                        sh.window.size(),
                "halo stream: segment out of window");
    std::memcpy(sh.window.data() + dest_window,
                payload.data() + off + kHaloSegmentHeader, seg);
    off += kHaloSegmentHeader + seg;
  }
}

void ShardedEngine::apply_flow_payload(Shard& sh,
                                       std::span<const std::byte> payload) {
  DLB_REQUIRE(payload.size() % kFlowRecordBytes == 0,
              "flow stream: truncated record");
  const EpochAccumulator::Scatter next(sh.acc);
  for (std::size_t off = 0; off < payload.size(); off += kFlowRecordBytes) {
    NodeId v;
    Load f;
    std::memcpy(&v, payload.data() + off, sizeof(NodeId));
    std::memcpy(&f, payload.data() + off + sizeof(NodeId), sizeof(Load));
    DLB_REQUIRE(v >= sh.begin && v < sh.begin + sh.size,
                "flow stream: node not owned by this shard");
    next.add(static_cast<std::size_t>(v - sh.begin), f);
  }
}

void ShardedEngine::apply_halo_frames(int s) {
  Shard& sh = shards_[static_cast<std::size_t>(s)];
  const bool logging = input_log_ != nullptr;
  const int k = part_.shards();
  // Ascending (sender, seq) order — fixed regardless of arrival order,
  // which is what keeps a faulted round byte-identical to a clean one.
  for (int from = 0; from < k; ++from) {
    const InboundStream& st = sh.inbound[static_cast<std::size_t>(from)];
    for (std::uint32_t seq = 0; seq < st.expected; ++seq) {
      const std::vector<std::byte>& payload = st.payloads[seq];
      apply_halo_payload(sh, std::span<const std::byte>(payload.data(),
                                                        payload.size()));
      if (logging) {
        sh.log_scratch.stream.insert(sh.log_scratch.stream.end(),
                                     payload.begin(), payload.end());
      }
    }
  }
}

void ShardedEngine::apply_flow_frames(int s) {
  Shard& sh = shards_[static_cast<std::size_t>(s)];
  const bool logging = input_log_ != nullptr;
  const int k = part_.shards();
  for (int from = 0; from < k; ++from) {
    const InboundStream& st = sh.inbound[static_cast<std::size_t>(from)];
    for (std::uint32_t seq = 0; seq < st.expected; ++seq) {
      const std::vector<std::byte>& payload = st.payloads[seq];
      apply_flow_payload(sh, std::span<const std::byte>(payload.data(),
                                                        payload.size()));
      if (logging) {
        sh.log_scratch.stream.insert(sh.log_scratch.stream.end(),
                                     payload.begin(), payload.end());
      }
    }
  }
}

void ShardedEngine::exchange_halos() {
  // Post phase: every shard serializes its boundary loads for the shards
  // whose halos it feeds, one checksummed frame per segment. Barrier
  // between the phases, so no drain starts before every post landed.
  for_shards(true, [&](int s) {
    Shard& sh = shards_[static_cast<std::size_t>(s)];
    reset_inbound(s, ShardTag::kHaloLoads);
    if (!lossless_) {
      for (auto& stream : sh.sent_frames) stream.clear();
    }
    for (const HaloSend& send : sh.sends) {
      sh.payload_scratch.clear();
      const NodeId hdr[2] = {send.dest_window, send.len};
      const auto* hb = reinterpret_cast<const std::byte*>(hdr);
      sh.payload_scratch.insert(sh.payload_scratch.end(), hb,
                                hb + kHaloSegmentHeader);
      const auto* lb = reinterpret_cast<const std::byte*>(
          sh.window.data() + send.src_window);
      sh.payload_scratch.insert(
          sh.payload_scratch.end(), lb,
          lb + static_cast<std::size_t>(send.len) * sizeof(Load));
      post_frame(s, send.to, ShardTag::kHaloLoads, send.seq, send.total,
                 std::span<const std::byte>(sh.payload_scratch.data(),
                                            sh.payload_scratch.size()));
    }
  });
  // Drain/validate/apply in one parallel pass: completeness is a
  // per-shard property, so a shard whose roster filled on the first
  // drain applies its frames without a third pool barrier. Only bytes
  // that passed both checksums and the (round, seq, total) checks ever
  // reach a load window; a shard with missing frames (lossy transport
  // weather) drops into the serial re-post loop below.
  std::vector<unsigned char> applied(
      static_cast<std::size_t>(part_.shards()), 0);
  std::atomic<bool> all_complete{true};
  for_shards(true, [&](int s) {
    drain_frames(s, ShardTag::kHaloLoads);
    if (inbound_complete(s)) {
      apply_halo_frames(s);
      applied[static_cast<std::size_t>(s)] = 1;
    } else {
      all_complete.store(false, std::memory_order_relaxed);
    }
  });
  if (!all_complete.load(std::memory_order_relaxed)) {
    collect_frames(ShardTag::kHaloLoads);
    for_shards(true, [&](int s) {
      if (!applied[static_cast<std::size_t>(s)]) apply_halo_frames(s);
    });
  }
}

void ShardedEngine::decide_tier1_core(Shard& sh, Balancer& bal, Step t) {
  sh.acc.begin_round();
  // Tier 1: the balancer's windowed gather kernel, single-touch over
  // the owned window slots, min/max fused into the emit sweep. Nothing
  // leaves the shard — the halo refill already happened.
  FlowSink sink(*g_, config_.self_loops, &sh.acc);
  bal.decide_window(
      std::span<const Load>(sh.window.data(), sh.window.size()), sh.begin,
      sh.size, reach_, t, sink);
  DLB_REQUIRE(sink.emit_covered() == sh.size,
              "decide_window did not cover every owned slot");
  sh.round_min = sink.emit_min();
  sh.round_max = sink.emit_max();
  // O(1) apply: the accumulator's owned slots are the next loads; its
  // (stale) halo slots are refilled before the next decide reads them.
  sh.window.swap(sh.acc.values());
}

void ShardedEngine::decide_tier2_core(int s, Shard& sh, Balancer& bal, Step t,
                                      bool discard_remote) {
  sh.acc.begin_round();
  // Tier 2: the default decide() loop over the owned slice — the same
  // contract enforcement as Balancer::decide_range — with flows routed by
  // owner: local ones scatter into the shard's accumulator, cross-shard
  // ones are staged per destination (or discarded during a replay, whose
  // peers already received the originals).
  const int d = g_->degree();
  const int d_plus = d + config_.self_loops;
  const bool negatives_ok = bal.allows_negative();
  std::vector<Load> row(static_cast<std::size_t>(d_plus));
  const EpochAccumulator::Scatter next(sh.acc);
  with_topology(*g_, [&](const auto& topo) {
    for (NodeId i = 0; i < sh.size; ++i) {
      const NodeId u = sh.begin + i;
      std::fill(row.begin(), row.end(), 0);
      const Load x = sh.window[static_cast<std::size_t>(i)];
      bal.decide(u, x, t, row);
      Load sent = 0;
      for (int p = 0; p < d_plus; ++p) {
        DLB_ASSERT(negatives_ok || row[static_cast<std::size_t>(p)] >= 0,
                   "balancer produced a negative flow");
        sent += row[static_cast<std::size_t>(p)];
      }
      const Load remainder = x - sent;
      DLB_REQUIRE(negatives_ok || remainder >= 0,
                  "balancer sent more tokens than available");
      Load kept = remainder;
      for (int p = d; p < d_plus; ++p) {
        kept += row[static_cast<std::size_t>(p)];
      }
      next.add(static_cast<std::size_t>(i), kept);
      if (!sh.boundary[static_cast<std::size_t>(i)]) {
        // Interior node: every neighbor is local by the cut table.
        for (int p = 0; p < d; ++p) {
          next.add(static_cast<std::size_t>(topo.neighbor(u, p) - sh.begin),
                   row[static_cast<std::size_t>(p)]);
        }
      } else {
        for (int p = 0; p < d; ++p) {
          const NodeId v = topo.neighbor(u, p);
          const Load f = row[static_cast<std::size_t>(p)];
          const int o = part_.owner(v);
          if (o == s) {
            next.add(static_cast<std::size_t>(v - sh.begin), f);
          } else if (f != 0 && !discard_remote) {
            append_flow(sh.flow_out[static_cast<std::size_t>(o)], v, f);
          }
        }
      }
    }
  });
}

void ShardedEngine::decide_shard(int s, Step t) {
  obs::TraceSpan span("decide", "shard", "shard", s);
  Shard& sh = shards_[static_cast<std::size_t>(s)];
  if (reach_ >= 0) {
    decide_tier1_core(sh, *balancer_, t);
    return;
  }
  reset_inbound(s, ShardTag::kFlows);
  if (!lossless_) {
    for (auto& stream : sh.sent_frames) stream.clear();
  }
  decide_tier2_core(s, sh, *balancer_, t, /*discard_remote=*/false);
  // One frame per rostered destination, always — an empty frame is the
  // positive statement "no flows crossed this edge this round", which is
  // what makes loss detectable without timeouts.
  for (int o = 0; o < part_.shards(); ++o) {
    if (!sh.flow_sends_to[static_cast<std::size_t>(o)]) continue;
    std::vector<std::byte>& buf = sh.flow_out[static_cast<std::size_t>(o)];
    post_frame(s, o, ShardTag::kFlows, 0, 1,
               std::span<const std::byte>(buf.data(), buf.size()));
    buf.clear();
  }
}

void ShardedEngine::drain_flows() {
  // Same fused happy path as exchange_halos: drain, and when the
  // shard's roster is already full, apply + finalize in the same pool
  // pass. Stragglers take the serial re-post loop and finish after.
  const auto finish = [&](int s) {
    Shard& sh = shards_[static_cast<std::size_t>(s)];
    apply_flow_frames(s);
    // All of the round's adds (local + drained) have landed: materialize
    // the next loads, fold min/max into the same sweep, and swap.
    sh.acc.finalize_stats(sh.round_min, sh.round_max);
    sh.window.swap(sh.acc.values());
  };
  std::vector<unsigned char> applied(
      static_cast<std::size_t>(part_.shards()), 0);
  std::atomic<bool> all_complete{true};
  for_shards(true, [&](int s) {
    drain_frames(s, ShardTag::kFlows);
    if (inbound_complete(s)) {
      finish(s);
      applied[static_cast<std::size_t>(s)] = 1;
    } else {
      all_complete.store(false, std::memory_order_relaxed);
    }
  });
  if (!all_complete.load(std::memory_order_relaxed)) {
    collect_frames(ShardTag::kFlows);
    for_shards(true, [&](int s) {
      if (!applied[static_cast<std::size_t>(s)]) finish(s);
    });
  }
}

void ShardedEngine::backoff(int attempt) const {
  const auto& fault = config_.fault;
  if (fault.backoff_ns == 0) return;
  const int shift = std::min(attempt, 20);
  std::uint64_t ns = fault.backoff_ns << shift;
  if (fault.backoff_cap_ns > 0) ns = std::min(ns, fault.backoff_cap_ns);
  std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

void ShardedEngine::advance(ThreadPool* /*pool*/) {
  DLB_REQUIRE(dead_count_ == 0,
              "sharded engine: cannot step with a dead shard — the "
              "supervisor must recover it first");
  const Step t = time();
  // Round barrier notification: deferred transport state (a fault
  // injector's delayed frames) surfaces now, before any post of this
  // round.
  channel_->begin_round(t + 1);
  if (input_log_ != nullptr) {
    for (Shard& sh : shards_) {
      sh.log_scratch.workload.clear();
      sh.log_scratch.stream.clear();
    }
  }
  apply_workload();
  {
    obs::PhaseScope phase(shard_phases().prepare, "prepare", "sharded", "t",
                          t + 1);
    // Serial once-per-round hook, before any shard decides — exactly the
    // decide_all contract. The sink exists only to convey graph/mode (no
    // built-in prepare_round writes flows); global loads are gathered
    // only for balancers that declare they read them.
    const std::span<const Load> loads = balancer_->prepare_reads_loads()
                                            ? gather_into_scratch()
                                            : std::span<const Load>();
    FlowSink sink(*g_, config_.self_loops, &shards_[0].acc);
    balancer_->prepare_round(loads, t, sink);
  }
  const bool parallel_decide = balancer_->parallel_decide_safe();
  if (reach_ >= 0) {
    {
      obs::PhaseScope phase(shard_phases().halo, "halo", "sharded", "t",
                            t + 1);
      exchange_halos();
    }
    obs::PhaseScope phase(shard_phases().decide, "decide", "sharded", "t",
                          t + 1);
    for_shards(parallel_decide, [&](int s) { decide_shard(s, t); });
  } else {
    {
      // Serial shard order when the balancer is not parallel-safe keeps
      // e.g. a sequential RNG stream in ascending node order — the same
      // trajectory as the flat serial engine.
      obs::PhaseScope phase(shard_phases().decide, "decide", "sharded", "t",
                            t + 1);
      for_shards(parallel_decide, [&](int s) { decide_shard(s, t); });
    }
    obs::PhaseScope phase(shard_phases().drain, "drain", "sharded", "t",
                          t + 1);
    drain_flows();
  }
  LoadScan round;
  for (const Shard& sh : shards_) {
    round.lo = std::min(round.lo, sh.round_min);
    round.hi = std::max(round.hi, sh.round_max);
  }
  publish_round_stats(round.lo, round.hi);
}

void ShardedEngine::after_commit() {
  if (input_log_ == nullptr) return;
  // After the clock committed, so `round` is the committed round number
  // — the supervisor's log and the engine clock can never disagree.
  for (int s = 0; s < part_.shards(); ++s) {
    input_log_->record_round(s, time(),
                             shards_[static_cast<std::size_t>(s)].log_scratch);
  }
}

void ShardedEngine::kill_shard(int s) {
  DLB_REQUIRE(s >= 0 && s < part_.shards(), "kill_shard: shard out of range");
  Shard& sh = shards_[static_cast<std::size_t>(s)];
  DLB_REQUIRE(!dead_[static_cast<std::size_t>(s)],
              "kill_shard: shard is already dead");
  // SIGKILL semantics: the slice is *gone*, not paused — anything short
  // of a checkpoint restore must not be able to resurrect it.
  std::fill(sh.window.begin(), sh.window.end(), 0);
  sh.acc.reset(sh.window.size());
  for (auto& buf : sh.flow_out) buf.clear();
  for (auto& stream : sh.sent_frames) stream.clear();
  dead_[static_cast<std::size_t>(s)] = 1;
  ++dead_count_;
}

bool ShardedEngine::shard_dead(int s) const {
  DLB_REQUIRE(s >= 0 && s < part_.shards(), "shard_dead: shard out of range");
  return dead_[static_cast<std::size_t>(s)] != 0;
}

void ShardedEngine::recover_shard(int s, Step t0,
                                  std::span<const Load> loads_at_t0,
                                  std::span<const ShardRoundInputs* const>
                                      rounds,
                                  Balancer* replay_balancer) {
  DLB_REQUIRE(s >= 0 && s < part_.shards(),
              "recover_shard: shard out of range");
  DLB_REQUIRE(dead_[static_cast<std::size_t>(s)],
              "recover_shard: shard is not dead");
  DLB_REQUIRE(loads_at_t0.size() ==
                  static_cast<std::size_t>(part_.num_nodes()),
              "recover_shard: checkpoint load vector has wrong size");
  DLB_REQUIRE(t0 >= 0 && t0 + static_cast<Step>(rounds.size()) == time(),
              "recover_shard: round inputs do not span t0+1 .. now");
  Shard& sh = shards_[static_cast<std::size_t>(s)];
  const NodeId w = reach_ >= 0 ? reach_ : 0;
  std::copy(loads_at_t0.begin() + sh.begin,
            loads_at_t0.begin() + sh.begin + sh.size, sh.window.begin() + w);
  Balancer& bal = replay_balancer != nullptr ? *replay_balancer : *balancer_;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    DLB_REQUIRE(rounds[i] != nullptr, "recover_shard: missing round inputs");
    const ShardRoundInputs& in = *rounds[i];
    // The round that committed at time t0+i+1 ran its decides at
    // t = t0+i — replay must present the same clock.
    const Step t = t0 + static_cast<Step>(i);
    for (const auto& [u, delta] : in.workload) {
      DLB_REQUIRE(u >= sh.begin && u < sh.begin + sh.size,
                  "recover_shard: logged workload node not owned");
      sh.window[static_cast<std::size_t>(w + (u - sh.begin))] += delta;
    }
    if (replay_balancer != nullptr) {
      // A stateful replica follows the live balancer's full per-round
      // protocol (ROTOR-ROUTER's lazy table, per-edge carries) so its
      // decides reproduce the lost shard's flows bit-exactly. Replay is
      // gated on !prepare_reads_loads, so the empty span is safe.
      FlowSink sink(*g_, config_.self_loops, &sh.acc);
      replay_balancer->prepare_round(std::span<const Load>(), t, sink);
    }
    if (reach_ >= 0) {
      apply_halo_payload(
          sh, std::span<const std::byte>(in.stream.data(), in.stream.size()));
      decide_tier1_core(sh, bal, t);
    } else {
      decide_tier2_core(s, sh, bal, t, /*discard_remote=*/true);
      apply_flow_payload(
          sh, std::span<const std::byte>(in.stream.data(), in.stream.size()));
      Load lo = 0;
      Load hi = 0;
      sh.acc.finalize_stats(lo, hi);
      sh.window.swap(sh.acc.values());
    }
  }
  dead_[static_cast<std::size_t>(s)] = 0;
  --dead_count_;
}

LoadScan ShardedEngine::scan_loads(bool with_sum) const {
  const NodeId w = reach_ >= 0 ? reach_ : 0;
  LoadScan scan;
  for (const Shard& sh : shards_) {
    scan.add(std::span<const Load>(sh.window.data() + w,
                                   static_cast<std::size_t>(sh.size)),
             with_sum);
  }
  return scan;
}

std::size_t ShardedEngine::shard_resident_bytes(int s) const {
  const Shard& sh = shards_[static_cast<std::size_t>(s)];
  // Load window + accumulator values (both Load) + epoch stamps (1 byte).
  return sh.window.size() * sizeof(Load) +
         sh.acc.size() * (sizeof(Load) + 1);
}

std::size_t ShardedEngine::shard_halo_bytes(int s) const {
  if (reach_ >= 0) {
    // 2W halo slots in the window and in the accumulator's value array,
    // plus their epoch stamps.
    return static_cast<std::size_t>(2 * reach_) * (2 * sizeof(Load) + 1);
  }
  const Shard& sh = shards_[static_cast<std::size_t>(s)];
  std::size_t bytes = 0;
  for (const auto& buf : sh.flow_out) bytes += buf.capacity();
  return bytes;
}

std::uint64_t ShardedEngine::shard_cut_edges(int s) const {
  return shards_[static_cast<std::size_t>(s)].cut_edges;
}

void ShardedEngine::write_loads(StateWriter& w) const {
  w.vec_i64(gather_into_scratch());
}

void ShardedEngine::read_loads(StateReader& r) {
  const std::vector<std::int64_t> loads = r.vec_i64();
  if (loads.size() != static_cast<std::size_t>(part_.num_nodes())) {
    throw serial_error("engine core state: load vector size mismatch");
  }
  const NodeId w = reach_ >= 0 ? reach_ : 0;
  for (Shard& sh : shards_) {
    std::copy(loads.begin() + sh.begin, loads.begin() + sh.begin + sh.size,
              sh.window.begin() + w);
  }
  std::fill(dead_.begin(), dead_.end(), 0);
  dead_count_ = 0;
}

}  // namespace dlb
