#include "service/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <type_traits>

#include "dynamics/workload.hpp"
#include "shard/sharded_engine.hpp"

namespace dlb {

namespace {

constexpr std::uint64_t kMagic = 0x31504E53424C44ULL;  // "DLBSNP1\0" LE

void check(bool ok, const char* what) {
  if (!ok) throw serial_error(what);
}

/// Writes one length-prefixed component blob.
void put_blob(StateWriter& w, const std::vector<std::uint8_t>& blob) {
  w.u64(blob.size());
  w.bytes(blob);
}

std::vector<std::uint8_t> get_blob(StateReader& r) {
  const std::uint64_t len = r.u64();
  if (len > r.remaining()) {
    throw serial_error("snapshot payload truncated (bad section length)");
  }
  const auto s = r.bytes(static_cast<std::size_t>(len));
  return {s.begin(), s.end()};
}

}  // namespace

template <class EngineT>
EngineSnapshot EngineSnapshot::capture_impl(const EngineT& engine,
                                            const SteadyStateTracker* tracker) {
  EngineSnapshot s;
  const Graph& g = engine.graph();
  s.n_ = g.num_nodes();
  s.d_ = g.degree();
  s.self_loops_ = engine.self_loops();
  s.structure_kind_ = static_cast<std::uint8_t>(g.structure().kind);
  s.extents_ = g.structure().extents;
  s.adjacency_hash_ = g.adjacency_fingerprint();
  s.graph_name_ = g.name();
  s.balancer_name_ = engine.balancer().name();
  s.capture_state(engine, tracker);
  return s;
}

template <class EngineT>
void EngineSnapshot::capture_state(const EngineT& engine,
                                   const SteadyStateTracker* tracker) {
  time_ = engine.time();

  StateWriter core;
  engine.save_core_state(core);
  core_blob_ = core.take();

  StateWriter bal;
  engine.balancer().save_state(bal);
  balancer_blob_ = bal.take();

  if (const WorkloadProcess* w = engine.workload()) {
    workload_name_ = w->name();
    StateWriter ww;
    w->save_state(ww);
    workload_blob_ = ww.take();
  }
  if (tracker != nullptr) {
    has_tracker_ = true;
    StateWriter tw;
    tracker->save_state(tw);
    tracker_blob_ = tw.take();
  }
}

EngineSnapshot EngineSnapshot::capture(const Engine& engine,
                                       const SteadyStateTracker* tracker) {
  return capture_impl(engine, tracker);
}

EngineSnapshot EngineSnapshot::capture(const ShardedEngine& engine,
                                       const SteadyStateTracker* tracker) {
  return capture_impl(engine, tracker);
}

template <class EngineT>
void EngineSnapshot::restore_impl(EngineT& engine,
                                  SteadyStateTracker* tracker) const {
  // Full fingerprint validation BEFORE any component is touched: a
  // restore either happens completely or leaves the engine untouched.
  const Graph& g = engine.graph();
  check(g.num_nodes() == n_, "snapshot restore: node count mismatch");
  check(g.degree() == d_, "snapshot restore: degree mismatch");
  check(engine.self_loops() == self_loops_,
        "snapshot restore: self-loop count mismatch");
  check(static_cast<std::uint8_t>(g.structure().kind) == structure_kind_,
        "snapshot restore: graph structure tag mismatch");
  check(g.structure().extents == extents_,
        "snapshot restore: torus extents mismatch");
  check(g.adjacency_fingerprint() == adjacency_hash_,
        "snapshot restore: adjacency table mismatch (different topology)");
  check(engine.balancer().name() == balancer_name_,
        "snapshot restore: balancer mismatch");
  if (workload_name_.empty()) {
    check(engine.workload() == nullptr,
          "snapshot restore: engine has a workload but the snapshot "
          "captured none");
  } else {
    check(engine.workload() != nullptr,
          "snapshot restore: snapshot captured a workload but none is "
          "attached");
    check(engine.workload()->name() == workload_name_,
          "snapshot restore: workload mismatch");
  }
  check(has_tracker_ == (tracker != nullptr),
        has_tracker_
            ? "snapshot restore: snapshot carries a tracker but none was "
              "supplied"
            : "snapshot restore: a tracker was supplied but the snapshot "
              "carries none");

  // Component blobs apply one after another, so a blob that fails late
  // (a trailing byte, an out-of-range rotor position) would leave the
  // ones before it applied. On any throw, re-apply a capture of the
  // target's own state, then rethrow: a failed restore leaves the
  // engine, its balancer, its workload and the tracker untouched.
  EngineSnapshot rollback;
  rollback.capture_state(engine, tracker);
  std::vector<int> dead;  // killed shards stay dead: their slices are gone
  if constexpr (std::is_same_v<EngineT, ShardedEngine>) {
    for (int s = 0; s < engine.shards(); ++s) {
      if (engine.shard_dead(s)) dead.push_back(s);
    }
  }
  try {
    apply_state(engine, tracker);
  } catch (...) {
    rollback.apply_state(engine, tracker);
    if constexpr (std::is_same_v<EngineT, ShardedEngine>) {
      for (const int s : dead) engine.kill_shard(s);
    }
    throw;
  }
}

template <class EngineT>
void EngineSnapshot::apply_state(EngineT& engine,
                                 SteadyStateTracker* tracker) const {
  // Each load_state validates sizes and ranges before assigning, and each
  // blob must be consumed exactly.
  {
    StateReader r(core_blob_);
    engine.load_core_state(r);
    r.expect_done("engine core state");
  }
  {
    StateReader r(balancer_blob_);
    engine.balancer().load_state(r);
    r.expect_done("balancer state");
  }
  if (!workload_name_.empty()) {
    StateReader r(workload_blob_);
    engine.workload()->load_state(r);
    r.expect_done("workload state");
  }
  if (has_tracker_) {
    StateReader r(tracker_blob_);
    tracker->load_state(r);
    r.expect_done("tracker state");
  }
}

void EngineSnapshot::restore(Engine& engine,
                             SteadyStateTracker* tracker) const {
  restore_impl(engine, tracker);
}

void EngineSnapshot::restore(ShardedEngine& engine,
                             SteadyStateTracker* tracker) const {
  restore_impl(engine, tracker);
}

std::vector<std::uint8_t> EngineSnapshot::serialize() const {
  // Header and payload share one exactly-sized buffer: the payload is
  // written after a placeholder header, whose length and checksum are
  // patched in once the payload is complete.
  constexpr std::size_t kHeader = 8 + 4 + 8 + 8;  // magic, version, len, sum
  constexpr std::size_t kLenAt = 8 + 4;
  // n, d, self-loops, structure tag, adjacency hash, time, tracker flag,
  // and the eight length prefixes (extents, three names, four blobs).
  constexpr std::size_t kFixed = 3 * 4 + 1 + 8 + 8 + 1 + 8 * 8;
  StateWriter w;
  w.reserve(kHeader + kFixed + 4 * extents_.size() + graph_name_.size() +
            balancer_name_.size() + workload_name_.size() + core_blob_.size() +
            balancer_blob_.size() + workload_blob_.size() +
            tracker_blob_.size());
  w.u64(kMagic);
  w.u32(kFormatVersion);
  w.u64(0);  // payload length, patched below
  w.u64(0);  // payload checksum, patched below
  w.i32(n_);
  w.i32(d_);
  w.i32(self_loops_);
  w.u8(structure_kind_);
  w.vec_i32(extents_);
  w.u64(adjacency_hash_);
  w.str(graph_name_);
  w.str(balancer_name_);
  w.str(workload_name_);
  w.i64(time_);
  w.b(has_tracker_);
  put_blob(w, core_blob_);
  put_blob(w, balancer_blob_);
  put_blob(w, workload_blob_);
  put_blob(w, tracker_blob_);

  std::vector<std::uint8_t> image = w.take();
  const std::span<const std::uint8_t> payload(image.data() + kHeader,
                                              image.size() - kHeader);
  StateWriter fields;
  fields.u64(payload.size());
  fields.u64(fnv1a64(payload));
  std::copy(fields.data().begin(), fields.data().end(),
            image.begin() + kLenAt);
  return image;
}

EngineSnapshot EngineSnapshot::deserialize(
    std::span<const std::uint8_t> bytes) {
  StateReader header(bytes);
  if (header.remaining() < 8 || header.u64() != kMagic) {
    throw serial_error("not a DLB snapshot (bad magic)");
  }
  const std::uint32_t version = header.u32();
  if (version != kFormatVersion) {
    throw serial_error("unsupported snapshot format version " +
                       std::to_string(version) + " (this build reads " +
                       std::to_string(kFormatVersion) + ")");
  }
  const std::uint64_t payload_len = header.u64();
  const std::uint64_t checksum = header.u64();
  if (payload_len != header.remaining()) {
    throw serial_error("snapshot truncated (payload length mismatch)");
  }
  const auto payload_bytes =
      header.bytes(static_cast<std::size_t>(payload_len));
  if (fnv1a64(payload_bytes) != checksum) {
    throw serial_error("snapshot checksum mismatch (corrupted file)");
  }

  StateReader r(payload_bytes);
  EngineSnapshot s;
  s.n_ = r.i32();
  s.d_ = r.i32();
  s.self_loops_ = r.i32();
  s.structure_kind_ = r.u8();
  s.extents_ = r.vec_i32();
  s.adjacency_hash_ = r.u64();
  s.graph_name_ = r.str();
  s.balancer_name_ = r.str();
  s.workload_name_ = r.str();
  s.time_ = r.i64();
  s.has_tracker_ = r.b();
  s.core_blob_ = get_blob(r);
  s.balancer_blob_ = get_blob(r);
  s.workload_blob_ = get_blob(r);
  s.tracker_blob_ = get_blob(r);
  r.expect_done("snapshot payload");
  return s;
}

void EngineSnapshot::write_file(const std::string& path) const {
  write_image(path, serialize());
}

void EngineSnapshot::write_image(const std::string& path,
                                 std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  // POSIX write-fsync-rename: the image is durable *before* it takes the
  // checkpoint's name, so a crash mid-write leaves either the old intact
  // checkpoint or a stray .tmp — never a torn file under `path`. Each
  // failure mode gets its own message (ENOSPC is the one operators hit).
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw serial_error("snapshot write: cannot open temporary file " + tmp +
                       ": " + std::strerror(errno));
  }
  auto fail = [&](const std::string& what) {
    const int saved = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    if (saved == ENOSPC) {
      throw serial_error("snapshot write: no space left on device (" + what +
                         " " + tmp + ")");
    }
    throw serial_error("snapshot write: " + what + " " + tmp + ": " +
                       std::strerror(saved));
  };
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + written,
                              bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("write failed for");
    }
    if (n == 0) {
      // A zero-byte write on a regular file is a short write in disguise
      // (typically a full filesystem that has not reported ENOSPC yet).
      errno = ENOSPC;
      fail("short write to");
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) fail("fsync failed for");
  if (::close(fd) != 0) {
    // close() can surface deferred write errors (NFS, quotas); the fd is
    // gone either way, so only unlink and report.
    const int saved = errno;
    ::unlink(tmp.c_str());
    throw serial_error("snapshot write: close failed for " + tmp + ": " +
                       std::strerror(saved));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int saved = errno;
    ::unlink(tmp.c_str());
    throw serial_error("snapshot write: rename " + tmp + " -> " + path +
                       " failed: " + std::strerror(saved));
  }
}

EngineSnapshot EngineSnapshot::read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw serial_error("snapshot read: cannot open " + path);
  }
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  check(!in.bad(), "snapshot read: read failed");
  return deserialize(bytes);
}

}  // namespace dlb
