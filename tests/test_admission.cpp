// AdmissionQueue under the engine's pool: the inner delta scan of a
// dense, parallel-safe process fans out over the pool an engine lends to
// prepare() (ThreadPool::current()), while the FIFO budget pass stays
// serial. The load-bearing property: the round table, the touched-node
// order, the backlog deque and the engine's per-round rows are identical
// with no pool, with pools of 1, 2, 3 and 8 threads, through step() and
// step_parallel(), under a tight cap with partial admission and across a
// mid-backlog snapshot/restore. Sparse and non-parallel-safe inner
// processes keep the serial scan. Also pinned: the O(1) running
// backlog_total() equals the deque sum after every prepare and restore.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "balancers/registry.hpp"
#include "core/engine.hpp"
#include "dynamics/workload.hpp"
#include "graph/generators.hpp"
#include "service/admission.hpp"
#include "service/snapshot.hpp"
#include "util/serial.hpp"
#include "util/thread_pool.hpp"

namespace dlb {
namespace {

constexpr NodeId kSide = 256;  // 2^16 nodes
constexpr Step kRounds = 16;

/// Forwarding inner process that records how the admission queue drives
/// it: whether prepare() was lent a pool, whether delta() ran off the
/// owning thread or out of ascending order, and how often it ran.
/// `parallel_safe` = false withholds the inner's parallel-generation
/// opt-in, turning it into a process that must be scanned serially.
class ProbeWorkload final : public WorkloadProcess {
 public:
  ProbeWorkload(WorkloadProcess& inner, bool parallel_safe)
      : inner_(&inner), parallel_safe_(parallel_safe) {}

  std::string name() const override { return inner_->name(); }
  void reset(NodeId n, std::uint64_t seed) override { inner_->reset(n, seed); }
  void prepare(Step t, std::span<const Load> loads) override {
    if (ThreadPool::current() != nullptr) lent_pool_rounds_++;
    last_u_ = -1;
    inner_->prepare(t, loads);
  }
  Load delta(NodeId u, Step t) override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    if (std::this_thread::get_id() != owner_) {
      off_thread_.store(true, std::memory_order_relaxed);
    } else {
      if (u <= last_u_) out_of_order_ = true;
      last_u_ = u;
    }
    return inner_->delta(u, t);
  }
  bool parallel_generate_safe() const override {
    return parallel_safe_ && inner_->parallel_generate_safe();
  }
  const std::vector<NodeId>* affected_nodes() const override {
    return inner_->affected_nodes();
  }
  void save_state(StateWriter& w) const override { inner_->save_state(w); }
  void load_state(StateReader& r) override { inner_->load_state(r); }

  int lent_pool_rounds() const { return lent_pool_rounds_; }
  long calls() const { return calls_.load(); }
  bool off_thread() const { return off_thread_.load(); }
  bool out_of_order() const { return out_of_order_; }

 private:
  WorkloadProcess* inner_;
  bool parallel_safe_;
  std::thread::id owner_ = std::this_thread::get_id();
  int lent_pool_rounds_ = 0;
  std::atomic<long> calls_{0};
  std::atomic<bool> off_thread_{false};
  NodeId last_u_ = -1;
  bool out_of_order_ = false;
};

enum class Inner { kPoisson, kBurst, kSerialPoisson };

enum class Stepping { kStep, kStepParallel };

/// Everything one leg observes, round by round.
struct Trace {
  std::vector<std::vector<std::pair<NodeId, Load>>> tables;  // affected order
  std::vector<std::uint64_t> backlog_digests;  // FNV of the queue's state
  std::string csv;                             // engine rows
  std::size_t final_backlog_entries = 0;
};

std::uint64_t fnv(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ULL;
  return h;
}

/// Σ amount over the backlog, parsed from the queue's snapshot state
/// (the inner PoissonWorkload / BurstWorkload state is one u64 seed).
Load backlog_sum(const std::vector<std::uint8_t>& state) {
  StateReader r(state);
  r.u64();  // inner seed
  const std::uint64_t count = r.u64();
  Load sum = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    r.i32();
    sum += r.i64();
  }
  return sum;
}

std::vector<std::uint8_t> queue_state(const AdmissionQueue& q) {
  StateWriter w;
  q.save_state(w);
  return w.take();
}

/// A complete engine stack: torus, ROTOR-ROUTER, inner process (behind a
/// probe), admission queue, optional pool.
struct Rig {
  Graph g = make_torus2d(kSide, kSide);
  std::unique_ptr<Balancer> balancer = find_balancer_factory("ROTOR-ROUTER")(7);
  std::unique_ptr<WorkloadProcess> inner;
  std::unique_ptr<ProbeWorkload> probe;
  std::unique_ptr<AdmissionQueue> queue;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<Engine> engine;

  Rig(Inner kind, Load cap, int threads) {
    if (kind == Inner::kBurst) {
      inner = std::make_unique<BurstWorkload>(
          BurstWorkload::Params{.period = 3, .burst = 5000});
    } else {
      inner = std::make_unique<PoissonWorkload>(
          PoissonWorkload::Params{.arrival_rate = 0.3, .departure_rate = 0.05});
    }
    probe = std::make_unique<ProbeWorkload>(*inner,
                                            kind != Inner::kSerialPoisson);
    queue = std::make_unique<AdmissionQueue>(
        *probe, AdmissionQueue::Params{.round_cap = cap});
    queue->reset(g.num_nodes(), 42);
    engine = std::make_unique<Engine>(
        g, EngineConfig{.self_loops = g.degree()}, *balancer,
        LoadVector(static_cast<std::size_t>(g.num_nodes()), 8));
    engine->set_workload(queue.get());
    if (threads > 0) {
      pool = std::make_unique<ThreadPool>(threads);
      engine->set_thread_pool(pool.get());
    }
  }

  void run(Step rounds, Stepping how, Trace& out) {
    for (Step i = 0; i < rounds; ++i) {
      const Step t = engine->time();
      if (how == Stepping::kStep) {
        engine->step();
      } else {
        engine->step_parallel();
      }
      auto& table = out.tables.emplace_back();
      for (NodeId u : *queue->affected_nodes()) {
        table.emplace_back(u, queue->delta(u, t));
      }
      const std::vector<std::uint8_t> state = queue_state(*queue);
      out.backlog_digests.push_back(fnv(state));
      EXPECT_EQ(queue->backlog_total(), backlog_sum(state))
          << "running backlog total drifted at t=" << t;
      std::ostringstream row;
      std::uint64_t loads = 0xcbf29ce484222325ULL;
      for (Load x : engine->loads()) {
        loads = (loads ^ static_cast<std::uint64_t>(x)) * 0x100000001b3ULL;
      }
      row << engine->time() << ',' << engine->discrepancy() << ','
          << engine->min_load_seen() << ',' << engine->injected_total()
          << ',' << engine->consumed_total() << ',' << engine->total() << ','
          << std::hex << loads << '\n';
      out.csv += row.str();
    }
    out.final_backlog_entries = queue->backlog_entries();
  }
};

void expect_same(const Trace& got, const Trace& want, const std::string& leg) {
  SCOPED_TRACE(leg);
  ASSERT_EQ(got.tables.size(), want.tables.size());
  for (std::size_t i = 0; i < want.tables.size(); ++i) {
    EXPECT_EQ(got.tables[i], want.tables[i])
        << "round table / affected order differs in round " << i;
  }
  EXPECT_EQ(got.backlog_digests, want.backlog_digests);
  EXPECT_EQ(got.csv, want.csv);
}

/// Serial reference: no pool, step().
Trace reference(Inner kind, Load cap) {
  Rig rig(kind, cap, 0);
  Trace t;
  rig.run(kRounds, Stepping::kStep, t);
  return t;
}

// Mean positive inner delta is ~0.25·n ≈ 16k tokens a round: a cap of
// 1500 leaves most of every round queued (growing backlog, partial FIFO
// admission every round); a cap of n admits almost everything.
constexpr Load kTightCap = 1500;
constexpr Load kLooseCap = kSide * kSide;

TEST(PooledAdmission, IdenticalAtEveryPoolSizeAndSteppingMode) {
  for (const Load cap : {kTightCap, kLooseCap}) {
    const Trace ref = reference(Inner::kPoisson, cap);
    // The tight leg must actually exercise the backlog.
    if (cap == kTightCap) {
      EXPECT_GT(ref.final_backlog_entries, 100000u);
    }
    for (const int threads : {1, 2, 3, 8}) {
      for (const Stepping how : {Stepping::kStep, Stepping::kStepParallel}) {
        Rig rig(Inner::kPoisson, cap, threads);
        Trace t;
        rig.run(kRounds, how, t);
        expect_same(t, ref,
                    "cap=" + std::to_string(cap) + " threads=" +
                        std::to_string(threads) + " step_parallel=" +
                        std::to_string(how == Stepping::kStepParallel));
        // The pool is lent to prepare() exactly on parallel rounds.
        const bool lent = how == Stepping::kStepParallel && threads > 1;
        EXPECT_EQ(rig.probe->lent_pool_rounds(), lent ? kRounds : 0);
      }
    }
  }
}

TEST(PooledAdmission, MidBacklogSnapshotRestoreMatchesUninterrupted) {
  const Trace ref = reference(Inner::kPoisson, kTightCap);
  const Step half = kRounds / 2;
  std::vector<std::uint8_t> image;
  Trace t;
  {
    Rig first(Inner::kPoisson, kTightCap, 3);
    first.run(half, Stepping::kStepParallel, t);
    ASSERT_GT(first.queue->backlog_entries(), 0u);
    image = EngineSnapshot::capture(*first.engine).serialize();
  }
  Rig second(Inner::kPoisson, kTightCap, 8);
  EngineSnapshot::deserialize(image).restore(*second.engine);
  // The running total is derived from the restored pairs.
  EXPECT_GT(second.queue->backlog_total(), 0);
  EXPECT_EQ(second.queue->backlog_total(),
            backlog_sum(queue_state(*second.queue)));
  second.run(kRounds - half, Stepping::kStepParallel, t);
  expect_same(t, ref, "restored at t=" + std::to_string(half));
}

TEST(PooledAdmission, SparseInnerKeepsTheListScan) {
  // BurstWorkload without a drain is sparse every round: the queue asks
  // it only for its listed nodes, on the calling thread, pool or not.
  const Trace ref = reference(Inner::kBurst, 64);
  for (const int threads : {2, 8}) {
    Rig rig(Inner::kBurst, 64, threads);
    Trace t;
    rig.run(kRounds, Stepping::kStepParallel, t);
    expect_same(t, ref, "burst threads=" + std::to_string(threads));
    // One hotspot per burst round (t = 0, 3, 6, ...).
    EXPECT_EQ(rig.probe->calls(), (kRounds + 2) / 3);
    EXPECT_FALSE(rig.probe->off_thread());
  }
}

TEST(PooledAdmission, NonParallelSafeInnerIsScannedSeriallyInOrder) {
  const Trace ref = reference(Inner::kPoisson, kTightCap);
  Rig rig(Inner::kSerialPoisson, kTightCap, 8);
  Trace t;
  rig.run(kRounds, Stepping::kStepParallel, t);
  expect_same(t, ref, "serial-only inner, 8 threads");
  EXPECT_EQ(rig.probe->lent_pool_rounds(), kRounds);  // lent, but unused
  EXPECT_EQ(rig.probe->calls(), static_cast<long>(kRounds) * kSide * kSide);
  EXPECT_FALSE(rig.probe->off_thread());
  EXPECT_FALSE(rig.probe->out_of_order());
}

TEST(AdmissionQueue, BacklogTotalIsARunningSumOfTheDeque) {
  BurstWorkload inner(BurstWorkload::Params{.period = 2, .burst = 37});
  AdmissionQueue q(inner, AdmissionQueue::Params{.round_cap = 5});
  q.reset(32, 3);
  LoadVector loads(32, 0);
  for (Step t = 0; t < 40; ++t) {
    q.prepare(t, loads);
    EXPECT_EQ(q.backlog_total(), backlog_sum(queue_state(q))) << "t=" << t;
  }
  EXPECT_GT(q.backlog_total(), 0);

  StateWriter w;
  q.save_state(w);
  const std::vector<std::uint8_t> bytes = w.take();
  BurstWorkload inner2(BurstWorkload::Params{.period = 2, .burst = 37});
  AdmissionQueue restored(inner2, AdmissionQueue::Params{.round_cap = 5});
  restored.reset(32, 99);
  StateReader r(bytes);
  restored.load_state(r);
  EXPECT_EQ(restored.backlog_total(), q.backlog_total());
  EXPECT_EQ(restored.backlog_total(), backlog_sum(queue_state(restored)));

  restored.reset(32, 3);
  EXPECT_EQ(restored.backlog_total(), 0);

  // A backlog whose token total would overflow the running sum is
  // refused, leaving the queue untouched.
  StateWriter bad;
  bad.u64(3);  // inner seed
  bad.u64(2);
  for (int i = 0; i < 2; ++i) {
    bad.i32(1);
    bad.i64(std::numeric_limits<Load>::max());
  }
  const std::vector<std::uint8_t> bad_bytes = bad.take();
  StateReader bad_reader(bad_bytes);
  EXPECT_THROW(restored.load_state(bad_reader), serial_error);
  EXPECT_EQ(restored.backlog_total(), 0);
  EXPECT_EQ(restored.backlog_entries(), 0u);
}

}  // namespace
}  // namespace dlb
