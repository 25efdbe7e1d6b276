// Tests for the ThreadPool range-job primitive underneath the parallel
// decide/apply pipeline: exact coverage of [0, total), disjoint chunks,
// reusability across many jobs (one pool drives every simulation step),
// exception propagation out of worker chunks, and the thread-local
// ThreadPool::current() an engine sets only around a workload's
// prepare().
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "balancers/send_floor.hpp"
#include "core/engine.hpp"
#include "dynamics/workload.hpp"
#include "graph/generators.hpp"
#include "shard/sharded_engine.hpp"
#include "util/assertions.hpp"
#include "util/thread_pool.hpp"

namespace dlb {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 3, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.parallelism(), threads);
    const std::int64_t total = 1013;  // prime: uneven chunking
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(total));
    pool.for_ranges(total, [&](std::int64_t first, std::int64_t last) {
      EXPECT_LE(first, last);
      for (std::int64_t i = first; i < last; ++i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
      }
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, HandlesSmallAndEmptyRanges) {
  ThreadPool pool(8);
  int calls = 0;
  pool.for_ranges(0, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);  // empty range: no chunks at all

  std::atomic<std::int64_t> sum{0};
  pool.for_ranges(3, [&](std::int64_t first, std::int64_t last) {
    for (std::int64_t i = first; i < last; ++i) sum.fetch_add(i + 1);
  });
  EXPECT_EQ(sum.load(), 6);  // fewer indices than threads
}

TEST(ThreadPool, IsReusableAcrossManyJobs) {
  // One pool drives every step of a run; make sure repeated jobs neither
  // deadlock nor cross-talk.
  ThreadPool pool(4);
  std::vector<std::int64_t> acc(64, 0);
  for (int round = 0; round < 200; ++round) {
    pool.for_ranges(static_cast<std::int64_t>(acc.size()),
                    [&](std::int64_t first, std::int64_t last) {
                      for (std::int64_t i = first; i < last; ++i) {
                        ++acc[static_cast<std::size_t>(i)];
                      }
                    });
  }
  for (std::int64_t v : acc) EXPECT_EQ(v, 200);
}

TEST(ThreadPool, BackToBackJobsOfDifferentSizesNeverMixGeometry) {
  // A worker lingering between jobs must never claim a chunk of the next
  // job with the previous job's [first, last) geometry — alternate job
  // sizes rapidly and verify exact coverage every time (the engines do
  // exactly this: a decide job then an apply job, every step; random
  // matchings even change the total per round).
  ThreadPool pool(8);
  const std::int64_t sizes[] = {64, 17, 257, 5, 128};
  std::vector<std::int64_t> acc(257, 0);
  for (int round = 0; round < 300; ++round) {
    const std::int64_t n = sizes[round % std::size(sizes)];
    std::fill(acc.begin(), acc.end(), 0);
    pool.for_ranges(n, [&](std::int64_t first, std::int64_t last) {
      ASSERT_GE(first, 0);
      ASSERT_LE(last, n);  // stale geometry would overrun n
      for (std::int64_t i = first; i < last; ++i) {
        ++acc[static_cast<std::size_t>(i)];
      }
    });
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(acc[static_cast<std::size_t>(i)], 1)
          << "round " << round << " index " << i;
    }
  }
}

TEST(ThreadPool, PropagatesChunkExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.for_ranges(100,
                      [&](std::int64_t first, std::int64_t) {
                        if (first == 0) {
                          throw invariant_error("chunk exploded");
                        }
                      }),
      invariant_error);
  // The pool survives a throwing job.
  std::atomic<int> ok{0};
  pool.for_ranges(8, [&](std::int64_t first, std::int64_t last) {
    ok.fetch_add(static_cast<int>(last - first));
  });
  EXPECT_EQ(ok.load(), 8);
}

TEST(ThreadPool, ZeroSelectsHardwareParallelism) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.parallelism(), ThreadPool::hardware_parallelism());
  EXPECT_GE(pool.parallelism(), 1);
}

TEST(ThreadPool, ScopeNestsAndRestoresOnThrow) {
  ThreadPool outer(1);
  ThreadPool inner(2);
  EXPECT_EQ(ThreadPool::current(), nullptr);
  {
    ThreadPool::Scope a(&outer);
    EXPECT_EQ(ThreadPool::current(), &outer);
    {
      ThreadPool::Scope b(&inner);
      EXPECT_EQ(ThreadPool::current(), &inner);
      ThreadPool::Scope none(nullptr);
      EXPECT_EQ(ThreadPool::current(), nullptr);
    }
    EXPECT_EQ(ThreadPool::current(), &outer);
    EXPECT_THROW(
        {
          ThreadPool::Scope c(&inner);
          throw invariant_error("scoped code failed");
        },
        invariant_error);
    EXPECT_EQ(ThreadPool::current(), &outer);
  }
  EXPECT_EQ(ThreadPool::current(), nullptr);
}

TEST(ThreadPool, CurrentIsThreadLocal) {
  // Only the thread that opened the Scope sees the pool; chunk bodies
  // running on workers see nullptr, so a body cannot re-enter the pool
  // through current().
  ThreadPool pool(4);
  ThreadPool::Scope scope(&pool);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> wrong{0};
  for (int job = 0; job < 20; ++job) {
    pool.for_ranges(64, [&](std::int64_t, std::int64_t) {
      ThreadPool* want =
          std::this_thread::get_id() == caller ? &pool : nullptr;
      if (ThreadPool::current() != want) wrong.fetch_add(1);
    });
  }
  EXPECT_EQ(wrong.load(), 0);
}

namespace {

/// Records ThreadPool::current() as seen from prepare() and delta();
/// prepare() throws in round `throw_at`.
class PoolProbe final : public WorkloadProcess {
 public:
  std::string name() const override { return "pool-probe"; }
  void reset(NodeId, std::uint64_t) override {}
  void prepare(Step t, std::span<const Load>) override {
    in_prepare = ThreadPool::current();
    if (t == throw_at) throw invariant_error("prepare failed");
  }
  Load delta(NodeId, Step) override {
    if (ThreadPool::current() != nullptr) delta_saw_pool.store(true);
    return 0;
  }
  bool parallel_generate_safe() const override { return true; }

  ThreadPool* in_prepare = nullptr;
  std::atomic<bool> delta_saw_pool{false};
  Step throw_at = -1;
};

}  // namespace

TEST(ThreadPool, CurrentIsLentOnlyAroundWorkloadPrepare) {
  const Graph g = make_cycle(64);
  SendFloor balancer;
  Engine engine(g, EngineConfig{.self_loops = g.degree()}, balancer,
                LoadVector(64, 3));
  ThreadPool pool(3);
  engine.set_thread_pool(&pool);
  PoolProbe probe;
  engine.set_workload(&probe);

  engine.step_parallel();
  EXPECT_EQ(probe.in_prepare, &pool);
  EXPECT_EQ(ThreadPool::current(), nullptr);
  engine.step();  // the serial round lends nothing
  EXPECT_EQ(probe.in_prepare, nullptr);
  EXPECT_FALSE(probe.delta_saw_pool.load());

  probe.throw_at = engine.time();
  EXPECT_THROW(engine.step_parallel(), invariant_error);
  EXPECT_EQ(probe.in_prepare, &pool);
  EXPECT_EQ(ThreadPool::current(), nullptr);

  // The sharded engine lends its pool the same way.
  ShardedEngineConfig config;
  config.self_loops = g.degree();
  ShardedEngine sharded(g, config, balancer, LoadVector(64, 3), 4);
  sharded.set_thread_pool(&pool);
  PoolProbe sprobe;
  sharded.set_workload(&sprobe);
  sharded.step();
  EXPECT_EQ(sprobe.in_prepare, &pool);
  EXPECT_EQ(ThreadPool::current(), nullptr);
  sprobe.throw_at = sharded.time();
  EXPECT_THROW(sharded.step(), invariant_error);
  EXPECT_EQ(ThreadPool::current(), nullptr);
}

}  // namespace
}  // namespace dlb
