// Persistent worker pool for deterministic intra-round parallelism.
//
// The pool runs *range jobs*: for_ranges(total, body) partitions the index
// interval [0, total) into at most parallelism() contiguous chunks and
// executes body(first, last) for each, blocking until all chunks finish.
// Which thread runs which chunk is unspecified — callers must guarantee
// chunks touch disjoint state (the decide/apply engine phases do: phase 1
// writes only per-node records of its own range, phase 2 writes only its
// own range's next loads). Under that contract the result is identical at
// any thread count, which is what makes engine parallelism byte-
// deterministic.
//
// Workers are spawned once in the constructor and parked on a condition
// variable between jobs, so a pool can be driven every simulation step
// without thread-churn. The calling thread participates in every job (a
// pool of parallelism 1 has no background workers at all and runs inline).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dlb {

class ThreadPool {
 public:
  /// `threads` is the total parallelism including the calling thread;
  /// 0 selects hardware_parallelism(). Spawns threads − 1 workers.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int parallelism() const noexcept { return parallelism_; }

  /// std::thread::hardware_concurrency() with the 0 = unknown case
  /// mapped to 1.
  static int hardware_parallelism();

  /// Partitions [0, total) into min(parallelism(), total) contiguous
  /// chunks and runs body(first, last) for every chunk; returns when all
  /// chunks completed. Rethrows the first chunk exception (after every
  /// chunk has been claimed). Must not be called re-entrantly from inside
  /// a body running on the same pool.
  void for_ranges(std::int64_t total,
                  const std::function<void(std::int64_t, std::int64_t)>& body);

  /// The pool a Scope on this thread currently lends out, or nullptr.
  /// Engines lend theirs only around a workload's prepare(), so a hook
  /// that cannot take a pool parameter (WorkloadProcess::prepare, reached
  /// through any number of forwarding wrappers) can still fan out over
  /// the engine's pool. Thread-local: pool workers and other threads see
  /// nullptr.
  static ThreadPool* current() noexcept;

  /// RAII: makes `pool` (may be null) ThreadPool::current() on this
  /// thread for the Scope's lifetime, then restores the previous value —
  /// also when the scoped code throws.
  class Scope {
   public:
    explicit Scope(ThreadPool* pool) noexcept;
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ThreadPool* previous_;
  };

 private:
  void worker_loop();
  /// Claims and runs chunks of the current job until none remain.
  void drain_chunks();

  int parallelism_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable job_done_;
  bool stop_ = false;

  // Current job, all guarded by mutex_; body_ is non-null exactly while
  // a job is in flight (chunk claims re-read everything under the lock,
  // so a job boundary can never mix one job's chunk index with another
  // job's geometry or body).
  const std::function<void(std::int64_t, std::int64_t)>* body_ = nullptr;
  std::int64_t total_ = 0;
  int chunks_ = 0;
  int next_chunk_ = 0;
  int pending_chunks_ = 0;
  std::exception_ptr first_error_;
};

}  // namespace dlb
