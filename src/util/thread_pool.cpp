#include "util/thread_pool.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "util/assertions.hpp"

namespace dlb {

namespace {

/// Pool counters (leaked; registered on first use).
struct PoolMetrics {
  obs::Counter& jobs;
  obs::Counter& chunks;
};

PoolMetrics& pool_metrics() {
  static PoolMetrics* m = [] {
    auto& reg = obs::MetricsRegistry::instance();
    return new PoolMetrics{
        reg.counter("dlb_pool_jobs_total",
                    "for_ranges jobs dispatched to the worker pool."),
        reg.counter("dlb_pool_chunks_total",
                    "Range chunks executed across all pool jobs."),
    };
  }();
  return *m;
}

thread_local ThreadPool* current_pool = nullptr;

}  // namespace

ThreadPool* ThreadPool::current() noexcept { return current_pool; }

ThreadPool::Scope::Scope(ThreadPool* pool) noexcept : previous_(current_pool) {
  current_pool = pool;
}

ThreadPool::Scope::~Scope() { current_pool = previous_; }

int ThreadPool::hardware_parallelism() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int threads)
    : parallelism_(threads == 0 ? hardware_parallelism() : threads) {
  DLB_REQUIRE(threads >= 0, "ThreadPool: negative thread count");
  workers_.reserve(static_cast<std::size_t>(parallelism_ - 1));
  for (int i = 0; i + 1 < parallelism_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::drain_chunks() {
  // Every claim re-reads the job state under the mutex, so a worker that
  // straddles a job boundary either sees "no chunks left" and goes back
  // to sleep or claims a chunk of the *new* job with the new job's
  // geometry — never a mix. A job has at most parallelism() chunks, so
  // the lock traffic is negligible next to the chunk bodies.
  for (;;) {
    const std::function<void(std::int64_t, std::int64_t)>* body;
    std::int64_t total;
    int chunks;
    int c;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (body_ == nullptr || next_chunk_ >= chunks_) return;
      c = next_chunk_++;
      body = body_;
      total = total_;
      chunks = chunks_;
    }
    // `*body` stays alive while this chunk runs: for_ranges cannot
    // return (and the caller cannot destroy the function) before
    // pending_chunks_ — which includes this chunk — reaches zero.
    const std::int64_t base = total / chunks;
    const std::int64_t extra = total % chunks;
    const std::int64_t first = c * base + std::min<std::int64_t>(c, extra);
    const std::int64_t last = first + base + (c < extra ? 1 : 0);
    pool_metrics().chunks.inc();
    try {
      obs::TraceSpan span("chunk", "pool", "first", first);
      (*body)(first, last);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--pending_chunks_ == 0) job_done_.notify_all();
    }
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] {
        return stop_ || (body_ != nullptr && next_chunk_ < chunks_);
      });
      if (stop_) return;
    }
    drain_chunks();
  }
}

void ThreadPool::for_ranges(
    std::int64_t total,
    const std::function<void(std::int64_t, std::int64_t)>& body) {
  DLB_REQUIRE(total >= 0, "ThreadPool::for_ranges: negative range");
  if (total == 0) return;
  const int chunks =
      static_cast<int>(std::min<std::int64_t>(parallelism_, total));
  if (chunks <= 1 || workers_.empty()) {
    body(0, total);
    return;
  }
  pool_metrics().jobs.inc();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    DLB_REQUIRE(body_ == nullptr,
                "ThreadPool::for_ranges: re-entrant call on the same pool");
    body_ = &body;
    total_ = total;
    chunks_ = chunks;
    pending_chunks_ = chunks;
    first_error_ = nullptr;
    next_chunk_ = 0;
  }
  work_ready_.notify_all();
  drain_chunks();  // the calling thread is one of the workers
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    job_done_.wait(lock, [this] { return pending_chunks_ == 0; });
    body_ = nullptr;
    error = first_error_;
    first_error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace dlb
