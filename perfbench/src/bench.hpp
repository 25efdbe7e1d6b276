// Shared pieces of the perfbench binary: options, the result record,
// timing and statistics helpers, the in-memory span recorder, and the
// layer counters that the traced run's forwarding wrappers fill.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/balancer.hpp"
#include "dynamics/workload.hpp"

namespace perfbench {

using dlb::Load;
using dlb::NodeId;
using dlb::Step;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (checkpoints, trace file).
  std::string work_dir = ".bench_build/work";
  /// Threads of a scenario-parallel sweep: the hardware concurrency.
  /// Workers take the next scenario when they finish one, so a core the
  /// host keeps busy simply runs fewer scenarios.
  int sweep_threads = 1;
  /// Threads of a round-parallel pool: half the hardware concurrency. A
  /// round waits for its slowest chunk, so on a shared host a pool over
  /// every hardware thread waits for whichever one the host is busy
  /// with; leaving half of them free makes the timings follow the
  /// program instead of the neighbours.
  int pool_threads = 1;
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Percentile (q in [0, 1]) of a sample, interpolated linearly between
/// the two closest ranks, so it moves smoothly with the values even on
/// small samples; 0 when empty.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(v.size() - 1, lo + 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// FNV-1a 64 over bytes; `update` chains.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void update(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  }
};

inline std::string hex64(std::uint64_t h) {
  static const char* digits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i, h >>= 4) s[static_cast<std::size_t>(i)] = digits[h & 15];
  return s;
}

inline std::string digest_of(const std::string& s) {
  Fnv f;
  f.update(s.data(), s.size());
  return hex64(f.h);
}

inline std::string digest_of(std::span<const Load> loads) {
  Fnv f;
  f.update(loads.data(), loads.size_bytes());
  return hex64(f.h);
}

/// What one run reports: metrics by name, the correctness checks, the
/// observations run.py compares against the recorded expectations, and
/// free-form notes (sample counts, labels).
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) failures_.push_back(what);
  }
  void observe(const std::string& key, const std::string& value) {
    observations_[key] = value;
  }
  void note(const std::string& key, const std::string& value) {
    notes_[key] = value;
  }
  std::string json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::int64_t attempted_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, std::string> observations_;
  std::map<std::string, std::string> notes_;
};

/// In-memory span log (traced runs only), written as Chrome trace-event
/// JSON at exit. Spans nest by `parent` id; ids are 1-based.
class Spans {
 public:
  static Spans& instance();
  void enable(bool on) { enabled_ = on; }
  /// Records a finished span; returns its id (0 when disabled).
  int add(const std::string& name, std::int64_t start_ns, std::int64_t end_ns,
          int parent = 0);
  bool write(const std::string& path) const;
  std::size_t size() const;

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns, end_ns;
    int parent;
    std::uint64_t thread;
  };
  bool enabled_ = false;
  mutable std::mutex mutex_;  // guards spans_
  std::vector<Span> spans_;
};

/// Layer counters filled by the traced run's wrappers. Times are
/// thread-seconds (summed over the threads that ran the calls).
struct LayerCounters {
  std::atomic<std::int64_t> decide_ns{0};
  std::atomic<std::int64_t> decide_range_calls{0};
  std::atomic<std::int64_t> decide_node_calls{0};
  std::atomic<std::int64_t> prepare_ns{0};
  std::atomic<std::int64_t> delta_calls{0};
  void clear() {
    decide_ns = 0;
    decide_range_calls = 0;
    decide_node_calls = 0;
    prepare_ns = 0;
    delta_calls = 0;
  }
  static LayerCounters& instance();
};

/// Forwarding Balancer: times prepare_round / decide_range /
/// decide_window (decide_all reaches both of the first through the base
/// class) and counts per-node decide calls without timing them. Every
/// other virtual forwards, so trajectories and results are unchanged.
class TimedBalancer final : public dlb::Balancer {
 public:
  explicit TimedBalancer(std::unique_ptr<dlb::Balancer> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  void reset(const dlb::Graph& graph, int d_loops) override {
    inner_->reset(graph, d_loops);
  }
  void decide(NodeId u, Load load, Step t, std::span<Load> flows) override;
  void prepare_round(std::span<const Load> loads, Step t,
                     dlb::FlowSink& sink) override;
  void decide_range(NodeId first, NodeId last, std::span<const Load> loads,
                    Step t, dlb::FlowSink& sink) override;
  NodeId window_reach(const dlb::Graph& g) const override {
    return inner_->window_reach(g);
  }
  void decide_window(std::span<const Load> window, NodeId global_begin,
                     NodeId owned, NodeId reach, Step t,
                     dlb::FlowSink& sink) override;
  bool prepare_reads_loads() const override {
    return inner_->prepare_reads_loads();
  }
  bool parallel_decide_safe() const override {
    return inner_->parallel_decide_safe();
  }
  bool allows_negative() const override { return inner_->allows_negative(); }
  bool assign_first_scatter_safe() const override {
    return inner_->assign_first_scatter_safe();
  }
  bool wants_flow_matrix() const override {
    return inner_->wants_flow_matrix();
  }
  void save_state(dlb::StateWriter& w) const override { inner_->save_state(w); }
  void load_state(dlb::StateReader& r) override { inner_->load_state(r); }

 private:
  std::unique_ptr<dlb::Balancer> inner_;
};

/// Re-registers each named balancer under its own name with a factory
/// that wraps the original in a TimedBalancer (same traits), so a sweep
/// built from balancer_case(name) produces byte-identical rows.
void register_timed_balancers(const std::vector<std::string>& names);

/// Forwarding WorkloadProcess: times prepare(), counts delta() calls and
/// does not time them.
class TimedWorkload final : public dlb::WorkloadProcess {
 public:
  explicit TimedWorkload(dlb::WorkloadProcess& inner) : inner_(&inner) {}

  std::string name() const override { return inner_->name(); }
  void reset(NodeId n, std::uint64_t seed) override { inner_->reset(n, seed); }
  void prepare(Step t, std::span<const Load> loads) override;
  Load delta(NodeId u, Step t) override {
    LayerCounters::instance().delta_calls.fetch_add(1,
                                                    std::memory_order_relaxed);
    return inner_->delta(u, t);
  }
  bool prepare_reads_loads() const override {
    return inner_->prepare_reads_loads();
  }
  bool parallel_generate_safe() const override {
    return inner_->parallel_generate_safe();
  }
  const std::vector<NodeId>* affected_nodes() const override {
    return inner_->affected_nodes();
  }
  void save_state(dlb::StateWriter& w) const override { inner_->save_state(w); }
  void load_state(dlb::StateReader& r) override { inner_->load_state(r); }

 private:
  dlb::WorkloadProcess* inner_;
};

/// Same-process read+write bandwidth over two buffers of `bytes` each,
/// on `threads` threads; median GB/s (1e9 B/s) over `passes` passes.
double copy_bandwidth_gbps(std::size_t bytes, int threads, int passes);

void run_table1(const Options& opt, Report& rep);
void run_cycle_1m(const Options& opt, Report& rep);
void run_hypercube_reach(const Options& opt, Report& rep);
void run_service_churn(const Options& opt, Report& rep);

/// Shared tail of every run: peak RSS and the huge-page allocation count.
double peak_rss_mib();

}  // namespace perfbench
