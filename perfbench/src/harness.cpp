// Report serialization, the span recorder, the traced-run wrappers and
// the bandwidth probe.
#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

#include "balancers/registry.hpp"
#include "bench.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <class Map, class Fn>
std::string json_object(const Map& m, Fn value) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ", ";
    first = false;
    out += json_string(k) + ": " + value(v);
  }
  return out + "}";
}

}  // namespace

std::string Report::json() const {
  std::string out = "{\"attempted\": " + std::to_string(attempted_) +
                    ", \"failed\": " + std::to_string(failures_.size());
  out += ", \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(failures_[i]);
  }
  out += "], \"metrics\": " + json_object(metrics_, [](const auto& v) {
           return "{\"value\": " + json_number(v.first) +
                  ", \"unit\": " + json_string(v.second) + "}";
         });
  out += ", \"observations\": " +
         json_object(observations_, [](const std::string& v) {
           return json_string(v);
         });
  out += ", \"notes\": " + json_object(notes_, [](const std::string& v) {
           return json_string(v);
         });
  return out + "}";
}

Spans& Spans::instance() {
  static Spans spans;
  return spans;
}

int Spans::add(const std::string& name, std::int64_t start_ns,
               std::int64_t end_ns, int parent) {
  if (!enabled_) return 0;
  const auto thread =
      static_cast<std::uint64_t>(std::hash<std::thread::id>{}(
          std::this_thread::get_id()));
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start_ns, end_ns, parent, thread});
  return static_cast<int>(spans_.size());
}

std::size_t Spans::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool Spans::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::map<std::uint64_t, int> tids;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const int tid =
        tids.emplace(s.thread, static_cast<int>(tids.size())).first->second;
    out << (i ? ",\n" : "") << "{\"name\": " << json_string(s.name)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << tid
        << ", \"ts\": " << json_number(1e-3 * static_cast<double>(s.start_ns - origin))
        << ", \"dur\": " << json_number(1e-3 * static_cast<double>(s.end_ns - s.start_ns))
        << ", \"args\": {\"id\": " << (i + 1) << ", \"parent\": " << s.parent
        << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

LayerCounters& LayerCounters::instance() {
  static LayerCounters counters;
  return counters;
}

void TimedBalancer::decide(NodeId u, Load load, Step t,
                           std::span<Load> flows) {
  LayerCounters::instance().decide_node_calls.fetch_add(
      1, std::memory_order_relaxed);
  inner_->decide(u, load, t, flows);
}

void TimedBalancer::prepare_round(std::span<const Load> loads, Step t,
                                  dlb::FlowSink& sink) {
  const std::int64_t start = now_ns();
  inner_->prepare_round(loads, t, sink);
  LayerCounters::instance().decide_ns.fetch_add(now_ns() - start,
                                                std::memory_order_relaxed);
}

void TimedBalancer::decide_range(NodeId first, NodeId last,
                                 std::span<const Load> loads, Step t,
                                 dlb::FlowSink& sink) {
  LayerCounters& c = LayerCounters::instance();
  const std::int64_t start = now_ns();
  inner_->decide_range(first, last, loads, t, sink);
  c.decide_ns.fetch_add(now_ns() - start, std::memory_order_relaxed);
  c.decide_range_calls.fetch_add(1, std::memory_order_relaxed);
}

void TimedBalancer::decide_window(std::span<const Load> window,
                                  NodeId global_begin, NodeId owned,
                                  NodeId reach, Step t, dlb::FlowSink& sink) {
  LayerCounters& c = LayerCounters::instance();
  const std::int64_t start = now_ns();
  inner_->decide_window(window, global_begin, owned, reach, t, sink);
  c.decide_ns.fetch_add(now_ns() - start, std::memory_order_relaxed);
  c.decide_range_calls.fetch_add(1, std::memory_order_relaxed);
}

void register_timed_balancers(const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    dlb::BalancerFactory inner = dlb::find_balancer_factory(name);
    dlb::register_balancer(
        name,
        [inner](std::uint64_t seed) -> std::unique_ptr<dlb::Balancer> {
          return std::make_unique<TimedBalancer>(inner(seed));
        },
        dlb::find_balancer_traits(name));
  }
}

void TimedWorkload::prepare(Step t, std::span<const Load> loads) {
  const std::int64_t start = now_ns();
  inner_->prepare(t, loads);
  LayerCounters::instance().prepare_ns.fetch_add(now_ns() - start,
                                                 std::memory_order_relaxed);
}

double copy_bandwidth_gbps(std::size_t bytes, int threads, int passes) {
  const std::size_t n = std::max<std::size_t>(1, bytes / sizeof(std::int64_t));
  std::vector<std::int64_t> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) a[i] = static_cast<std::int64_t>(i);
  dlb::ThreadPool pool(threads);
  std::vector<double> gbps;
  std::int64_t check = 0;
  for (int p = 0; p <= passes; ++p) {  // pass 0 warms caches and pages
    const std::int64_t start = now_ns();
    pool.for_ranges(static_cast<std::int64_t>(n),
                    [&](std::int64_t first, std::int64_t last) {
                      for (std::int64_t i = first; i < last; ++i) {
                        b[static_cast<std::size_t>(i)] =
                            a[static_cast<std::size_t>(i)] + p;
                      }
                    });
    const double s = seconds_since(start);
    check += b[n / 2];
    if (p > 0) gbps.push_back(2.0 * static_cast<double>(n * sizeof(std::int64_t)) / s * 1e-9);
  }
  if (check == -1) std::puts("");  // keeps the writes observable
  return median(gbps);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
