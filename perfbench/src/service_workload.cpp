// service-churn: BalancerService over a 512×512 torus running
// ROTOR-ROUTER on a thread pool, with Poisson churn through an
// AdmissionQueue, a SteadyStateTracker, periodic durable checkpoints and
// a per-round CSV stream. Closed loop: each round starts when the
// previous one returns. Round latency is stamped by the benchmark's own
// CSV sink; checkpoint latency runs from the round's CSV row to the
// service's "checkpoint #k" log line, which it writes after the durable
// write.
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "balancers/registry.hpp"
#include "bench.hpp"
#include "core/engine.hpp"
#include "dynamics/steady_stats.hpp"
#include "dynamics/workload.hpp"
#include "graph/generators.hpp"
#include "service/admission.hpp"
#include "service/balancer_service.hpp"
#include "service/snapshot.hpp"
#include "util/thread_pool.hpp"
#include "workload_common.hpp"

namespace perfbench {

using namespace dlb;

namespace {

constexpr NodeId kSide = 512;
constexpr Load kInitialLoad = 16;
constexpr double kArrivalRate = 0.05;
constexpr double kDepartureRate = 0.05;
/// 5% of rounds checkpoint, so the p99 round sits well inside the
/// checkpoint rounds instead of on their boundary.
constexpr Step kCheckpointInterval = 20;
constexpr Step kBlockRounds = 100;   ///< one unit of service work
constexpr Step kDigestRounds = 300;  ///< CSV prefix checked against the record
constexpr Step kMinRounds = 1000;    ///< >= 10 samples beyond the p99
constexpr int kSnapshotRepeats = 10;
const char* const kBalancer = "ROTOR-ROUTER";

/// Line-stamping stream buffer: records the time each '\n' is written
/// and hands the completed line to `on_line`.
class LineSink : public std::streambuf {
 public:
  std::function<void(const std::string&)> on_line;
  std::vector<std::int64_t> stamps;

 protected:
  int overflow(int c) override {
    if (c != traits_type::eof()) put(static_cast<char>(c));
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) put(s[i]);
    return n;
  }

 private:
  void put(char c) {
    if (c != '\n') {
      line_ += c;
      return;
    }
    stamps.push_back(now_ns());
    if (on_line) on_line(line_);
    line_.clear();
  }
  std::string line_;
};

/// One complete service stack. Members are declared in dependency order
/// so destruction runs service → engine → workload → balancer → graph.
struct Rig {
  Graph g;
  std::unique_ptr<Balancer> balancer;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<PoissonWorkload> poisson;
  std::unique_ptr<AdmissionQueue> queue;
  std::unique_ptr<TimedWorkload> timed_workload;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<SteadyStateTracker> tracker;
  LineSink csv_buf, log_buf;
  std::ostream csv{&csv_buf};
  std::ostream log{&log_buf};
  std::unique_ptr<BalancerService> service;
  double graph_build_s = 0.0;

  explicit Rig(Graph graph) : g(std::move(graph)) {}
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
};

struct RunSeeds {
  std::uint64_t rotor, workload;
};

Load round_cap(NodeId n) {
  // Admitted capacity above the mean arrivals, so the backlog stays
  // stationary at any n.
  return static_cast<Load>(std::ceil(kArrivalRate * static_cast<double>(n)));
}

/// Builds graph, balancer, engine, workload stack and tracker. With
/// `service_path` non-empty also the pool and the service itself.
std::unique_ptr<Rig> make_rig(const RunSeeds& seeds, bool timed,
                              const std::string& service_path, int threads) {
  const std::int64_t t0 = now_ns();
  auto rig = std::make_unique<Rig>(make_torus2d(kSide, kSide));
  rig->graph_build_s = seconds_since(t0);
  const NodeId n = rig->g.num_nodes();
  rig->balancer = find_balancer_factory(kBalancer)(seeds.rotor);
  rig->poisson = std::make_unique<PoissonWorkload>(PoissonWorkload::Params{
      .arrival_rate = kArrivalRate, .departure_rate = kDepartureRate});
  rig->queue = std::make_unique<AdmissionQueue>(
      *rig->poisson, AdmissionQueue::Params{.round_cap = round_cap(n)});
  rig->queue->reset(n, seeds.workload);
  rig->engine = std::make_unique<Engine>(
      rig->g, EngineConfig{.self_loops = rig->g.degree()}, *rig->balancer,
      LoadVector(static_cast<std::size_t>(n), kInitialLoad));
  if (timed) {
    rig->timed_workload = std::make_unique<TimedWorkload>(*rig->queue);
    rig->engine->set_workload(rig->timed_workload.get());
  } else {
    rig->engine->set_workload(rig->queue.get());
  }
  rig->tracker = std::make_unique<SteadyStateTracker>(
      SteadyOptions{.window = 64, .warmup = 32});
  if (!service_path.empty()) {
    rig->pool = std::make_unique<ThreadPool>(threads);
    rig->engine->set_thread_pool(rig->pool.get());
    std::filesystem::remove(service_path);  // never restore a stale run
    BalancerService::Options options;
    options.checkpoint_path = service_path;
    options.checkpoint_interval = kCheckpointInterval;
    options.csv = &rig->csv;
    options.log = &rig->log;
    rig->service = std::make_unique<BalancerService>(*rig->engine, options,
                                                     rig->tracker.get());
  }
  return rig;
}

struct ServicePhase {
  TimedPhase phase;
  std::vector<double> checkpoint_ms;
  Step rounds = 0;
  std::string csv_prefix_digest;
  double backlog_peak_entries = 0.0;
};

/// Serves rounds until `seconds` have passed and at least `min_rounds`
/// ran, then stops the service through its stop flag (min_rounds 0:
/// serves one block of kBlockRounds instead). Checks the
/// checkpoint count, dropped checkpoints and backlog stationarity.
ServicePhase serve(Rig& rig, double seconds, Step min_rounds, Report& rep,
                   const std::string& label) {
  ServicePhase out;
  Fnv prefix;
  std::vector<double> backlog;
  std::vector<std::int64_t> checkpoint_done;
  std::vector<std::int64_t> checkpoint_row;
  Step rows = 0;
  bool dropped = false;
  const std::int64_t t0 = now_ns();
  rig.csv_buf.stamps.clear();
  rig.log_buf.stamps.clear();
  rig.csv_buf.on_line = [&](const std::string& line) {
    ++rows;
    if (rows <= kDigestRounds) {
      prefix.update(line.data(), line.size());
      prefix.update("\n", 1);
    }
    backlog.push_back(static_cast<double>(rig.queue->backlog_total()));
    out.backlog_peak_entries = std::max(
        out.backlog_peak_entries, static_cast<double>(rig.queue->backlog_entries()));
    if (min_rounds > 0 && rows >= min_rounds && seconds_since(t0) >= seconds) {
      BalancerService::request_stop();
    }
  };
  rig.log_buf.on_line = [&](const std::string& line) {
    if (line.rfind("[service] checkpoint #", 0) == 0) {
      checkpoint_done.push_back(rig.log_buf.stamps.back());
      checkpoint_row.push_back(rig.csv_buf.stamps.back());
    }
    if (line.find("dropped") != std::string::npos) dropped = true;
  };
  BalancerService::clear_signal_requests();
  const std::int64_t start = now_ns();
  out.rounds = rig.service->run(min_rounds > 0 ? -1 : kBlockRounds);
  BalancerService::clear_signal_requests();
  rig.csv_buf.on_line = nullptr;
  rig.log_buf.on_line = nullptr;

  const std::vector<std::int64_t>& st = rig.csv_buf.stamps;
  rep.check(static_cast<Step>(st.size()) == out.rounds,
            label + ": one CSV row per round");
  const double n = static_cast<double>(rig.g.num_nodes());
  std::int64_t prev = start;
  for (std::size_t i = 0; i < st.size(); ++i) {
    out.phase.round_ms.push_back(static_cast<double>(st[i] - prev) * 1e-6);
    prev = st[i];
    if ((i + 1) % kBlockRounds == 0) {
      const std::int64_t block_start =
          i + 1 == static_cast<std::size_t>(kBlockRounds) ? start : st[i - kBlockRounds];
      out.phase.unit_s.push_back(static_cast<double>(st[i] - block_start) * 1e-9);
      out.phase.node_rounds += n * kBlockRounds;
    }
  }
  out.phase.units = static_cast<int>(out.phase.unit_s.size());
  out.phase.busy_s = static_cast<double>(prev - start) * 1e-9 *
                     (rig.pool ? rig.pool->parallelism() : 1);
  for (std::size_t i = 0; i < checkpoint_done.size(); ++i) {
    out.checkpoint_ms.push_back(
        static_cast<double>(checkpoint_done[i] - checkpoint_row[i]) * 1e-6);
  }
  const int id = Spans::instance().add(label, start, now_ns());
  prev = start;
  for (std::int64_t stamp : st) {
    Spans::instance().add("round", prev, stamp, id);
    prev = stamp;
  }
  for (std::size_t i = 0; i < checkpoint_done.size(); ++i) {
    Spans::instance().add("checkpoint", checkpoint_row[i], checkpoint_done[i], id);
  }

  rep.check(!dropped, label + ": no checkpoint dropped");
  rep.check(static_cast<Step>(checkpoint_done.size()) ==
                out.rounds / kCheckpointInterval + 1,
            label + ": checkpoints written equal checkpoints due");
  if (backlog.size() >= 4) {
    const std::size_t q = backlog.size() / 4;
    double first = 0.0, last = 0.0;
    for (std::size_t i = 0; i < q; ++i) {
      first += backlog[i];
      last += backlog[backlog.size() - 1 - i];
    }
    rep.check(last / q <= first / q + static_cast<double>(round_cap(rig.g.num_nodes())),
              label + ": admission backlog does not grow across the run");
  }
  const Engine& e = *rig.engine;
  rep.check(total_load(e.loads()) ==
                e.base_total() + e.injected_total() - e.consumed_total(),
            label + ": conservation ledger");
  out.csv_prefix_digest = hex64(prefix.h);
  return out;
}

/// Restores `path` into a fresh engine stack; returns the restore time.
double restore_into_fresh(const RunSeeds& seeds, const std::string& path,
                          const Rig& live, Report& rep, const std::string& label) {
  const std::unique_ptr<Rig> fresh = make_rig(seeds, false, "", 1);
  const std::int64_t t0 = now_ns();
  EngineSnapshot::read_file(path).restore(*fresh->engine, fresh->tracker.get());
  const double ms = seconds_since(t0) * 1e3;
  rep.check(EngineSnapshot::capture(*fresh->engine, fresh->tracker.get()).serialize() ==
                EngineSnapshot::capture(*live.engine, live.tracker.get()).serialize(),
            label + ": restored checkpoint equals the live engine");
  return ms;
}

}  // namespace

void run_service_churn(const Options& opt, Report& rep) {
  const int threads = opt.pool_threads;
  const std::uint64_t variant = opt.seed % kVariants;
  const RunSeeds seeds{7 + variant, 42 + variant};
  rep.note("variant", std::to_string(variant));
  const std::string path = opt.work_dir + "/service.ckpt";

  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  while (more_setups(setup_s)) {
    rig.reset();
    const std::int64_t t0 = now_ns();
    rig = make_rig(seeds, false, path, threads);
    setup_s.push_back(seconds_since(t0));
    Spans::instance().add("setup", t0, now_ns());
  }
  rep.note("round_cap", std::to_string(round_cap(rig->g.num_nodes())));

  const ServicePhase live = serve(*rig, opt.seconds, kMinRounds, rep, "service-churn");
  rep.observe("csv_digest@v" + std::to_string(variant), live.csv_prefix_digest);
  const double rss_mib = peak_rss_mib();
  restore_into_fresh(seeds, path, *rig, rep, "service-churn");
  report_end_to_end(rep, median(setup_s), live.phase, live.checkpoint_ms,
                    rss_mib);

  if (!opt.trace) {
    std::filesystem::remove(path);
    return;
  }
  LayerInputs layers;
  layers.graph_build_s = rig->graph_build_s;
  layers.untraced = live.phase;
  layers.threads = threads;
  // Row path on the torus (d+ = 8): load 8 B, flow row written and read
  // back 2×64 B, next load 8 B, rotor 4 B read and written.
  layers.bytes_per_node_round = 8.0 + 128.0 + 8.0 + 8.0;
  layers.array_bytes = static_cast<std::size_t>(rig->g.num_nodes()) * 8 * 8;

  // Single-thread baseline: one block of rounds with the pool detached.
  rig->engine->set_thread_pool(nullptr);
  const ServicePhase serial = serve(*rig, 0.0, 0, rep, "service-churn at 1 thread");
  layers.one_thread_run_s = serial.phase.run_s();
  rig.reset();

  register_timed_balancers({kBalancer});
  std::unique_ptr<Rig> timed = make_rig(seeds, true, path, threads);
  LayerCounters::instance().clear();
  const ServicePhase traced = serve(*timed, opt.seconds, kMinRounds, rep,
                                    "service-churn traced");
  rep.check(traced.csv_prefix_digest == live.csv_prefix_digest,
            "service-churn CSV through the timed wrappers differs");
  layers.traced = traced.phase;
  layers.backlog_peak_entries =
      std::max(live.backlog_peak_entries, traced.backlog_peak_entries);

  // Snapshot layer, call by call, on the traced run's final state.
  const std::string snap_path = opt.work_dir + "/service_probe.ckpt";
  for (int i = 0; i < kSnapshotRepeats; ++i) {
    const std::int64_t t0 = now_ns();
    const EngineSnapshot snap =
        EngineSnapshot::capture(*timed->engine, timed->tracker.get());
    const std::int64_t t1 = now_ns();
    snap.write_file(snap_path);
    const std::int64_t t2 = now_ns();
    layers.ckpt.add(t0, t1, t2);
    layers.ckpt.restore_ms.push_back(
        restore_into_fresh(seeds, snap_path, *timed, rep, "snapshot probe"));
  }
  layers.ckpt.bytes.push_back(static_cast<double>(std::filesystem::file_size(snap_path)));
  std::filesystem::remove(snap_path);
  std::filesystem::remove(path);
  report_layers(rep, layers);
}

}  // namespace perfbench
