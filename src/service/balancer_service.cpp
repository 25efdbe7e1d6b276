#include "service/balancer_service.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/admission.hpp"
#include "util/assertions.hpp"

namespace dlb {

namespace {

/// Service-loop series (leaked; registered on first use).
struct ServiceMetrics {
  obs::Counter& rounds;
  obs::Counter& checkpoints;
  obs::Histogram& checkpoint_seconds;
  obs::Counter& checkpoint_write_failures;
  obs::Counter& metrics_writes;
};

ServiceMetrics& service_metrics() {
  auto& reg = obs::MetricsRegistry::instance();
  static ServiceMetrics* m = new ServiceMetrics{
      reg.counter("dlb_service_rounds_total",
                  "Rounds executed by BalancerService::run."),
      reg.counter("dlb_service_checkpoints_total",
                  "Engine snapshots written (periodic + shutdown)."),
      reg.histogram("dlb_service_checkpoint_seconds",
                    "Wall-clock latency of one checkpoint capture + atomic "
                    "file replace.",
                    obs::phase_seconds_bounds()),
      reg.counter("dlb_service_checkpoint_write_failures_total",
                  "Checkpoint write attempts that failed (each retry "
                  "counts; the round continues either way)."),
      reg.counter("dlb_service_metrics_file_writes_total",
                  "Prometheus exposition files written (tmp+rename)."),
  };
  return *m;
}

// Handlers only set flags; the service loop polls them between rounds.
// sig_atomic_t is the only type the standard guarantees safe to write
// from a handler.
volatile std::sig_atomic_t g_stop_requested = 0;
volatile std::sig_atomic_t g_metrics_requested = 0;

extern "C" void service_stop_handler(int /*signum*/) { g_stop_requested = 1; }
extern "C" void service_metrics_handler(int /*signum*/) {
  g_metrics_requested = 1;
}

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

}  // namespace

BalancerService::BalancerService(Engine& engine, Options options,
                                 SteadyStateTracker* tracker)
    : engine_(&engine), options_(std::move(options)), tracker_(tracker) {
  DLB_REQUIRE(options_.checkpoint_interval >= 0,
              "BalancerService: negative checkpoint interval");
  DLB_REQUIRE(options_.metrics_interval >= 0,
              "BalancerService: negative metrics interval");
  // Observability wiring. Any metrics surface arms the process registry
  // (engines instrument unconditionally but pay only a branch until
  // here); a trace file — or the DLB_TRACE env var — turns the phase
  // tracer on. Both read engine state only: determinism is unaffected.
  obs::register_process_collectors();
  if (!options_.metrics_file.empty() || options_.metrics_out != nullptr) {
    obs::MetricsRegistry::instance().arm(true);
  }
  if (!options_.trace_file.empty() || obs::Tracer::env_requested()) {
    obs::Tracer::instance().enable();
    if (options_.log) {
      *options_.log << "[service] tracing enabled"
                    << (options_.trace_file.empty() ? " (DLB_TRACE)" : "")
                    << "\n";
    }
  }
  if (options_.restore_on_start && !options_.checkpoint_path.empty() &&
      file_exists(options_.checkpoint_path)) {
    // A corrupt or mismatched checkpoint throws (serial_error) rather
    // than silently starting a fresh run over stale demand.
    const EngineSnapshot snap =
        EngineSnapshot::read_file(options_.checkpoint_path);
    snap.restore(*engine_, tracker_);
    restored_ = true;
    if (options_.log) {
      *options_.log << "[service] restored checkpoint "
                    << options_.checkpoint_path << " at t=" << engine_->time()
                    << "\n";
    }
  }
}

void BalancerService::install_signal_handlers() {
  std::signal(SIGTERM, service_stop_handler);
  std::signal(SIGINT, service_stop_handler);
#ifdef SIGUSR1
  std::signal(SIGUSR1, service_metrics_handler);
#endif
}

void BalancerService::request_stop() noexcept { g_stop_requested = 1; }
void BalancerService::request_metrics() noexcept { g_metrics_requested = 1; }
void BalancerService::clear_signal_requests() noexcept {
  g_stop_requested = 0;
  g_metrics_requested = 0;
}
bool BalancerService::stop_requested() noexcept {
  return g_stop_requested != 0;
}

const std::string& BalancerService::csv_header() const {
  static const std::string header = "t,discrepancy,total,injected,consumed";
  return header;
}

void BalancerService::emit_csv_row() {
  if (!options_.csv) return;
  *options_.csv << engine_->time() << ',' << engine_->discrepancy() << ','
                << engine_->total() << ',' << engine_->injected_total() << ','
                << engine_->consumed_total() << '\n';
}

Step BalancerService::run(Step rounds) {
  Step done = 0;
  while (rounds < 0 || done < rounds) {
    if (g_stop_requested) break;
    if (g_metrics_requested) {
      g_metrics_requested = 0;
      if (options_.metrics_out) dump_metrics(*options_.metrics_out);
      write_metrics_file();
    }
    // step_parallel() routes through the attached pool when one exists
    // and falls back to the serial round otherwise — identical results.
    engine_->step_parallel();
    ++done;
    service_metrics().rounds.inc();
    emit_csv_row();
    if (options_.metrics_interval > 0 && done % options_.metrics_interval == 0) {
      if (options_.metrics_out) dump_metrics(*options_.metrics_out);
      write_metrics_file();
    }
    if (options_.checkpoint_interval > 0 &&
        !options_.checkpoint_path.empty() &&
        done % options_.checkpoint_interval == 0) {
      checkpoint();
    }
    if (options_.stop_after >= 0 && done == options_.stop_after) {
      // CI/test hook: go through the real signal, handler, and poll.
      std::raise(SIGTERM);
    }
  }
  // Shutdown (or round budget) path: the round in flight has completed,
  // so the final checkpoint captures a clean between-rounds state.
  if (!options_.checkpoint_path.empty()) checkpoint();
  if (options_.log) {
    *options_.log << "[service] " << (g_stop_requested ? "stopped" : "done")
                  << " at t=" << engine_->time() << " after " << done
                  << " round(s)\n";
  }
  if (g_stop_requested && options_.metrics_out) {
    dump_metrics(*options_.metrics_out);
  }
  write_metrics_file();
  if (!options_.trace_file.empty()) {
    if (obs::Tracer::instance().write_chrome_trace_file(options_.trace_file)) {
      if (options_.log) {
        *options_.log << "[service] trace -> " << options_.trace_file << " ("
                      << obs::Tracer::instance().size() << " span(s), "
                      << obs::Tracer::instance().dropped() << " dropped)\n";
      }
    } else if (options_.log) {
      *options_.log << "[service] trace write failed: " << options_.trace_file
                    << "\n";
    }
  }
  return done;
}

void BalancerService::checkpoint() {
  if (options_.checkpoint_path.empty()) return;
  // Capture and serialize once, retry only the write: the image is
  // consistent no matter which attempt lands it. The previous good
  // checkpoint stays intact throughout (write_image replaces atomically
  // or not at all).
  const int attempts = std::max(1, options_.checkpoint_write_retries);
  bool written = false;
  {
    obs::PhaseScope phase(service_metrics().checkpoint_seconds, "checkpoint",
                          "service", "t", engine_->time());
    const std::vector<std::uint8_t> image =
        EngineSnapshot::capture(*engine_, tracker_).serialize();
    for (int attempt = 0; attempt < attempts; ++attempt) {
      try {
        EngineSnapshot::write_image(options_.checkpoint_path, image);
        written = true;
        break;
      } catch (const serial_error& e) {
        service_metrics().checkpoint_write_failures.inc();
        if (options_.log) {
          *options_.log << "[service] checkpoint write attempt "
                        << (attempt + 1) << "/" << attempts
                        << " failed: " << e.what() << "\n";
        }
        if (attempt + 1 < attempts &&
            options_.checkpoint_retry_backoff_ms > 0) {
          const std::uint64_t ms =
              std::min(options_.checkpoint_retry_backoff_cap_ms,
                       options_.checkpoint_retry_backoff_ms
                           << std::min(attempt, 20));
          std::this_thread::sleep_for(std::chrono::milliseconds(ms));
        }
      }
    }
  }
  if (!written) {
    // Every attempt failed: keep serving rounds on the stale checkpoint
    // rather than killing the run — the failure is already on the
    // exposition surface for an operator to alert on.
    if (options_.log) {
      *options_.log << "[service] checkpoint at t=" << engine_->time()
                    << " dropped after " << attempts
                    << " failed write attempt(s); continuing on the "
                       "previous checkpoint\n";
    }
    return;
  }
  // Registry counter and the per-service member advance together: the
  // member keeps the snapshot tests' per-instance semantics, the counter
  // is the process-wide exposition surface.
  service_metrics().checkpoints.inc();
  ++checkpoints_written_;
  if (options_.log) {
    *options_.log << "[service] checkpoint #" << checkpoints_written_
                  << " at t=" << engine_->time() << " -> "
                  << options_.checkpoint_path << "\n";
  }
}

void BalancerService::dump_metrics(std::ostream& out) const {
  const Engine& e = *engine_;
  out << "== balancer service @ t=" << e.time() << " ==\n"
      << "graph: " << e.graph().name() << "  balancer: " << e.balancer().name()
      << "  workload: "
      << (e.workload() ? e.workload()->name() : std::string("none")) << "\n"
      << "nodes: " << e.graph().num_nodes()
      << "  discrepancy: " << e.discrepancy() << "  avg: " << e.average()
      << "  min_load_seen: " << e.min_load_seen() << "\n"
      << "ledger: total=" << e.total() << " base=" << e.base_total()
      << " injected=" << e.injected_total()
      << " consumed=" << e.consumed_total() << "\n";
  if (const auto* q = dynamic_cast<const AdmissionQueue*>(e.workload())) {
    out << "backlog: entries=" << q->backlog_entries()
        << " tokens=" << q->backlog_total() << "\n";
  }
  if (tracker_ && tracker_->active()) {
    const SteadySummary s = tracker_->summary();
    out << "steady: t_steady=" << s.t_steady
        << " window_mean=" << s.window_mean << " window_max=" << s.window_max
        << " window_p99=" << s.window_p99 << "\n";
  }
  // Migrated onto the registry: the line renders the same bytes as the
  // old direct huge_page_madvise_failures() read — the process collector
  // is a callback gauge over the identical counter.
  out << "checkpoints: " << checkpoints_written_ << "\n"
      << "huge_page_madvise_failures: "
      << static_cast<std::uint64_t>(obs::MetricsRegistry::instance().sample(
             "dlb_alloc_huge_page_madvise_failures"))
      << "\n";
}

void BalancerService::write_metrics_file() const {
  if (options_.metrics_file.empty()) return;
  const std::string tmp = options_.metrics_file + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      if (options_.log) {
        *options_.log << "[service] metrics write failed: " << tmp << "\n";
      }
      return;
    }
    obs::MetricsRegistry::instance().render_prometheus(out);
  }
  if (std::rename(tmp.c_str(), options_.metrics_file.c_str()) != 0) {
    if (options_.log) {
      *options_.log << "[service] metrics rename failed: "
                    << options_.metrics_file << "\n";
    }
    return;
  }
  service_metrics().metrics_writes.inc();
}

}  // namespace dlb
