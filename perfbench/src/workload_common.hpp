// Pieces the four workloads share: run-shape constants, the summary of a
// timed phase, and the end-to-end / per-layer metric reporters.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// Seeds map onto this many recorded input variants (table1 and
/// service-churn, whose outputs cannot be checked without a record).
inline constexpr std::uint64_t kVariants = 16;
/// Set-ups per run: at least kSetupRepeats, and more while all of them
/// together took less than kSetupSeconds; setup_s is their median.
inline constexpr int kSetupRepeats = 5;
inline constexpr double kSetupSeconds = 2.0;
inline bool more_setups(const std::vector<double>& setup_s) {
  double total = 0.0;
  for (double s : setup_s) total += s;
  return static_cast<int>(setup_s.size()) < kSetupRepeats || total < kSetupSeconds;
}
/// make_hypercube(20) dominates hypercube-reach's set-up; three builds
/// would cost more than the timed phase, so it is built twice.
inline constexpr int kHypercubeSetupRepeats = 2;
/// A timed phase runs at least this many units even past --seconds.
inline constexpr int kMinUnits = 2;
/// Capture + serialize passes over the final states of the 2^20 paper
/// runs; checkpoint_ms_p50 is the median of the passes' means.
inline constexpr int kFinalStateRepeats = 10;

/// What one timed phase produced. A unit is one repetition of the
/// workload's work (one sweep, one pair of reach runs, 100 service
/// rounds); run_s is the median unit time.
struct TimedPhase {
  int units = 0;
  std::vector<double> unit_s;
  double node_rounds = 0.0;   ///< Σ n × rounds over all units
  double busy_s = 0.0;        ///< Σ scenario span × its thread width
  std::vector<double> scenario_s;
  std::vector<double> round_ms;  ///< round latency samples
  /// Mean round time of each unit, where rounds are not stamped one by
  /// one; round_ms_p50 is their median then.
  std::vector<double> unit_round_ms;
  double run_s() const { return median(unit_s); }
  double round_ms_p50() const {
    return unit_round_ms.empty() ? percentile(round_ms, 0.50) : median(unit_round_ms);
  }
  double round_ms_p99() const { return percentile(round_ms, 0.99); }
  double node_rounds_per_unit() const {
    return units > 0 ? node_rounds / units : 0.0;
  }
};

/// Capture / write (write_file, or serialize for in-memory snapshots) /
/// restore timings of EngineSnapshot calls.
struct SnapshotTimes {
  std::vector<double> capture_ms, write_ms, total_ms, restore_ms, bytes;
  void add(std::int64_t t0, std::int64_t t1, std::int64_t t2) {
    capture_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    write_ms.push_back(static_cast<double>(t2 - t1) * 1e-6);
    total_ms.push_back(static_cast<double>(t2 - t0) * 1e-6);
  }
};

/// Everything report_layers needs from a traced run.
struct LayerInputs {
  double graph_build_s = 0.0;
  double spectral_gap_s = 0.0;
  TimedPhase untraced;
  TimedPhase traced;
  int threads = 1;
  bool sweep = false;  ///< ran through SweepRunner (sweep.* metrics)
  double one_thread_run_s = 0.0;
  double bytes_per_node_round = 0.0;  ///< computed from array sizes
  std::size_t array_bytes = 0;        ///< largest per-round array
  double backlog_peak_entries = 0.0;
  SnapshotTimes ckpt;
};

/// Reports the end-to-end metrics of an untraced timed phase;
/// `peak_rss_mib` is read right after it, before any check.
void report_end_to_end(Report& rep, double setup_s, const TimedPhase& phase,
                       const std::vector<double>& checkpoint_ms,
                       double peak_rss_mib);

/// Reports every per-layer metric; layers the workload does not
/// exercise report 0. Reads the wrappers' LayerCounters.
void report_layers(Report& rep, const LayerInputs& in);

}  // namespace perfbench
