// End-to-end and per-layer metric derivation shared by the workloads.
#include <unistd.h>

#include <string>

#include "util/alloc.hpp"
#include "workload_common.hpp"

namespace perfbench {

void report_end_to_end(Report& rep, double setup_s, const TimedPhase& phase,
                       const std::vector<double>& checkpoint_ms,
                       double peak_rss_mib) {
  const double run_s = phase.run_s();
  rep.metric("setup_s", setup_s, "s");
  rep.metric("run_s", run_s, "s");
  rep.metric("node_rounds_per_s", phase.node_rounds_per_unit() / run_s, "1/s");
  rep.metric("round_ms_p50", phase.round_ms_p50(), "ms");
  rep.metric("round_ms_p99", phase.round_ms_p99(), "ms");
  rep.metric("checkpoint_ms_p50", percentile(checkpoint_ms, 0.50), "ms");
  rep.metric("peak_rss_mb", peak_rss_mib, "MiB");
  rep.note("units", std::to_string(phase.units));
  std::string unit_s;
  for (double u : phase.unit_s) {
    if (!unit_s.empty()) unit_s += ' ';
    unit_s += std::to_string(u);
  }
  rep.note("unit_s", unit_s);
  rep.note("round_samples", std::to_string(phase.round_ms.size()));
  rep.note("checkpoint_samples", std::to_string(checkpoint_ms.size()));
}

void report_layers(Report& rep, const LayerInputs& in) {
  const LayerCounters& c = LayerCounters::instance();
  const double units = std::max(1, in.traced.units);
  const double run_s = in.traced.run_s();
  const double untraced_s = in.untraced.run_s();
  const double decide_s = static_cast<double>(c.decide_ns.load()) * 1e-9 / units;
  const double prepare_s = static_cast<double>(c.prepare_ns.load()) * 1e-9 / units;
  const double busy_s = in.traced.busy_s / units;
  const double budget_s = in.threads * run_s;

  rep.metric("graph.build_s", in.graph_build_s, "s");
  rep.metric("markov.spectral_gap_s", in.spectral_gap_s, "s");
  rep.metric("balancers.decide_s", decide_s, "s");
  rep.metric("balancers.decide_share", decide_s / budget_s, "ratio");
  rep.metric("balancers.ns_per_node_round",
             decide_s * 1e9 / in.traced.node_rounds_per_unit(), "ns");
  rep.metric("core.round_other_s", std::max(0.0, busy_s - decide_s - prepare_s),
             "s");
  rep.metric("sweep.scenario_s_p50", in.sweep ? median(in.traced.scenario_s) : 0.0,
             "s");
  rep.metric("sweep.busy_s", in.sweep ? busy_s : 0.0, "s");
  rep.metric("sweep.parallel_efficiency", in.sweep ? busy_s / budget_s : 0.0,
             "ratio");
  rep.metric("pool.speedup", in.one_thread_run_s / untraced_s, "ratio");

  // The ceiling is measured at the workload's own array size, which sits
  // inside the last-level cache here: it is a cache-bandwidth ceiling.
  const double ceiling = copy_bandwidth_gbps(in.array_bytes, in.threads, 10);
  const double achieved = in.bytes_per_node_round *
                          in.untraced.node_rounds_per_unit() / untraced_s * 1e-9;
  rep.metric("mem.bytes_per_node_round", in.bytes_per_node_round, "B");
  rep.metric("mem.ceiling_gbps", ceiling, "GB/s");
  rep.metric("mem.pct_of_ceiling", 100.0 * achieved / ceiling, "%");
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  rep.note("mem.bytes_per_node_round",
           "computed from array sizes (row path), not measured");
  rep.note("mem.ceiling",
           "cache bandwidth: read+write over two " +
               std::to_string(in.array_bytes >> 10) + " KiB buffers on " +
               std::to_string(in.threads) + " threads; LLC " +
               (llc > 0 ? std::to_string(llc >> 10) + " KiB" : "unknown"));
  rep.metric("alloc.huge_page_mmaps",
             static_cast<double>(dlb::alloc_stats().huge_allocs), "count");

  rep.metric("dynamics.prepare_s", prepare_s, "s");
  rep.metric("dynamics.delta_calls",
             static_cast<double>(c.delta_calls.load()) / units, "count");
  rep.metric("dynamics.backlog_peak_entries", in.backlog_peak_entries, "count");

  rep.metric("snapshot.capture_ms", median(in.ckpt.capture_ms), "ms");
  rep.metric("snapshot.write_ms", median(in.ckpt.write_ms), "ms");
  rep.metric("snapshot.bytes", median(in.ckpt.bytes), "B");
  rep.metric("snapshot.restore_ms", median(in.ckpt.restore_ms), "ms");

  rep.metric("trace.overhead_pct", 100.0 * (run_s / untraced_s - 1.0), "%");
  rep.note("traced_units", std::to_string(in.traced.units));
  rep.note("balancers.decide_range_calls",
           std::to_string(c.decide_range_calls.load() / in.traced.units));
  rep.note("balancers.decide_node_calls",
           std::to_string(c.decide_node_calls.load() / in.traced.units));
}

}  // namespace perfbench
