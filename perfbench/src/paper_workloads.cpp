// The paper workloads: the Table-1 sweep, the 2^20 cycle and the 2^20
// hypercube time-to-discrepancy run. All three go through the public
// entry points (SweepRunner / run_experiment) and are timed from here.
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/sweep.hpp"
#include "balancers/registry.hpp"
#include "bench.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "markov/spectral.hpp"
#include "service/snapshot.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload_common.hpp"

namespace perfbench {

using namespace dlb;

namespace {

/// One timed execution of a sweep (a "unit" of the workload).
struct SweepUnit {
  double wall_s = 0.0;
  double rounds = 0.0;  ///< Σ rounds over the scenarios
  double node_rounds = 0.0;
  std::vector<double> scenario_s;  ///< run_experiment spans
  /// Per-scenario span / rounds, keyed by scenario.
  std::map<std::size_t, double> round_ms;
  std::vector<SweepRow> rows;
  struct Child {
    std::string name;
    std::int64_t start_ns, end_ns;
  };
  std::vector<Child> spans;  ///< scenario spans, logged under the unit's
};

Step rounds_of(const ExperimentResult& r) {
  return r.horizon + std::max<Step>(0, r.t_reach);
}

/// Runs the sweep once. Scenario spans run from the adjust_spec hook
/// (called just before run_experiment) to the on_result hook.
SweepUnit run_sweep_unit(const SweepMatrix& matrix,
                         const std::vector<Scenario>& scenarios,
                         SweepOptions options) {
  std::vector<std::int64_t> start(matrix.size(), 0);
  SweepUnit unit;
  const auto user_adjust = options.adjust_spec;
  options.adjust_spec = [&start, user_adjust](const Scenario& s,
                                              ExperimentSpec& spec) {
    if (user_adjust) user_adjust(s, spec);
    start[s.index] = now_ns();  // disjoint slot per scenario
  };
  options.on_result = [&](const SweepRow& row) {  // called under a lock
    const std::int64_t end = now_ns();
    const double span = static_cast<double>(end - start[row.scenario_index]) * 1e-9;
    unit.scenario_s.push_back(span);
    const auto rounds = static_cast<double>(rounds_of(row.result));
    unit.round_ms[row.scenario_index] = span * 1e3 / rounds;
    unit.spans.push_back({"scenario " + row.family + " " + row.balancer,
                          start[row.scenario_index], end});
  };
  SweepRunner runner(options);
  const std::int64_t t0 = now_ns();
  unit.rows = runner.run(matrix, scenarios);
  unit.wall_s = seconds_since(t0);
  for (const SweepRow& row : unit.rows) {
    const auto rounds = static_cast<double>(rounds_of(row.result));
    unit.rounds += rounds;
    unit.node_rounds += static_cast<double>(row.result.n) * rounds;
  }
  return unit;
}

/// Repeats `one_unit` while another unit, as long as the last one, still
/// ends within `seconds` (and at least `min_units` times).
template <class Fn>
std::vector<SweepUnit> repeat_units(double seconds, int min_units,
                                    const char* name, Fn one_unit) {
  std::vector<SweepUnit> units;
  const std::int64_t t0 = now_ns();
  while (static_cast<int>(units.size()) < min_units ||
         seconds_since(t0) + units.back().wall_s <= seconds) {
    const std::int64_t start = now_ns();
    units.push_back(one_unit());
    const int id = Spans::instance().add(name, start, now_ns());
    for (const SweepUnit::Child& c : units.back().spans) {
      Spans::instance().add(c.name, c.start_ns, c.end_ns, id);
    }
  }
  return units;
}

/// Folds units into a TimedPhase. Rounds inside run_experiment are not
/// stamped one by one. Each scenario gives one round-latency sample, its
/// mean round time (span / rounds, median over the units), and each unit
/// its mean round time over all scenarios (Σ spans / Σ rounds), of which
/// round_ms_p50 takes the median. A median over the scenario samples
/// would sit in the gap between two graph families (unweighted) or jump
/// between balancers (weighted by rounds).
TimedPhase summarize(const std::vector<SweepUnit>& units, int width) {
  TimedPhase p;
  std::map<std::size_t, std::vector<double>> round_ms;
  for (const SweepUnit& u : units) {
    double span_s = 0.0;
    for (double s : u.scenario_s) span_s += s;
    p.unit_round_ms.push_back(span_s * 1e3 / u.rounds);
    for (const auto& [key, ms] : u.round_ms) round_ms[key].push_back(ms);
    p.unit_s.push_back(u.wall_s);
    p.node_rounds += u.node_rounds;
    for (double s : u.scenario_s) p.busy_s += s * width;
    p.scenario_s.insert(p.scenario_s.end(), u.scenario_s.begin(),
                        u.scenario_s.end());
  }
  for (const auto& [key, ms] : round_ms) p.round_ms.push_back(median(ms));
  p.units = static_cast<int>(units.size());
  return p;
}

/// Snapshots the final state of every scenario of `rows`: an engine
/// rebuilt on the recorded final loads with a freshly reset balancer is
/// captured and serialized `repeats` times (in memory: a paper run has
/// no service, so there is no durable checkpoint to time), then the image
/// is deserialized and restored into another fresh engine, which must
/// capture to the same bytes. Returns the mean time of one snapshot in
/// each of the `repeats` passes over the rows, the checkpoint_ms_p50
/// samples: the rows' graphs differ in size, and a median over single
/// snapshots sat between two sizes and followed their extremes.
std::vector<double> snapshot_final_states(
    const std::vector<SweepRow>& rows,
    const std::function<const Graph&(const SweepRow&)>& graph_of,
    int repeats, Report& rep, SnapshotTimes& times) {
  std::vector<double> pass_ms(static_cast<std::size_t>(repeats), 0.0);
  for (const SweepRow& row : rows) {
    const Graph& g = graph_of(row);
    const BalancerFactory factory = find_balancer_factory(row.balancer);
    std::unique_ptr<Balancer> b = factory(row.seed);
    Engine engine(g, EngineConfig{.self_loops = row.self_loops}, *b,
                  row.result.final_loads);
    std::vector<std::uint8_t> image;
    for (int i = 0; i < repeats; ++i) {
      const std::int64_t t0 = now_ns();
      const EngineSnapshot snap = EngineSnapshot::capture(engine);
      const std::int64_t t1 = now_ns();
      image = snap.serialize();
      const std::int64_t t2 = now_ns();
      times.add(t0, t1, t2);
      pass_ms[static_cast<std::size_t>(i)] +=
          static_cast<double>(t2 - t0) * 1e-6 / static_cast<double>(rows.size());
    }
    times.bytes.push_back(static_cast<double>(image.size()));
    std::unique_ptr<Balancer> b2 = factory(row.seed);
    Engine fresh(g, EngineConfig{.self_loops = row.self_loops}, *b2,
                 LoadVector(static_cast<std::size_t>(g.num_nodes()), 0));
    const std::int64_t r0 = now_ns();
    EngineSnapshot::deserialize(image).restore(fresh);
    times.restore_ms.push_back(seconds_since(r0) * 1e3);
    rep.check(EngineSnapshot::capture(fresh).serialize() == image,
              "restored final-state snapshot differs (" + row.family + " " +
                  row.balancer + ")");
  }
  return pass_ms;
}

// ----------------------------------------------------------------- table1

/// K of the bimodal initial load per family (bench_table1's values).
const std::map<std::string, Load>& table1_load_scales() {
  static const std::map<std::string, Load> k = {
      {"hypercube", 1024}, {"random-regular", 1024}, {"torus", 256},
      {"cycle", 128}};
  return k;
}

struct Table1Setup {
  std::unique_ptr<SweepMatrix> matrix;
  std::vector<Scenario> scenarios;
  double graph_build_s = 0.0;
  double spectral_gap_s = 0.0;
};

/// bench_table1's matrix: 4 families × the 9 Table-1 algorithms, bimodal
/// load, d° = d, one scenario seed. `timed_names` builds the balancer
/// axis from the registry (the traced run's wrappers) instead of the
/// Algorithm enum; the rows are identical either way.
Table1Setup setup_table1(std::uint64_t scenario_seed, bool timed_names) {
  Table1Setup s;
  s.matrix = std::make_unique<SweepMatrix>();
  SweepMatrix& m = *s.matrix;
  std::int64_t t = now_ns();
  Graph hc = make_hypercube(10);
  Graph rr = make_random_regular(1024, 8, 7);
  Graph torus = make_torus2d(16, 16);
  Graph cycle = make_cycle(128);
  s.graph_build_s = seconds_since(t);
  t = now_ns();
  const double rr_mu = spectral_gap(rr, 8).gap;
  s.spectral_gap_s = seconds_since(t);
  m.add_graph("hypercube", std::move(hc), 1.0 - lambda2_hypercube(10, 10));
  m.add_graph("random-regular", std::move(rr), rr_mu);
  m.add_graph("torus", std::move(torus), 1.0 - lambda2_torus({16, 16}, 4));
  m.add_graph("cycle", std::move(cycle), 1.0 - lambda2_cycle(128, 2));
  if (timed_names) {
    for (Algorithm a : all_algorithms()) {
      m.add_balancer(balancer_case(algorithm_name(a)));
    }
  } else {
    m.add_all_algorithms();
  }
  m.add_shape(InitialShape::kBimodal);
  std::set<Load> scales;
  for (const auto& [family, k] : table1_load_scales()) scales.insert(k);
  for (Load k : scales) m.add_load_scale(k);
  m.add_seed(scenario_seed);
  for (const Scenario& sc : m.scenarios()) {
    if (sc.load_scale == table1_load_scales().at(m.graphs()[sc.graph_index].family)) {
      s.scenarios.push_back(sc);
    }
  }
  return s;
}

SweepOptions table1_options(int threads) {
  SweepOptions o;
  o.threads = threads;
  o.base.time_multiplier = 1.0;
  o.base.sample_fractions = {1.0 / 16.0, 0.25, 1.0};
  o.base.record_final_loads = true;
  return o;
}

// --------------------------------------------------------------- cycle-1m

constexpr int kCycleLog2 = 20;
constexpr Step kCycleHorizon = 600;
constexpr Load kCycleK = 1024;

}  // namespace

void run_table1(const Options& opt, Report& rep) {
  const int threads = opt.sweep_threads;
  // The seed picks one of kVariants scenario seeds; bench_table1's own
  // seed (12345) is variant 0.
  const std::uint64_t variant = opt.seed % kVariants;
  const std::uint64_t scenario_seed = 12345 + variant;
  rep.note("variant", std::to_string(variant));

  std::vector<double> setup_s;
  Table1Setup setup;
  while (more_setups(setup_s)) {
    const std::int64_t t0 = now_ns();
    setup = setup_table1(scenario_seed, false);
    setup_s.push_back(seconds_since(t0));
    Spans::instance().add("setup", t0, now_ns());
  }
  rep.check(setup.scenarios.size() == 36, "table1 has 36 scenarios");

  const SweepOptions options = table1_options(threads);
  // One snapshot pass over each unit's final states, taken after the
  // unit's timing ends, so the checkpoint_ms_p50 samples are spread over
  // the whole run instead of a few milliseconds after it.
  SnapshotTimes ckpt;
  std::vector<double> ckpt_ms;
  const auto graph_of = [&](const SweepRow& r) -> const Graph& {
    return *setup.matrix->graphs()[r.graph_index].graph;
  };
  const std::vector<SweepUnit> units =
      repeat_units(opt.seconds, kMinUnits, "sweep", [&] {
        SweepUnit u = run_sweep_unit(*setup.matrix, setup.scenarios, options);
        ckpt_ms.push_back(snapshot_final_states(u.rows, graph_of, 1, rep, ckpt)[0]);
        return u;
      });
  const std::string digest = digest_of(SweepRunner::csv_string(units[0].rows));
  for (const SweepUnit& u : units) {
    rep.check(u.rows.size() == setup.scenarios.size(), "table1 row count");
    rep.check(digest_of(SweepRunner::csv_string(u.rows)) == digest,
              "table1 CSV differs between repetitions");
  }
  rep.observe("csv_digest@v" + std::to_string(variant), digest);

  const double rss_mib = peak_rss_mib();
  const TimedPhase phase = summarize(units, 1);
  report_end_to_end(rep, median(setup_s), phase, ckpt_ms, rss_mib);

  if (!opt.trace) return;
  LayerInputs layers;
  layers.graph_build_s = setup.graph_build_s;
  layers.spectral_gap_s = setup.spectral_gap_s;
  layers.untraced = phase;
  layers.threads = threads;
  layers.sweep = true;
  layers.ckpt = ckpt;
  // Row path (the auditor attaches an observer): load 8 B, flow row
  // written and read back 2×8·d+ B, next load 8 B, averaged over the
  // node-rounds of the scenarios; the largest flow-row array (hypercube:
  // n = 1024, d+ = 20) sets the probe size.
  double bytes = 0.0, node_rounds = 0.0;
  for (const SweepRow& row : units[0].rows) {
    const double nr = static_cast<double>(row.result.n) *
                      static_cast<double>(rounds_of(row.result));
    bytes += nr * (16.0 + 16.0 * (row.result.d + row.self_loops));
    node_rounds += nr;
  }
  layers.bytes_per_node_round = bytes / node_rounds;
  layers.array_bytes = std::size_t{1024} * 20 * 8;

  // Single-thread baseline: also the determinism check (the CSV must not
  // depend on the thread count).
  {
    const SweepUnit one = run_sweep_unit(*setup.matrix, setup.scenarios,
                                         table1_options(1));
    rep.check(digest_of(SweepRunner::csv_string(one.rows)) == digest,
              "table1 CSV at 1 thread differs from the timed phase's");
    layers.one_thread_run_s = one.wall_s;
  }

  std::vector<std::string> names;
  for (Algorithm a : all_algorithms()) names.push_back(algorithm_name(a));
  register_timed_balancers(names);
  const Table1Setup timed = setup_table1(scenario_seed, true);
  LayerCounters::instance().clear();
  const std::vector<SweepUnit> traced =
      repeat_units(opt.seconds, kMinUnits, "sweep (traced)", [&] {
        return run_sweep_unit(*timed.matrix, timed.scenarios, options);
      });
  for (const SweepUnit& u : traced) {
    rep.check(digest_of(SweepRunner::csv_string(u.rows)) == digest,
              "table1 CSV through the timed balancers differs");
  }
  layers.traced = summarize(traced, 1);
  report_layers(rep, layers);
}

void run_cycle_1m(const Options& opt, Report& rep) {
  const int threads = opt.pool_threads;
  const NodeId n = NodeId{1} << kCycleLog2;
  // The seed rotates the bimodal load around the cycle. Rotation is an
  // automorphism that both balancers (rotors in the natural port order)
  // respect, so the rotated-back final loads must equal the recorded ones
  // for every seed.
  std::uint64_t s = opt.seed;
  const NodeId offset = static_cast<NodeId>(splitmix64(s) % static_cast<std::uint64_t>(n));
  rep.note("rotation", std::to_string(offset));

  auto make_matrix = [&](bool timed_names, double& build_s) {
    auto m = std::make_unique<SweepMatrix>();
    const std::int64_t t0 = now_ns();
    Graph g = make_cycle(n);
    build_s = seconds_since(t0);
    m->add_graph("cycle", std::move(g), 1.0 - lambda2_cycle(n, 2));
    for (Algorithm a : {Algorithm::kSendFloor, Algorithm::kRotorRouter}) {
      if (timed_names) {
        m->add_balancer(balancer_case(algorithm_name(a)));
      } else {
        m->add_balancer(a);
      }
    }
    m->add_shape(ShapeCase{"bimodal-rotated",
                           [offset](const Graph& gr, Load k, std::uint64_t) {
                             const NodeId nn = gr.num_nodes();
                             LoadVector x(static_cast<std::size_t>(nn), 0);
                             for (NodeId u = 0; u < nn / 2; ++u) {
                               x[static_cast<std::size_t>((u + offset) % nn)] = k;
                             }
                             return x;
                           }});
    m->add_load_scale(kCycleK);
    return m;
  };

  std::vector<double> setup_s;
  double build_s = 0.0;
  std::unique_ptr<SweepMatrix> matrix;
  while (more_setups(setup_s)) {
    matrix.reset();
    const std::int64_t t0 = now_ns();
    matrix = make_matrix(false, build_s);
    setup_s.push_back(seconds_since(t0));
    Spans::instance().add("setup", t0, now_ns());
  }
  const std::vector<Scenario> scenarios = matrix->scenarios();

  // Inner nesting: the two scenarios one after the other, each
  // round-parallel on the whole pool, so every round is a pool kernel
  // and at most one scenario's arrays are live at a time.
  SweepOptions options;
  options.threads = threads;
  options.nesting = SweepNesting::kInner;
  options.base.fixed_horizon = kCycleHorizon;
  options.base.sample_fractions = {1.0};
  options.base.run_continuous = false;
  options.base.audit_fairness = false;
  options.base.record_final_loads = true;

  auto check_unit = [&](const SweepUnit& u, const std::string& label) {
    for (const SweepRow& row : u.rows) {
      const LoadVector& f = row.result.final_loads;
      rep.check(static_cast<NodeId>(f.size()) == n, label + ": final loads recorded");
      if (static_cast<NodeId>(f.size()) != n) continue;
      LoadVector canon(f.size());
      for (NodeId v = 0; v < n; ++v) {
        canon[static_cast<std::size_t>(v)] = f[static_cast<std::size_t>((v + offset) % n)];
      }
      rep.check(total_load(f) == static_cast<Load>(n / 2) * kCycleK,
                label + ": conservation (" + row.balancer + ")");
      rep.observe("final_digest." + row.balancer, digest_of(canon));
      rep.observe("final_discrepancy." + row.balancer,
                  std::to_string(row.result.final_discrepancy));
    }
  };

  const std::vector<SweepUnit> units =
      repeat_units(opt.seconds, kMinUnits, "sweep", [&] {
        SweepUnit u = run_sweep_unit(*matrix, scenarios, options);
        check_unit(u, "cycle-1m");
        return u;
      });
  // Every unit must land on the same final loads.
  std::set<std::string> unit_digests;
  for (const SweepUnit& u : units) {
    std::string d;
    for (const SweepRow& row : u.rows) d += digest_of(row.result.final_loads);
    unit_digests.insert(d);
  }
  rep.check(unit_digests.size() == 1, "cycle-1m final loads differ between repetitions");

  const double rss_mib = peak_rss_mib();
  SnapshotTimes ckpt;
  const std::vector<double> ckpt_ms = snapshot_final_states(
      units.back().rows,
      [&](const SweepRow&) -> const Graph& { return *matrix->graphs()[0].graph; },
      kFinalStateRepeats, rep, ckpt);

  const int width = threads;  // inner nesting: each scenario on the whole pool
  const TimedPhase phase = summarize(units, width);
  report_end_to_end(rep, median(setup_s), phase, ckpt_ms, rss_mib);

  if (!opt.trace) return;
  LayerInputs layers;
  layers.graph_build_s = build_s;
  layers.untraced = phase;
  layers.threads = threads;
  layers.sweep = true;
  layers.ckpt = ckpt;
  // Parallel rounds take the row path (d+ = 4): load 8 B, flow row
  // written and read back 2×32 B, next load 8 B; ROTOR-ROUTER adds its
  // 4-byte rotor read and written (half the node-rounds).
  layers.bytes_per_node_round = 8.0 + 64.0 + 8.0 + 0.5 * 8.0;
  layers.array_bytes = static_cast<std::size_t>(n) * 4 * 8;
  {
    SweepOptions serial = options;
    serial.threads = 1;
    const SweepUnit one = run_sweep_unit(*matrix, scenarios, serial);
    check_unit(one, "cycle-1m at 1 thread");
    layers.one_thread_run_s = one.wall_s;
  }
  register_timed_balancers({algorithm_name(Algorithm::kSendFloor),
                            algorithm_name(Algorithm::kRotorRouter)});
  double unused = 0.0;
  std::unique_ptr<SweepMatrix> timed = make_matrix(true, unused);
  LayerCounters::instance().clear();
  const std::vector<SweepUnit> traced =
      repeat_units(opt.seconds, kMinUnits, "sweep (traced)", [&] {
        SweepUnit u = run_sweep_unit(*timed, timed->scenarios(), options);
        check_unit(u, "cycle-1m traced");
        return u;
      });
  layers.traced = summarize(traced, width);
  report_layers(rep, layers);
}

void run_hypercube_reach(const Options& opt, Report& rep) {
  const int threads = opt.pool_threads;
  constexpr int kDim = 20;
  const NodeId n = NodeId{1} << kDim;
  constexpr Load kK = 1024;
  constexpr Load kTarget = 2 * kDim;  // 2d
  // The seed relabels nodes by u -> u XOR mask, a hypercube automorphism
  // that keeps every port (and hence both balancers' trajectories) intact:
  // t_reach is seed-independent and the relabelled-back final loads must
  // equal the recorded ones.
  std::uint64_t s = opt.seed;
  const NodeId mask = static_cast<NodeId>(splitmix64(s) & static_cast<std::uint64_t>(n - 1));
  rep.note("xor_mask", std::to_string(mask));

  LoadVector initial(static_cast<std::size_t>(n), 0);
  for (NodeId u = 0; u < n / 2; ++u) initial[static_cast<std::size_t>(u ^ mask)] = kK;
  const double mu = 1.0 - lambda2_hypercube(kDim, kDim);
  const std::vector<Algorithm> algos = {Algorithm::kSendFloor,
                                        Algorithm::kRotorRouter};

  std::vector<double> setup_s;
  double build_s = 0.0;
  std::unique_ptr<Graph> g;
  std::unique_ptr<ThreadPool> pool;
  std::vector<std::unique_ptr<Balancer>> balancers;
  for (int i = 0; i < kHypercubeSetupRepeats; ++i) {
    g.reset();
    balancers.clear();
    pool.reset();
    const std::int64_t t0 = now_ns();
    g = std::make_unique<Graph>(make_hypercube(kDim));
    build_s = seconds_since(t0);
    pool = std::make_unique<ThreadPool>(threads);
    for (Algorithm a : algos) balancers.push_back(make_balancer(a, 0));
    setup_s.push_back(seconds_since(t0));
    Spans::instance().add("setup", t0, now_ns());
  }

  ExperimentSpec spec;
  spec.self_loops = kDim;
  spec.fixed_horizon = 1;
  spec.sample_fractions = {1.0};
  spec.run_continuous = false;
  spec.audit_fairness = false;
  spec.reach_target = kTarget;
  spec.reach_cap = 4000;
  spec.record_final_loads = true;

  auto run_unit = [&](std::vector<std::unique_ptr<Balancer>>& bs,
                      ThreadPool* p, const std::string& label) {
    SweepUnit u;
    ExperimentSpec sp = spec;
    sp.pool = p;
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < bs.size(); ++i) {
      const std::int64_t s0 = now_ns();
      ExperimentResult r = run_experiment(*g, *bs[i], initial, mu, sp);
      const std::int64_t s1 = now_ns();
      const double span = static_cast<double>(s1 - s0) * 1e-9;
      u.scenario_s.push_back(span);
      const auto rounds = static_cast<double>(rounds_of(r));
      u.round_ms[i] = span * 1e3 / rounds;
      u.rounds += rounds;
      u.node_rounds += static_cast<double>(n) * rounds;
      u.spans.push_back({"run_experiment " + r.algorithm, s0, s1});

      const std::string name = algorithm_name(algos[i]);
      rep.check(r.reached, label + ": " + name + " reached discrepancy <= 2d");
      rep.check(total_load(r.final_loads) == total_load(initial),
                label + ": conservation (" + name + ")");
      LoadVector canon(r.final_loads.size());
      for (NodeId v = 0; v < n && static_cast<NodeId>(r.final_loads.size()) == n; ++v) {
        canon[static_cast<std::size_t>(v)] = r.final_loads[static_cast<std::size_t>(v ^ mask)];
      }
      rep.observe("t_reach." + name, std::to_string(r.t_reach));
      rep.observe("final_digest." + name, digest_of(canon));
      SweepRow row;
      row.family = "hypercube";
      row.balancer = name;
      row.self_loops = kDim;
      row.result = std::move(r);
      u.rows.push_back(std::move(row));
    }
    u.wall_s = seconds_since(t0);
    return u;
  };

  std::map<std::string, std::set<std::string>> seen;
  const std::vector<SweepUnit> units =
      repeat_units(opt.seconds, kMinUnits, "reach", [&] {
        SweepUnit u = run_unit(balancers, pool.get(), "hypercube-reach");
        for (const SweepRow& row : u.rows) {
          seen[row.balancer].insert(std::to_string(row.result.t_reach) + "/" +
                                    digest_of(row.result.final_loads));
        }
        return u;
      });
  for (const auto& [name, outcomes] : seen) {
    rep.check(outcomes.size() == 1, "hypercube-reach " + name + " differs between repetitions");
  }

  const double rss_mib = peak_rss_mib();
  SnapshotTimes ckpt;
  const std::vector<double> ckpt_ms = snapshot_final_states(
      units.back().rows, [&](const SweepRow&) -> const Graph& { return *g; },
      kFinalStateRepeats, rep, ckpt);

  const TimedPhase phase = summarize(units, threads);
  report_end_to_end(rep, median(setup_s), phase, ckpt_ms, rss_mib);

  if (!opt.trace) return;
  LayerInputs layers;
  layers.graph_build_s = build_s;
  layers.untraced = phase;
  layers.threads = threads;
  layers.sweep = false;
  layers.ckpt = ckpt;
  // Row path, d+ = 40: load 8 B, flow row written and read back
  // 2×320 B, next load 8 B; ROTOR-ROUTER's rotor 8 B on half the rounds.
  layers.bytes_per_node_round = 8.0 + 640.0 + 8.0 + 0.5 * 8.0;
  layers.array_bytes = static_cast<std::size_t>(n) * 40 * 8;
  {
    const SweepUnit one = run_unit(balancers, nullptr, "hypercube-reach at 1 thread");
    layers.one_thread_run_s = one.wall_s;
  }
  std::vector<std::string> names;
  for (Algorithm a : algos) names.push_back(algorithm_name(a));
  register_timed_balancers(names);
  std::vector<std::unique_ptr<Balancer>> timed;
  for (const std::string& name : names) {
    timed.push_back(find_balancer_factory(name)(0));
  }
  LayerCounters::instance().clear();
  const std::vector<SweepUnit> traced =
      repeat_units(opt.seconds, kMinUnits, "reach (traced)", [&] {
        return run_unit(timed, pool.get(), "hypercube-reach traced");
      });
  layers.traced = summarize(traced, threads);
  report_layers(rep, layers);
}

}  // namespace perfbench
