// E13 — Non-regular extension: the regular theory with d -> max degree.
//
// The paper claims its results extend to non-regular graphs; the
// standard construction pads every node to a uniform balancing degree
// D = 2·max_degree with self-loops. pad_to_regular turns each graph into
// a regular Graph plus d° = D − max_degree self-loops, and this bench
// runs the registry's SEND(⌊x/D⌋) and ROTOR-ROUTER on it through the
// ordinary Engine, on four heterogeneous families — grid (degrees 2/3/4),
// wheel (hub degree n−1), barbell (bad conductance), G(n,p) — and
// reports discrepancy at T(µ_padded) against the d_max-based Thm 2.3
// envelope.
//
// The bench shares the sweep benches' CLI surface (--threads/--csv as in
// bench_table1) directly on the ThreadPool: the (graph × algorithm) jobs
// fan out across the pool and results aggregate by job index
// (byte-deterministic at any thread count). Each engine runs serial
// inside its job — handing the job pool to an engine would nest
// for_ranges; use Engine::set_thread_pool with a dedicated pool when
// driving one huge instance instead.
#include <cmath>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "balancers/registry.hpp"
#include "bench_common.hpp"
#include "core/engine.hpp"
#include "irregular/igraph.hpp"
#include "markov/mixing.hpp"
#include "markov/spectral.hpp"
#include "util/csv.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace dlb;

struct Row {
  std::string graph;
  NodeId n = 0;
  int min_degree = 0;
  int max_degree = 0;
  double mu = 0.0;
  Step t_balance = 0;
  std::string policy;
  Load disc = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::SweepCli cli =
      bench::parse_sweep_cli(argc, argv, "bench_irregular");

  std::printf("bench_irregular: diffusion balancing on non-regular graphs "
              "(padding D = 2*max_degree)\n");

  const IrregularGraph graphs[] = {
      make_grid2d(16, 16),
      make_wheel(128),
      make_barbell(8, 8),
      make_gnp_connected(256, 8.0, 11),
  };
  const Load scales[] = {100 * 256, 100 * 128, 100 * 24, 100 * 256};
  const Algorithm algorithms[] = {Algorithm::kSendFloor,
                                  Algorithm::kRotorRouter};
  const std::size_t num_graphs = std::size(graphs);
  std::vector<PaddedGraph> padded;
  for (const IrregularGraph& g : graphs) padded.push_back(pad_to_regular(g));

  ThreadPool pool(cli.threads);
  // µ once per graph, shared by its algorithms' jobs (the padded wheel
  // needs ~10^5 power iterations).
  std::vector<double> mus(num_graphs);
  pool.for_ranges(static_cast<std::int64_t>(num_graphs),
                  [&](std::int64_t first, std::int64_t last) {
                    for (auto i = static_cast<std::size_t>(first);
                         i < static_cast<std::size_t>(last); ++i) {
                      mus[i] = spectral_gap(padded[i].graph,
                                            padded[i].self_loops)
                                   .gap;
                    }
                  });

  // Job j runs algorithms[j % 2] on graph j / 2.
  std::vector<Row> rows(num_graphs * std::size(algorithms));
  pool.for_ranges(
      static_cast<std::int64_t>(rows.size()),
      [&](std::int64_t first, std::int64_t last) {
        for (auto j = static_cast<std::size_t>(first);
             j < static_cast<std::size_t>(last); ++j) {
          const std::size_t i = j / std::size(algorithms);
          const Algorithm a = algorithms[j % std::size(algorithms)];
          const IrregularGraph& g = graphs[i];
          const PaddedGraph& p = padded[i];
          LoadVector init(static_cast<std::size_t>(g.num_nodes()), 0);
          init[0] = scales[i];
          const Step t_bal = balancing_time(g.num_nodes(), scales[i], mus[i]);

          // Outer parallelism only: chunks of this pool run whole jobs,
          // so handing the same pool to the engine would nest for_ranges.
          const auto balancer = make_balancer(a);
          Engine e(p.graph, EngineConfig{.self_loops = p.self_loops},
                   *balancer, init);
          e.run(t_bal);
          rows[j] = {g.name(),       g.num_nodes(), g.min_degree(),
                     g.max_degree(), mus[i],        t_bal,
                     algorithm_name(a), e.discrepancy()};
        }
      });

  std::printf("%-18s %5s %10s %9s %8s %14s %10s\n", "graph", "n",
              "deg(mn/mx)", "mu", "T", "policy", "disc");
  bench::rule(80);
  for (const Row& r : rows) {
    std::printf("%-18s %5d %5d/%-4d %9.4f %8lld %14s %10lld\n",
                r.graph.c_str(), r.n, r.min_degree, r.max_degree, r.mu,
                static_cast<long long>(r.t_balance), r.policy.c_str(),
                static_cast<long long>(r.disc));
  }
  for (std::size_t i = 0; i < num_graphs; ++i) {
    const IrregularGraph& g = graphs[i];
    const double mu = mus[i];
    const double envelope =
        g.max_degree() *
        std::sqrt(std::log(static_cast<double>(g.num_nodes())) / mu);
    std::printf("  %-18s dmax*sqrt(ln n/mu) envelope = %.1f\n",
                g.name().c_str(), envelope);
  }
  std::printf("expected shape: every family balances to well under the "
              "d_max-based Thm 2.3 envelope at T — the regular theory "
              "survives the padding, including the hub-heavy wheel and the "
              "tiny-gap barbell.\n");

  // CSV in the sweep benches' discipline: header + one line per job,
  // aggregated by job index (identical at any --threads).
  const auto write_rows = [&rows](std::ostream& out) {
    CsvWriter csv(out);
    csv.header({"job", "graph", "n", "min_degree", "max_degree", "mu",
                "t_balance", "policy", "final_disc"});
    char mu_buf[40];
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::snprintf(mu_buf, sizeof mu_buf, "%.17g", r.mu);
      csv.row({std::to_string(i), r.graph, std::to_string(r.n),
               std::to_string(r.min_degree), std::to_string(r.max_degree),
               mu_buf, std::to_string(r.t_balance), r.policy,
               std::to_string(r.disc)});
    }
  };
  if (!cli.csv_path.empty()) {
    std::ofstream out(cli.csv_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", cli.csv_path.c_str());
      return 1;
    }
    write_rows(out);
    std::printf("CSV written to %s (%zu rows)\n", cli.csv_path.c_str(),
                rows.size());
  } else {
    std::printf("\n");
    write_rows(std::cout);
  }
  return 0;
}
