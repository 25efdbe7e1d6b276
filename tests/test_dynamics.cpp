// Tests for the src/dynamics subsystem: workload generators, the
// pre-round engine hook with its extended conservation audit
// (Σx == Σx₀ + injected − consumed), steady-state tracking, and — the
// load-bearing property — byte-identical dynamic trajectories at thread
// counts {1, 2, 8}.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/sweep.hpp"
#include "balancers/registry.hpp"
#include "balancers/send_floor.hpp"
#include "core/engine.hpp"
#include "dimexchange/de_engine.hpp"
#include "dynamics/steady_stats.hpp"
#include "dynamics/workload.hpp"
#include "graph/generators.hpp"
#include "irregular/igraph.hpp"
#include "markov/spectral.hpp"
#include "shard/sharded_engine.hpp"
#include "util/thread_pool.hpp"

namespace dlb {
namespace {

// ---------------------------------------------------------- generators --

TEST(CounterWorkload, DeltaFollowsTheStaggeredPattern) {
  CounterWorkload w({.arrival_period = 4,
                     .arrival_amount = 3,
                     .departure_period = 4,
                     .departure_amount = 2});
  const Graph g = make_cycle(8);
  w.reset(g.num_nodes(), 0);
  for (NodeId u = 0; u < 8; ++u) {
    for (Step t = 0; t < 12; ++t) {
      Load expect = 0;
      if ((t + u) % 4 == 0) expect += 3;
      if ((t + u) % 4 == 3) expect -= 2;
      EXPECT_EQ(w.delta(u, t), expect) << "u=" << u << " t=" << t;
    }
  }
  EXPECT_TRUE(w.parallel_generate_safe());
  EXPECT_EQ(w.name(), "counter(in=3/4,out=2/4)");
}

TEST(CounterWorkload, ZeroPeriodDisablesThatSide) {
  CounterWorkload w({.arrival_period = 2,
                     .arrival_amount = 1,
                     .departure_period = 0,
                     .departure_amount = 5});
  const Graph g = make_cycle(4);
  w.reset(g.num_nodes(), 0);
  for (Step t = 0; t < 8; ++t) EXPECT_GE(w.delta(0, t), 0);
}

TEST(WorkloadProcess, ParallelGenerationIsOptIn) {
  // Mirror of Balancer::parallel_decide_safe: a third-party process that
  // doesn't state its contract is generated serially, never raced.
  class MinimalProcess : public WorkloadProcess {
   public:
    std::string name() const override { return "minimal"; }
    void reset(NodeId, std::uint64_t) override {}
    Load delta(NodeId, Step) override { return 0; }
  };
  MinimalProcess p;
  EXPECT_FALSE(p.parallel_generate_safe());
  // The built-ins all opt in.
  EXPECT_TRUE(PoissonWorkload({0.1, 0.1}).parallel_generate_safe());
  EXPECT_TRUE(BurstWorkload({}).parallel_generate_safe());
  EXPECT_TRUE(AdversarialInjector({}).parallel_generate_safe());
}

TEST(PoissonDraw, MeanApproximatesLambda) {
  Rng rng(99);
  const double lambda = 1.5;
  double sum = 0.0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    sum += static_cast<double>(poisson_draw(rng, lambda));
  }
  EXPECT_NEAR(sum / trials, lambda, 0.05);
  EXPECT_EQ(poisson_draw(rng, 0.0), 0);
}

namespace {

/// Sample mean and variance of `trials` draws at rate `lambda`.
std::pair<double, double> poisson_moments(double lambda, int trials,
                                          std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> draws;
  draws.reserve(static_cast<std::size_t>(trials));
  double sum = 0.0;
  for (int i = 0; i < trials; ++i) {
    const auto d = static_cast<double>(poisson_draw(rng, lambda));
    draws.push_back(d);
    sum += d;
  }
  const double mean = sum / trials;
  double var = 0.0;
  for (double d : draws) var += (d - mean) * (d - mean);
  return {mean, var / (trials - 1)};
}

}  // namespace

TEST(PoissonDraw, SplitRegimeHasPoissonMoments) {
  // 64 < λ <= 4096: the exact additive split. Rates here used to abort
  // outright ("rate too large for the product method"); now they must
  // draw with Poisson mean AND variance ≈ λ (a wrong split — e.g.
  // summing copies of the same draw — would inflate the variance).
  const double lambda = 100.0;
  const auto [mean, var] = poisson_moments(lambda, 20000, 7);
  EXPECT_NEAR(mean, lambda, 1.0);
  EXPECT_NEAR(var, lambda, 0.1 * lambda);
}

TEST(PoissonDraw, NormalRegimeHasPoissonMoments) {
  // λ > 4096: the inverse-CDF normal approximation, O(1) per draw.
  const double lambda = 10000.0;
  const auto [mean, var] = poisson_moments(lambda, 20000, 8);
  EXPECT_NEAR(mean, lambda, 5.0);
  EXPECT_NEAR(var, lambda, 0.1 * lambda);
}

TEST(PoissonDraw, DeterministicAcrossRegimeBoundaries) {
  // The regime seams are fixed constants; a given (seed, λ) pair must
  // draw the same value on every run and platform branch. Probe both
  // sides of both seams (kPoissonProductCap = 64, kPoissonSplitCap =
  // 4096) plus a deep-normal rate.
  for (double lambda : {kPoissonProductCap - 0.5, kPoissonProductCap,
                        kPoissonProductCap + 0.5, kPoissonSplitCap - 0.5,
                        kPoissonSplitCap, kPoissonSplitCap + 0.5, 1.0e6}) {
    SCOPED_TRACE(lambda);
    Rng a(1234);
    Rng b(1234);
    for (int i = 0; i < 50; ++i) {
      const Load da = poisson_draw(a, lambda);
      EXPECT_EQ(da, poisson_draw(b, lambda));
      EXPECT_GE(da, 0);
      // Loose plausibility band: within 20 standard deviations.
      EXPECT_LT(static_cast<double>(da),
                lambda + 20.0 * std::sqrt(lambda) + 10.0);
    }
  }
}

namespace {

/// FNV-1a over the little-endian bytes of each value.
struct Fnv64 {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(Load v) {
    auto u = static_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i, u >>= 8) {
      h = (h ^ (u & 0xff)) * 0x100000001b3ULL;
    }
  }
};

/// The golden rates: all three regimes and both sides of both seams.
constexpr double kGoldenRates[] = {0.05, 1.0,    63.9,  64.0,
                                   64.5, 4096.0, 5000.0};

}  // namespace

TEST(PoissonDraw, GoldenDigestsPinEveryRegime) {
  // Digests of 10^4 draws per rate, recorded from the implementation
  // that recomputed the regime, chunk count and exp(−λ) limit on every
  // draw. The precomputed per-rate plan must reproduce them bit for bit.
  constexpr std::uint64_t kExpected[] = {
      0xa7cf51a7e2513be4ULL, 0xb33bc6ad3c75b705ULL, 0x7bf8f172fa3f59bbULL,
      0x087d8a54721cea33ULL, 0xca4cf4919d1cb4d9ULL, 0x5a06f4eaf0035b2cULL,
      0x05a9a0ac4bfed845ULL,
  };
  for (std::size_t i = 0; i < std::size(kGoldenRates); ++i) {
    const double lambda = kGoldenRates[i];
    SCOPED_TRACE(lambda);
    Rng rng(0x90d1e7ULL + i);
    Fnv64 digest;
    for (int k = 0; k < 10000; ++k) digest.add(poisson_draw(rng, lambda));
    EXPECT_EQ(digest.h, kExpected[i]) << std::hex << digest.h;
  }
}

TEST(PoissonPlan, ZeroCutoffDecidesTheFirstWordExactly) {
  // A single-product draw is 0 iff its first word x has (x >> 11) <=
  // zero_cutoff(). Random draws almost never land on the seam, so
  // build generators whose first output sits exactly on and beside it:
  // state word 1 is the scrambler's preimage of the wanted output.
  const auto inverse = [](std::uint64_t odd) {
    std::uint64_t inv = odd;  // Newton: 3, 6, 12, 24, 48, 96 bits
    for (int i = 0; i < 5; ++i) inv *= 2 - odd * inv;
    return inv;
  };
  const auto unscramble = [&](std::uint64_t x) {
    const std::uint64_t a = x * inverse(9);
    return ((a >> 7) | (a << 57)) * inverse(5);
  };
  for (const double lambda : {1e-9, 0.05, 1.0, 63.9, 64.0}) {
    SCOPED_TRACE(lambda);
    const PoissonPlan plan(lambda);
    ASSERT_TRUE(plan.single_product());
    const std::uint64_t cut = plan.zero_cutoff();
    for (const std::uint64_t m : {cut - 1, cut, cut + 1}) {
      for (const std::uint64_t low : {0ULL, 0x7ffULL}) {
        const std::uint64_t x = (m << 11) | low;
        ASSERT_EQ(Rng::scramble(unscramble(x)), x);
        Rng rng;
        rng.set_state({0x1234ULL, unscramble(x), 0x5678ULL, 0x9abcULL});
        EXPECT_EQ(plan.draw(rng) == 0, m <= cut)
            << "m - cut = " << static_cast<std::int64_t>(m - cut);
      }
    }
  }
  EXPECT_FALSE(PoissonPlan(0.0).single_product());
  EXPECT_FALSE(PoissonPlan(64.5).single_product());
  EXPECT_FALSE(PoissonPlan(5000.0).single_product());
}

/// Recorded digests of PoissonWorkload's (node, round) delta grid, one
/// per golden rate; every way of producing the grid must reproduce them.
constexpr std::uint64_t kGoldenDeltaDigests[] = {
    0x1bc695d5264e64b4ULL, 0x1e9a4ecbf128bd5fULL, 0x6efecccf3af2334eULL,
    0x4d27451e9a5fa437ULL, 0x383eab63c6b6d894ULL, 0xad2526a63413dc59ULL,
    0x50dd33770cabd928ULL,
};

TEST(PoissonWorkload, GoldenDeltaDigestsPinEveryRegime) {
  // PoissonWorkload's own per-rate plans, built once at construction:
  // each golden rate as the arrival side against a small departure
  // rate, over a (node, round) grid, digested against the recorded
  // per-draw implementation.
  for (std::size_t i = 0; i < std::size(kGoldenRates); ++i) {
    SCOPED_TRACE(kGoldenRates[i]);
    PoissonWorkload w({.arrival_rate = kGoldenRates[i],
                       .departure_rate = 0.05});
    w.reset(128, 17 + i);
    Fnv64 digest;
    for (Step t = 0; t < 40; ++t) {
      for (NodeId u = 0; u < 128; ++u) digest.add(w.delta(u, t));
    }
    EXPECT_EQ(digest.h, kGoldenDeltaDigests[i]) << std::hex << digest.h;
  }
}

namespace {

/// The reference for nonzero_deltas: the delta() loop, zeros dropped.
std::vector<NodeDelta> delta_loop_pairs(WorkloadProcess& w, NodeId first,
                                        NodeId last, Step t) {
  std::vector<NodeDelta> pairs;
  for (NodeId u = first; u < last; ++u) {
    if (const Load d = w.delta(u, t); d != 0) pairs.emplace_back(u, d);
  }
  return pairs;
}

/// nonzero_deltas over [0, n) in pieces cut at `cuts`, concatenated.
std::vector<NodeDelta> range_pairs(WorkloadProcess& w, NodeId n, Step t,
                                   const std::vector<NodeId>& cuts) {
  std::vector<NodeDelta> pairs;
  NodeId first = 0;
  for (NodeId cut : cuts) {
    w.nonzero_deltas(first, cut, t, pairs);
    first = cut;
  }
  w.nonzero_deltas(first, n, t, pairs);
  return pairs;
}

}  // namespace

TEST(PoissonWorkload, RangeMethodReproducesGoldenDeltaDigests) {
  // The recorded grid digests, rebuilt from nonzero_deltas output
  // expanded back to a dense grid over ranges whose ends are not
  // multiples of 4 (and one empty range).
  for (std::size_t i = 0; i < std::size(kGoldenRates); ++i) {
    SCOPED_TRACE(kGoldenRates[i]);
    PoissonWorkload w({.arrival_rate = kGoldenRates[i],
                       .departure_rate = 0.05});
    w.reset(128, 17 + i);
    Fnv64 digest;
    for (Step t = 0; t < 40; ++t) {
      std::vector<Load> grid(128, 0);
      for (const auto& [u, d] : range_pairs(w, 128, t, {5, 5, 67, 127})) {
        grid[static_cast<std::size_t>(u)] = d;
      }
      for (Load d : grid) digest.add(d);
    }
    EXPECT_EQ(digest.h, kGoldenDeltaDigests[i]) << std::hex << digest.h;
  }
}

TEST(PoissonWorkload, RangeMethodEqualsDeltaLoopInEveryRegime) {
  // Both plans in the product regime take the two-word kernel; a zero
  // rate on either side, the split regime and the normal regime take the
  // default loop. Rounds near 2^40 exercise the high key bits.
  const std::pair<double, double> rates[] = {
      {0.05, 0.05}, {0.3, 0.05}, {1e-9, 2.5}, {63.9, 64.0}, {0.0, 0.05},
      {0.05, 0.0},  {0.0, 0.0},  {64.5, 0.05}, {0.05, 5000.0},
  };
  const Step kT40 = Step{1} << 40;
  for (const auto& [in, out] : rates) {
    for (const std::uint64_t seed : {0ULL, 3ULL, 0x9e3779b97f4a7c15ULL}) {
      PoissonWorkload w({.arrival_rate = in, .departure_rate = out});
      w.reset(203, seed);
      for (const Step t : {Step{0}, Step{1}, Step{77}, kT40 - 1, kT40,
                           kT40 + 3}) {
        SCOPED_TRACE(w.name() + " seed=" + std::to_string(seed) +
                     " t=" + std::to_string(t));
        EXPECT_EQ(range_pairs(w, 203, t, {1, 6, 7, 130}),
                  delta_loop_pairs(w, 0, 203, t));
        std::vector<NodeDelta> mid;
        w.nonzero_deltas(13, 99, t, mid);
        EXPECT_EQ(mid, delta_loop_pairs(w, 13, 99, t));
      }
    }
  }
}

TEST(WorkloadProcess, DefaultRangeMethodIsTheDeltaLoop) {
  // The processes without an override: after each round's prepare(),
  // nonzero_deltas is exactly the delta() loop, dense or sparse round.
  std::vector<std::unique_ptr<WorkloadProcess>> ps;
  ps.push_back(std::make_unique<CounterWorkload>(CounterWorkload::Params{
      .arrival_period = 3, .arrival_amount = 2, .departure_period = 5,
      .departure_amount = 1}));
  ps.push_back(std::make_unique<BurstWorkload>(BurstWorkload::Params{
      .period = 4, .burst = 64, .drain_period = 6, .drain_amount = 1}));
  ps.push_back(std::make_unique<AdversarialInjector>(
      AdversarialInjector::Params{.amount = 8, .period = 2,
                                  .drain_min = true}));
  const LoadVector loads = random_initial(37, 40, 5);
  for (auto& w : ps) {
    w->reset(37, 11);
    for (Step t = 0; t < 13; ++t) {
      SCOPED_TRACE(w->name() + " t=" + std::to_string(t));
      w->prepare(t, loads);
      EXPECT_EQ(range_pairs(*w, 37, t, {3, 3, 18}),
                delta_loop_pairs(*w, 0, 37, t));
    }
  }
}

TEST(PoissonDraw, RejectsOnlyLedgerOverflowRates) {
  Rng rng(5);
  EXPECT_THROW(poisson_draw(rng, -1.0), invariant_error);
  EXPECT_THROW(poisson_draw(rng, 2.0e15), invariant_error);
  // The old hard cap at 64 is gone.
  EXPECT_NO_THROW(poisson_draw(rng, 65.0));
  EXPECT_NO_THROW(poisson_draw(rng, 5000.0));
}

TEST(PoissonWorkload, AcceptsRatesAboveTheOldProductCap) {
  // The constructor used to reject rates > 64; high-traffic service
  // scenarios need them. Net drift over n nodes and T rounds must track
  // arrival − departure.
  PoissonWorkload w(
      PoissonWorkload::Params{.arrival_rate = 500.0, .departure_rate = 480.0});
  w.reset(64, 3);
  double net = 0.0;
  int samples = 0;
  for (Step t = 0; t < 40; ++t) {
    for (NodeId u = 0; u < 64; ++u) {
      net += static_cast<double>(w.delta(u, t));
      ++samples;
    }
  }
  // E[delta] = 20, sd ≈ √980 ≈ 31.3 per sample; 2560 samples → the mean
  // estimator's sd ≈ 0.62. A ±3 band is ~5 sigma.
  EXPECT_NEAR(net / samples, 20.0, 3.0);
}

TEST(PoissonWorkload, DeltasArePureInNodeRoundSeed) {
  const Graph g = make_cycle(16);
  PoissonWorkload a({.arrival_rate = 0.7, .departure_rate = 0.3});
  PoissonWorkload b({.arrival_rate = 0.7, .departure_rate = 0.3});
  a.reset(g.num_nodes(), 5);
  b.reset(g.num_nodes(), 5);
  // Same seed: identical deltas regardless of evaluation order. Record
  // a's values in ascending (t, u) order, then query b in the reverse
  // order — an implementation leaking sequential-stream state into
  // delta() diverges here.
  std::vector<Load> recorded;
  for (Step t = 0; t < 10; ++t) {
    for (NodeId u = 0; u < 16; ++u) recorded.push_back(a.delta(u, t));
  }
  for (Step t = 9; t >= 0; --t) {
    for (NodeId u = 15; u >= 0; --u) {
      EXPECT_EQ(b.delta(u, t),
                recorded[static_cast<std::size_t>(t) * 16 +
                         static_cast<std::size_t>(u)])
          << "u=" << u << " t=" << t;
    }
  }
  PoissonWorkload c({.arrival_rate = 0.7, .departure_rate = 0.3});
  c.reset(g.num_nodes(), 6);
  int diffs = 0;
  for (Step t = 0; t < 20; ++t) {
    for (NodeId u = 0; u < 16; ++u) diffs += (a.delta(u, t) != c.delta(u, t));
  }
  EXPECT_GT(diffs, 0);  // different seed, different stream
}

TEST(BurstWorkload, OneHotspotPerPeriodAndUniformDrain) {
  const Graph g = make_cycle(32);
  BurstWorkload w({.period = 8, .burst = 100, .drain_period = 2,
                   .drain_amount = 1});
  w.reset(g.num_nodes(), 11);
  LoadVector loads(32, 0);
  for (Step t = 0; t < 32; ++t) {
    w.prepare(t, loads);
    Load burst_mass = 0;
    for (NodeId u = 0; u < 32; ++u) {
      const Load d = w.delta(u, t);
      const Load drain = (t % 2 == 0) ? -1 : 0;
      if (u == w.hotspot()) {
        EXPECT_EQ(d, 100 + drain);
        burst_mass += 100;
      } else {
        EXPECT_EQ(d, drain);
      }
    }
    EXPECT_EQ(burst_mass, t % 8 == 0 ? 100 : 0);
  }
}

TEST(AdversarialInjector, TargetsArgmaxWithLowestIndexTieBreak) {
  const Graph g = make_cycle(8);
  AdversarialInjector w({.amount = 5, .period = 1, .drain_min = true});
  w.reset(g.num_nodes(), 0);
  const LoadVector loads = {3, 9, 9, 1, 1, 4, 0, 0};
  w.prepare(0, loads);
  for (NodeId u = 0; u < 8; ++u) {
    Load expect = 0;
    if (u == 1) expect += 5;  // first argmax
    if (u == 6) expect -= 5;  // first argmin
    EXPECT_EQ(w.delta(u, 0), expect);
  }
}

TEST(AdversarialInjector, FlatVectorStillGetsInjectionWithDrainMin) {
  // argmax == argmin on a flat vector: the drain is skipped so the
  // adversary perturbs the balance instead of cancelling forever.
  const Graph g = make_cycle(4);
  AdversarialInjector w({.amount = 5, .period = 1, .drain_min = true});
  w.reset(g.num_nodes(), 0);
  const LoadVector flat = {6, 6, 6, 6};
  w.prepare(0, flat);
  Load sum = 0;
  for (NodeId u = 0; u < 4; ++u) sum += w.delta(u, 0);
  EXPECT_EQ(sum, 5);
  EXPECT_EQ(w.delta(0, 0), 5);  // inject at the first argmax, no drain
}

TEST(AdversarialInjector, PeriodGatesTheInjection) {
  const Graph g = make_cycle(4);
  AdversarialInjector w({.amount = 5, .period = 3, .drain_min = false});
  w.reset(g.num_nodes(), 0);
  const LoadVector loads = {0, 7, 0, 0};
  for (Step t = 0; t < 6; ++t) {
    w.prepare(t, loads);
    Load sum = 0;
    for (NodeId u = 0; u < 4; ++u) sum += w.delta(u, t);
    EXPECT_EQ(sum, t % 3 == 0 ? 5 : 0);
  }
}

// ------------------------------------------- sparse-injection fast path --

/// Delegating wrapper that hides the inner process's affected-node list,
/// forcing the engine onto the dense all-nodes scan — the reference the
/// sparse fast path must match delta for delta.
class DenseView : public WorkloadProcess {
 public:
  explicit DenseView(WorkloadProcess& inner) : inner_(&inner) {}
  std::string name() const override { return inner_->name(); }
  void reset(NodeId n, std::uint64_t seed) override {
    inner_->reset(n, seed);
  }
  void prepare(Step t, std::span<const Load> loads) override {
    inner_->prepare(t, loads);
  }
  Load delta(NodeId u, Step t) override { return inner_->delta(u, t); }
  bool parallel_generate_safe() const override {
    return inner_->parallel_generate_safe();
  }
  // affected_nodes() deliberately not forwarded: always dense.

 private:
  WorkloadProcess* inner_;
};

TEST(SparseWorkload, BurstListCoversExactlyTheTouchedNodes) {
  BurstWorkload w({.period = 4, .burst = 50, .drain_period = 6,
                   .drain_amount = 1});
  w.reset(32, 11);
  LoadVector loads(32, 3);
  for (Step t = 0; t < 24; ++t) {
    w.prepare(t, loads);
    const std::vector<NodeId>* affected = w.affected_nodes();
    if (t % 6 == 0) {
      // Drain rounds touch every node: the process must declare dense.
      EXPECT_EQ(affected, nullptr) << "t=" << t;
      continue;
    }
    ASSERT_NE(affected, nullptr) << "t=" << t;
    if (t % 4 == 0) {
      ASSERT_EQ(affected->size(), 1u) << "t=" << t;
      EXPECT_EQ((*affected)[0], w.hotspot()) << "t=" << t;
    } else {
      EXPECT_TRUE(affected->empty()) << "t=" << t;
    }
    // Contract: delta == 0 off the list.
    for (NodeId u = 0; u < 32; ++u) {
      const bool listed =
          std::find(affected->begin(), affected->end(), u) != affected->end();
      if (!listed) {
        EXPECT_EQ(w.delta(u, t), 0) << "t=" << t << " u=" << u;
      }
    }
  }
}

TEST(SparseWorkload, AdversaryListHoldsTheRoundTargets) {
  AdversarialInjector w({.amount = 5, .period = 2, .drain_min = true});
  w.reset(8, 0);
  const LoadVector loads = {3, 9, 9, 1, 1, 4, 0, 0};
  w.prepare(0, loads);
  const std::vector<NodeId>* affected = w.affected_nodes();
  ASSERT_NE(affected, nullptr);
  EXPECT_EQ(*affected, (std::vector<NodeId>{1, 6}));  // argmax, argmin
  w.prepare(1, loads);  // off-period round: no targets
  ASSERT_NE(w.affected_nodes(), nullptr);
  EXPECT_TRUE(w.affected_nodes()->empty());
}

TEST(SparseWorkload, FastPathMatchesDenseScanTrajectoryAndLedger) {
  // Burst (with drain, so sparse and dense rounds interleave) and
  // adversary processes on the engine: the sparse fast path must
  // reproduce the dense scan byte for byte — loads, injected/consumed
  // ledgers, and conservation — serially and under a pool.
  const Graph g = make_cycle(32);
  const LoadVector initial = random_initial(g.num_nodes(), 40, 5);
  ThreadPool pool(4);
  const auto make_processes = [] {
    std::vector<std::unique_ptr<WorkloadProcess>> ps;
    ps.push_back(std::make_unique<BurstWorkload>(BurstWorkload::Params{
        .period = 4, .burst = 64, .drain_period = 6, .drain_amount = 1}));
    ps.push_back(std::make_unique<BurstWorkload>(
        BurstWorkload::Params{.period = 3, .burst = 17}));
    ps.push_back(std::make_unique<AdversarialInjector>(
        AdversarialInjector::Params{.amount = 8, .period = 2,
                                    .drain_min = true}));
    return ps;
  };
  for (bool parallel : {false, true}) {
    auto sparse_ps = make_processes();
    auto dense_ps = make_processes();
    for (std::size_t i = 0; i < sparse_ps.size(); ++i) {
      SendFloor sparse_b, dense_b;
      DenseView dense_w(*dense_ps[i]);
      const EngineConfig config{.self_loops = g.degree()};
      Engine sparse_e(g, config, sparse_b, initial);
      Engine dense_e(g, config, dense_b, initial);
      sparse_ps[i]->reset(g.num_nodes(), 21);
      dense_w.reset(g.num_nodes(), 21);
      sparse_e.set_workload(sparse_ps[i].get());
      dense_e.set_workload(&dense_w);
      if (parallel) {
        sparse_e.set_thread_pool(&pool);
        dense_e.set_thread_pool(&pool);
      }
      const auto where = [&] {
        return sparse_ps[i]->name() +
               (parallel ? " (parallel)" : " (serial)");
      };
      for (Step t = 0; t < 60; ++t) {
        sparse_e.step_parallel();
        dense_e.step_parallel();
        ASSERT_EQ(sparse_e.loads(), dense_e.loads())
            << where() << " diverged at step " << t + 1;
        ASSERT_EQ(sparse_e.injected_total(), dense_e.injected_total())
            << where() << " at step " << t + 1;
        ASSERT_EQ(sparse_e.consumed_total(), dense_e.consumed_total())
            << where() << " at step " << t + 1;
      }
    }
  }
}

/// A dense third-party process whose nonzero_deltas override breaks the
/// contract in one way; its delta() is the honest +1 everywhere.
class RogueRange : public WorkloadProcess {
 public:
  enum class Fault { kPastLast, kBeforeFirst, kUnsorted, kZero };
  explicit RogueRange(Fault fault) : fault_(fault) {}
  std::string name() const override { return "rogue-range"; }
  void reset(NodeId, std::uint64_t) override {}
  Load delta(NodeId, Step) override { return 1; }
  bool parallel_generate_safe() const override { return true; }
  void nonzero_deltas(NodeId first, NodeId last, Step t,
                      std::vector<NodeDelta>& out) override {
    WorkloadProcess::nonzero_deltas(first, last, t, out);
    switch (fault_) {
      case Fault::kPastLast: out.emplace_back(last, 1); break;
      case Fault::kBeforeFirst: out.front().first = first - 1; break;
      case Fault::kUnsorted: std::swap(out.front(), out.back()); break;
      case Fault::kZero: out.back().second = 0; break;
    }
  }

 private:
  Fault fault_;
};

TEST(DenseWorkload, EnginesRejectABadRangeListBeforeApplyingIt) {
  // The range list crosses the same trust boundary as affected_nodes():
  // an entry outside the range, out of order or zero throws, on the flat
  // engine (serial and pooled) and on the sharded engine, instead of
  // indexing memory it does not own.
  const Graph g = make_cycle(16);
  const LoadVector initial(16, 4);
  ThreadPool pool(3);
  for (const auto fault :
       {RogueRange::Fault::kPastLast, RogueRange::Fault::kBeforeFirst,
        RogueRange::Fault::kUnsorted, RogueRange::Fault::kZero}) {
    RogueRange w(fault);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      SendFloor b;
      Engine flat(g, EngineConfig{.self_loops = g.degree()}, b, initial);
      flat.set_workload(&w);
      flat.set_thread_pool(p);
      EXPECT_THROW(flat.step_parallel(), invariant_error);

      SendFloor sb;
      ShardedEngineConfig config;
      config.self_loops = g.degree();
      ShardedEngine sharded(g, config, sb, initial, 4);
      sharded.set_workload(&w);
      sharded.set_thread_pool(p);
      EXPECT_THROW(sharded.step_parallel(), invariant_error);
    }
  }
}

// --------------------------------------------------- engine integration --

TEST(DynamicEngine, ConservationIdentityHoldsEveryRound) {
  const Graph g = make_cycle(48);
  SendFloor balancer;
  PoissonWorkload churn({.arrival_rate = 0.8, .departure_rate = 0.8});
  churn.reset(g.num_nodes(), 3);
  Engine engine(g,
                EngineConfig{.self_loops = 2, .conservation_interval = 1},
                balancer, bimodal_initial(48, 20));
  engine.set_workload(&churn);
  const Load base = engine.base_total();
  EXPECT_EQ(base, 20 * 24);
  for (Step t = 0; t < 300; ++t) {
    engine.step();  // the interval-1 audit re-sums Σx every round
    EXPECT_EQ(engine.total(),
              base + engine.injected_total() - engine.consumed_total());
    EXPECT_EQ(total_load(engine.loads()), engine.total());
  }
  EXPECT_GT(engine.injected_total(), 0);
  EXPECT_GT(engine.consumed_total(), 0);
}

TEST(DynamicEngine, ConsumptionTruncatesAtZeroLoad) {
  const Graph g = make_cycle(16);
  SendFloor balancer;
  // Departure-heavy churn on a nearly-empty system: requests far exceed
  // the available tokens, so realized consumption must be truncated and
  // no load may ever go negative.
  CounterWorkload churn({.arrival_period = 8,
                         .arrival_amount = 1,
                         .departure_period = 1,
                         .departure_amount = 100});
  churn.reset(g.num_nodes(), 0);
  Engine engine(g, EngineConfig{.self_loops = 2, .conservation_interval = 1},
                balancer, bimodal_initial(16, 4));
  engine.set_workload(&churn);
  for (Step t = 0; t < 50; ++t) engine.step();
  EXPECT_GE(engine.min_load_seen(), 0);
  // 16 nodes × 50 rounds × 100 requested ≫ what was ever available.
  EXPECT_LT(engine.consumed_total(), 16 * 50 * 100);
  EXPECT_EQ(engine.total(), engine.base_total() + engine.injected_total() -
                                engine.consumed_total());
}

TEST(DynamicEngine, WorkloadHookWorksOnTheIrregularSubstrate) {
  // An irregular graph runs padded to a regular Graph; conservation and
  // parallel determinism must hold there too, with the padding's
  // self-edge ports in every row.
  const IrregularGraph g = make_wheel(12);
  const PaddedGraph padded = pad_to_regular(g);
  CounterWorkload serial_churn({.arrival_period = 3,
                                .arrival_amount = 2,
                                .departure_period = 5,
                                .departure_amount = 1});
  serial_churn.reset(g.num_nodes(), 0);
  auto serial_b = make_balancer(Algorithm::kRotorRouter);
  Engine serial(padded.graph, EngineConfig{.self_loops = padded.self_loops},
                *serial_b,
                LoadVector(static_cast<std::size_t>(g.num_nodes()), 10));
  serial.set_workload(&serial_churn);

  ThreadPool pool(4);
  CounterWorkload par_churn = serial_churn;
  par_churn.reset(g.num_nodes(), 0);
  auto par_b = make_balancer(Algorithm::kRotorRouter);
  Engine parallel(padded.graph,
                  EngineConfig{.self_loops = padded.self_loops}, *par_b,
                  LoadVector(static_cast<std::size_t>(g.num_nodes()), 10));
  parallel.set_workload(&par_churn);
  parallel.set_thread_pool(&pool);

  for (Step t = 0; t < 120; ++t) {
    serial.step();
    parallel.step_parallel();
    ASSERT_EQ(serial.loads(), parallel.loads()) << "step " << t + 1;
  }
  EXPECT_GT(serial.injected_total(), 0);
  EXPECT_GT(serial.consumed_total(), 0);
  EXPECT_EQ(total_load(serial.loads()),
            serial.base_total() + serial.injected_total() -
                serial.consumed_total());
}

TEST(DynamicEngine, WorkloadHookWorksOnTheMatchingSubstrate) {
  // The hook lives in RoundEngineBase, so dimension exchange gets
  // dynamics for free — including the extended audit.
  const Graph g = make_hypercube(4);
  CounterWorkload churn({.arrival_period = 3,
                         .arrival_amount = 2,
                         .departure_period = 5,
                         .departure_amount = 1});
  churn.reset(g.num_nodes(), 0);
  DimensionExchange engine(g, DePolicy::kAverageDown, /*seed=*/1,
                           bimodal_initial(16, 12));
  engine.set_workload(&churn);
  for (Step t = 0; t < 100; ++t) engine.step();
  EXPECT_GT(engine.injected_total(), 0);
  EXPECT_EQ(total_load(engine.loads()),
            engine.base_total() + engine.injected_total() -
                engine.consumed_total());
}

// Workload factory per golden case, so each engine owns fresh state.
std::vector<std::pair<std::string,
                      std::function<std::unique_ptr<WorkloadProcess>()>>>
golden_workloads() {
  return {
      {"counter",
       [] {
         return std::make_unique<CounterWorkload>(CounterWorkload::Params{
             .arrival_period = 3,
             .arrival_amount = 2,
             .departure_period = 4,
             .departure_amount = 1});
       }},
      {"poisson",
       [] {
         return std::make_unique<PoissonWorkload>(
             PoissonWorkload::Params{.arrival_rate = 0.6,
                                     .departure_rate = 0.6});
       }},
      {"burst",
       [] {
         return std::make_unique<BurstWorkload>(BurstWorkload::Params{
             .period = 7, .burst = 64, .drain_period = 2,
             .drain_amount = 1});
       }},
      {"adversary",
       [] {
         return std::make_unique<AdversarialInjector>(
             AdversarialInjector::Params{.amount = 6,
                                         .period = 2,
                                         .drain_min = true});
       }},
  };
}

TEST(DynamicEngine, GoldenSerialEqualsParallelAtThreads_1_2_8) {
  // The acceptance gate: dynamic rounds (injection + decide + apply) are
  // byte-identical at thread counts {1, 2, 8}, for a parallel-decide-safe
  // balancer and for one that forces the serial decide path (RAND-EXTRA's
  // sequential RNG stream).
  const Graph g = make_torus2d(8, 6);
  for (Algorithm algo :
       {Algorithm::kSendFloor, Algorithm::kRandomizedExtra}) {
    for (const auto& [wl_name, wl_make] : golden_workloads()) {
      const std::string where =
          algorithm_name(algo) + " under " + wl_name;
      for (int threads : {1, 2, 8}) {
        ThreadPool pool(threads);
        auto par_b = make_balancer(algo, /*seed=*/7);
        auto par_w = wl_make();
        par_w->reset(g.num_nodes(), 13);
        Engine parallel(g, EngineConfig{.self_loops = 4}, *par_b,
                        bimodal_initial(48, 30));
        parallel.set_workload(par_w.get());
        parallel.set_thread_pool(&pool);

        auto serial_replay_b = make_balancer(algo, /*seed=*/7);
        auto serial_replay_w = wl_make();
        serial_replay_w->reset(g.num_nodes(), 13);
        Engine replay(g, EngineConfig{.self_loops = 4}, *serial_replay_b,
                      bimodal_initial(48, 30));
        replay.set_workload(serial_replay_w.get());

        for (Step t = 0; t < 80; ++t) {
          replay.step();
          parallel.step_parallel();
          ASSERT_EQ(replay.loads(), parallel.loads())
              << where << " diverged at step " << t + 1 << " with "
              << threads << " threads";
        }
        EXPECT_EQ(replay.injected_total(), parallel.injected_total()) << where;
        EXPECT_EQ(replay.consumed_total(), parallel.consumed_total()) << where;
      }
    }
  }
}

// -------------------------------------------------------- steady stats --

TEST(SteadyStateTracker, InactiveWhenWindowZero) {
  SteadyStateTracker tracker(SteadyOptions{});
  EXPECT_FALSE(tracker.active());
  tracker.observe(1, 100);
  const SteadySummary s = tracker.summary();
  EXPECT_FALSE(s.tracked);
  EXPECT_EQ(s.rounds, 0);
}

TEST(SteadyStateTracker, ConstantSeriesSteadiesWhenWindowFills) {
  SteadyStateTracker tracker(SteadyOptions{.window = 10, .warmup = 0});
  for (Step t = 1; t <= 20; ++t) tracker.observe(t, 7);
  const SteadySummary s = tracker.summary();
  EXPECT_TRUE(s.tracked);
  EXPECT_EQ(s.rounds, 20);
  EXPECT_EQ(s.t_steady, 10);  // first round with a full, flat window
  EXPECT_DOUBLE_EQ(s.window_mean, 7.0);
  EXPECT_EQ(s.window_max, 7);
  EXPECT_EQ(s.window_p99, 7);
}

TEST(SteadyStateTracker, WarmupDelaysDetection) {
  SteadyStateTracker tracker(SteadyOptions{.window = 5, .warmup = 12});
  for (Step t = 1; t <= 20; ++t) tracker.observe(t, 3);
  EXPECT_EQ(tracker.t_steady(), 13);  // first post-warm-up full window
}

TEST(SteadyStateTracker, DivergingSeriesNeverSteadies) {
  SteadyStateTracker tracker(
      SteadyOptions{.window = 8, .warmup = 0, .rel_band = 0.05,
                    .abs_band = 1});
  for (Step t = 1; t <= 100; ++t) {
    tracker.observe(t, 10 * t);  // window band always ≫ tolerance
  }
  EXPECT_EQ(tracker.t_steady(), -1);
  EXPECT_EQ(tracker.summary().t_steady, -1);
}

TEST(SteadyStateTracker, WindowStatsCoverTheTrailingWindowOnly) {
  SteadyStateTracker tracker(SteadyOptions{.window = 4});
  // Large early values must fall out of the window.
  for (Load v : {1000, 1000, 1000, 1000, 1, 2, 3, 4}) {
    tracker.observe(tracker.summary().rounds + 1, v);
  }
  const SteadySummary s = tracker.summary();
  EXPECT_DOUBLE_EQ(s.window_mean, 2.5);
  EXPECT_EQ(s.window_max, 4);
  EXPECT_EQ(s.window_p99, 4);
}

TEST(SteadyStateTracker, PartialWindowUsesWhatWasObserved) {
  SteadyStateTracker tracker(SteadyOptions{.window = 100});
  tracker.observe(1, 10);
  tracker.observe(2, 20);
  const SteadySummary s = tracker.summary();
  EXPECT_EQ(s.rounds, 2);
  EXPECT_DOUBLE_EQ(s.window_mean, 15.0);
  EXPECT_EQ(s.window_max, 20);
}

// --------------------------------------------------- experiment driver --

TEST(DynamicExperiment, RecordsWorkloadLedgerAndSteadySummary) {
  const Graph g = make_hypercube(5);
  auto balancer = make_balancer(Algorithm::kSendFloor);
  PoissonWorkload churn({.arrival_rate = 0.5, .departure_rate = 0.5});
  ExperimentSpec spec;
  spec.self_loops = 5;
  spec.fixed_horizon = 400;
  spec.workload = &churn;
  spec.steady = SteadyOptions{.window = 50, .warmup = 100};
  spec.audit_fairness = false;
  spec.seed = 21;
  const double mu = 1.0 - lambda2_hypercube(5, 5);
  const auto r = run_experiment(g, *balancer, bimodal_initial(32, 64), mu,
                                spec);
  EXPECT_TRUE(r.dynamic);
  EXPECT_EQ(r.workload, "poisson(in=0.5,out=0.5)");
  EXPECT_GT(r.injected_total, 0);
  EXPECT_GT(r.consumed_total, 0);
  EXPECT_TRUE(r.steady.tracked);
  EXPECT_EQ(r.steady.rounds, 400);
  EXPECT_GT(r.steady.window_mean, 0.0);
  EXPECT_GE(r.steady.window_max, r.steady.window_p99);
  // Dynamic runs skip the continuous yardstick: it has no churn model.
  EXPECT_TRUE(std::isnan(r.continuous_final_discrepancy));
}

TEST(DynamicExperiment, StaticRunsAreUntouched) {
  const Graph g = make_hypercube(4);
  SendFloor b;
  ExperimentSpec spec;
  spec.self_loops = 4;
  const double mu = 1.0 - lambda2_hypercube(4, 4);
  const auto r = run_experiment(g, b, bimodal_initial(16, 64), mu, spec);
  EXPECT_FALSE(r.dynamic);
  EXPECT_EQ(r.workload, "static");
  EXPECT_EQ(r.injected_total, 0);
  EXPECT_EQ(r.consumed_total, 0);
  EXPECT_FALSE(r.steady.tracked);
}

// --------------------------------------------------- sweep integration --

SweepMatrix dynamic_matrix() {
  SweepMatrix m;
  m.add_graph("cycle", make_cycle(24), 1.0 - lambda2_cycle(24, 2));
  m.add_graph("torus", make_torus2d(4, 4), 1.0 - lambda2_torus({4, 4}, 4));
  m.add_balancer(Algorithm::kSendFloor);
  m.add_balancer(Algorithm::kRandomizedExtra);  // serial-decide path
  m.add_shape(InitialShape::kBimodal);
  m.add_workload(static_workload());
  m.add_workload({"poisson(in=0.5,out=0.5)", [](std::uint64_t) {
                    return std::make_unique<PoissonWorkload>(
                        PoissonWorkload::Params{0.5, 0.5});
                  }});
  m.add_workload({"adversary(4/1)", [](std::uint64_t) {
                    return std::make_unique<AdversarialInjector>(
                        AdversarialInjector::Params{.amount = 4,
                                                    .period = 1});
                  }});
  m.add_load_scale(32);
  m.add_seed(1).add_seed(2);
  return m;
}

SweepOptions dynamic_options(int threads) {
  SweepOptions o;
  o.threads = threads;
  o.base.fixed_horizon = 60;
  o.base.run_continuous = false;
  o.base.audit_fairness = false;
  o.base.conservation_interval = 1;
  o.base.steady = SteadyOptions{.window = 16, .warmup = 20};
  return o;
}

TEST(DynamicSweep, WorkloadAxisMultipliesTheCrossProduct) {
  const SweepMatrix m = dynamic_matrix();
  EXPECT_EQ(m.workloads().size(), 3u);
  EXPECT_EQ(m.size(), 2u * 2u * 1u * 3u * 1u * 1u * 2u);
  // Default axis (no add_workload): exactly one static entry.
  SweepMatrix plain;
  EXPECT_EQ(plain.workloads().size(), 1u);
  EXPECT_EQ(plain.workloads()[0].name, "static");
  EXPECT_EQ(plain.workloads()[0].make, nullptr);
}

TEST(DynamicSweep, RejectsWorkloadOnTheBaseSpec) {
  // A process on the base spec would be one mutable instance shared by
  // concurrent workers; the runner must refuse instead of racing (or
  // silently replacing it with the axis entry).
  SweepMatrix m;
  m.add_graph("cycle", make_cycle(8), 1.0 - lambda2_cycle(8, 2));
  m.add_balancer(Algorithm::kSendFloor);
  m.add_shape(InitialShape::kBimodal);
  m.add_load_scale(8);
  PoissonWorkload churn({.arrival_rate = 0.1, .departure_rate = 0.1});
  SweepOptions o = dynamic_options(1);
  o.base.workload = &churn;
  EXPECT_THROW(SweepRunner(o).run(m), invariant_error);
}

TEST(DynamicSweep, EightThreadsMatchSequentialByteForByte) {
  const SweepMatrix m = dynamic_matrix();
  const auto sequential = SweepRunner(dynamic_options(1)).run(m);
  const auto parallel = SweepRunner(dynamic_options(8)).run(m);
  ASSERT_EQ(sequential.size(), parallel.size());
  EXPECT_EQ(SweepRunner::csv_string(sequential),
            SweepRunner::csv_string(parallel));
}

TEST(DynamicSweep, InnerNestingMatchesOuterByteForByte) {
  const SweepMatrix m = dynamic_matrix();
  SweepOptions outer = dynamic_options(4);
  outer.nesting = SweepNesting::kOuter;
  SweepOptions inner = dynamic_options(4);
  inner.nesting = SweepNesting::kInner;  // round-parallel dynamic engines
  EXPECT_EQ(SweepRunner::csv_string(SweepRunner(outer).run(m)),
            SweepRunner::csv_string(SweepRunner(inner).run(m)));
}

TEST(DynamicSweep, CsvCarriesWorkloadColumnsAndQuotesCommaNames) {
  const SweepMatrix m = dynamic_matrix();
  const auto rows = SweepRunner(dynamic_options(4)).run(m);
  const std::string csv = SweepRunner::csv_string(rows);
  // The workload axis label contains commas, so the CSV layer must quote
  // it (RFC 4180) — the hardened writer's end-to-end gate.
  EXPECT_NE(csv.find("\"poisson(in=0.5,out=0.5)\""), std::string::npos);
  EXPECT_NE(csv.find(",workload,"), std::string::npos);
  EXPECT_NE(csv.find(",steady_mean,"), std::string::npos);
  // Static rows keep the steady columns blank but the ledger at zero.
  bool saw_static = false;
  for (const SweepRow& row : rows) {
    if (row.workload != "static") continue;
    saw_static = true;
    EXPECT_EQ(row.result.injected_total, 0);
    EXPECT_EQ(row.result.consumed_total, 0);
  }
  EXPECT_TRUE(saw_static);
  // Dynamic rows with churn have a non-trivial ledger.
  bool saw_dynamic = false;
  for (const SweepRow& row : rows) {
    if (row.workload.rfind("poisson", 0) != 0) continue;
    saw_dynamic = true;
    EXPECT_GT(row.result.injected_total, 0);
    EXPECT_TRUE(row.result.steady.tracked);
  }
  EXPECT_TRUE(saw_dynamic);
}

}  // namespace
}  // namespace dlb
