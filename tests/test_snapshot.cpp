// Crash-recovery equivalence gate and snapshot robustness tests.
//
// The load-bearing contract (service/snapshot.hpp): for every registry
// balancer × workload × pool size,
//
//     run T  ≡  run T/2 → capture → serialize → destroy everything →
//               rebuild → deserialize → restore → run T/2
//
// with byte-identical loads, per-round discrepancy rows, conservation
// ledger, and steady-state summary. Also covered: the epoch-stamp wrap
// round under mid-run assign-first toggling (the >256-round regression),
// and the refuse-to-load paths — truncation, bit flips, version and
// topology mismatches must throw clean serial_errors without mutating
// the restore target (exercised under ASan/UBSan in CI).
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

#include "analysis/experiment.hpp"
#include "balancers/registry.hpp"
#include "balancers/send_floor.hpp"
#include "core/engine.hpp"
#include "dynamics/steady_stats.hpp"
#include "dynamics/workload.hpp"
#include "graph/generators.hpp"
#include "irregular/igraph.hpp"
#include "service/admission.hpp"
#include "service/balancer_service.hpp"
#include "service/snapshot.hpp"
#include "shard/sharded_engine.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace dlb {
namespace {

// ------------------------------------------------------------ fixtures --

enum class Churn { kStatic, kPoisson, kBurst, kAdversary, kAdmission };

const char* churn_name(Churn c) {
  switch (c) {
    case Churn::kStatic: return "static";
    case Churn::kPoisson: return "poisson";
    case Churn::kBurst: return "burst";
    case Churn::kAdversary: return "adversary";
    case Churn::kAdmission: return "admission";
  }
  return "?";
}

/// Owns a workload chain (the admission adapter wraps an inner process).
struct WorkloadBox {
  std::unique_ptr<WorkloadProcess> inner;
  std::unique_ptr<WorkloadProcess> process;  // attach this (null = static)
};

WorkloadBox make_workload(Churn c) {
  WorkloadBox box;
  switch (c) {
    case Churn::kStatic:
      break;
    case Churn::kPoisson:
      box.process = std::make_unique<PoissonWorkload>(
          PoissonWorkload::Params{.arrival_rate = 0.6, .departure_rate = 0.5});
      break;
    case Churn::kBurst:
      box.process = std::make_unique<BurstWorkload>(BurstWorkload::Params{
          .period = 8, .burst = 40, .drain_period = 4, .drain_amount = 1});
      break;
    case Churn::kAdversary:
      box.process = std::make_unique<AdversarialInjector>(
          AdversarialInjector::Params{
              .amount = 6, .period = 2, .drain_min = true});
      break;
    case Churn::kAdmission:
      // Bursts far above the per-round cap, so the FIFO backlog is
      // non-empty at the snapshot round — the queued admissions must
      // survive the restore.
      box.inner = std::make_unique<BurstWorkload>(
          BurstWorkload::Params{.period = 6, .burst = 90});
      box.process = std::make_unique<AdmissionQueue>(
          *box.inner, AdmissionQueue::Params{.round_cap = 16});
      break;
  }
  return box;
}

/// A complete, independently-destructible run: graph, balancer, workload,
/// optional pool, engine, tracker. Built identically for the full, the
/// captured, and the restored leg of the equivalence check.
struct Rig {
  Graph g;
  std::unique_ptr<Balancer> balancer;
  WorkloadBox wl;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<Engine> engine;
  SteadyStateTracker tracker;

  explicit Rig(const std::string& balancer_name, Churn churn, int threads,
               Graph graph = make_cycle(24))
      : g(std::move(graph)),
        balancer(find_balancer_factory(balancer_name)(/*seed=*/11)),
        wl(make_workload(churn)),
        tracker(SteadyOptions{.window = 12, .warmup = 4}) {
    const BalancerTraits traits = find_balancer_traits(balancer_name);
    const int d_loops = traits.exact_d_loops
                            ? g.degree()
                            : std::max(traits.min_loops(g.degree()),
                                       g.degree());
    LoadVector initial(static_cast<std::size_t>(g.num_nodes()), 0);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      initial[static_cast<std::size_t>(u)] = (u % 5 == 0) ? 20 : 1;
    }
    engine = std::make_unique<Engine>(
        g, EngineConfig{.self_loops = d_loops}, *balancer, std::move(initial));
    if (wl.process) {
      wl.process->reset(g.num_nodes(), /*seed=*/42);
      engine->set_workload(wl.process.get());
    }
    if (threads > 1) {
      pool = std::make_unique<ThreadPool>(threads);
      engine->set_thread_pool(pool.get());
    }
  }

  void step_rounds(Step k, std::vector<Load>* disc_rows = nullptr) {
    for (Step i = 0; i < k; ++i) {
      if (pool) {
        engine->step_parallel();
      } else {
        engine->step();
      }
      tracker.observe(engine->time(), engine->discrepancy());
      if (disc_rows) disc_rows->push_back(engine->discrepancy());
    }
  }
};

struct Observed {
  LoadVector loads;
  Step t = 0;
  Load total = 0, base = 0, injected = 0, consumed = 0;
  Load disc = 0, min_seen = 0;
  std::vector<Load> disc_tail;  // per-round discrepancy after the split
  SteadySummary steady;
};

Observed observe(const Rig& rig, std::vector<Load> disc_tail) {
  Observed o;
  o.loads = rig.engine->loads();
  o.t = rig.engine->time();
  o.total = rig.engine->total();
  o.base = rig.engine->base_total();
  o.injected = rig.engine->injected_total();
  o.consumed = rig.engine->consumed_total();
  o.disc = rig.engine->discrepancy();
  o.min_seen = rig.engine->min_load_seen();
  o.disc_tail = std::move(disc_tail);
  o.steady = rig.tracker.summary();
  return o;
}

void expect_identical(const Observed& a, const Observed& b) {
  EXPECT_EQ(a.loads, b.loads) << "load vectors diverged";
  EXPECT_EQ(a.t, b.t);
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.base, b.base);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.consumed, b.consumed);
  EXPECT_EQ(a.disc, b.disc);
  EXPECT_EQ(a.min_seen, b.min_seen);
  EXPECT_EQ(a.disc_tail, b.disc_tail) << "per-round discrepancy rows diverged";
  EXPECT_EQ(a.steady.rounds, b.steady.rounds);
  EXPECT_EQ(a.steady.t_steady, b.steady.t_steady);
  EXPECT_EQ(a.steady.window_mean, b.steady.window_mean);
  EXPECT_EQ(a.steady.window_max, b.steady.window_max);
  EXPECT_EQ(a.steady.window_p99, b.steady.window_p99);
}

// ----------------------------------------------------- equivalence gate --

TEST(SnapshotEquivalence, EveryBalancerEveryWorkloadAtPools1And8) {
  constexpr Step kT = 40;
  constexpr Churn kChurns[] = {Churn::kStatic, Churn::kPoisson, Churn::kBurst,
                               Churn::kAdversary, Churn::kAdmission};
  for (const std::string& name : registered_balancer_names()) {
    for (Churn churn : kChurns) {
      for (int threads : {1, 8}) {
        SCOPED_TRACE(name + " / " + churn_name(churn) + " / pool=" +
                     std::to_string(threads));

        // Reference: one uninterrupted run of T rounds.
        Rig full(name, churn, threads);
        std::vector<Load> full_tail;
        full.step_rounds(kT / 2);
        full.step_rounds(kT - kT / 2, &full_tail);
        const Observed want = observe(full, std::move(full_tail));

        // Candidate: run T/2, capture, serialize, destroy every object,
        // rebuild from scratch, deserialize, restore, run the rest.
        std::vector<std::uint8_t> bytes;
        {
          Rig half(name, churn, threads);
          half.step_rounds(kT / 2);
          bytes = EngineSnapshot::capture(*half.engine, &half.tracker)
                      .serialize();
        }
        Rig resumed(name, churn, threads);
        EngineSnapshot::deserialize(bytes).restore(*resumed.engine,
                                                   &resumed.tracker);
        ASSERT_EQ(resumed.engine->time(), kT / 2);
        std::vector<Load> resumed_tail;
        resumed.step_rounds(kT - kT / 2, &resumed_tail);
        const Observed got = observe(resumed, std::move(resumed_tail));

        expect_identical(want, got);
      }
    }
  }
}

TEST(SnapshotEquivalence, PaddedIrregularGraphRoundTripsForEveryBalancer) {
  // An irregular wheel padded to degree 8 (5 self-edge ports per rim
  // node, the last self-paired) captures and restores like any regular
  // graph.
  constexpr Step kT = 40;
  const Graph padded = pad_to_regular(make_wheel(9)).graph;
  for (const std::string& name : registered_balancer_names()) {
    for (Churn churn : {Churn::kStatic, Churn::kPoisson}) {
      for (int threads : {1, 8}) {
        SCOPED_TRACE(name + " / " + churn_name(churn) + " / pool=" +
                     std::to_string(threads));
        Rig full(name, churn, threads, padded);
        std::vector<Load> full_tail;
        full.step_rounds(kT / 2);
        full.step_rounds(kT - kT / 2, &full_tail);
        const Observed want = observe(full, std::move(full_tail));

        std::vector<std::uint8_t> bytes;
        {
          Rig half(name, churn, threads, padded);
          half.step_rounds(kT / 2);
          bytes = EngineSnapshot::capture(*half.engine, &half.tracker)
                      .serialize();
        }
        Rig resumed(name, churn, threads, padded);
        EngineSnapshot::deserialize(bytes).restore(*resumed.engine,
                                                   &resumed.tracker);
        std::vector<Load> resumed_tail;
        resumed.step_rounds(kT - kT / 2, &resumed_tail);
        expect_identical(want, observe(resumed, std::move(resumed_tail)));
      }
    }
  }
}

TEST(SnapshotEquivalence, CrossPoolRestoreIsAlsoIdentical) {
  // A snapshot taken by a serial service restores into a parallel one
  // (and vice versa): pool attachment is configuration, not state.
  constexpr Step kT = 30;
  const std::string name = "ROTOR-ROUTER";
  Rig full(name, Churn::kPoisson, 1);
  std::vector<Load> full_tail;
  full.step_rounds(kT, &full_tail);
  const Observed want = observe(full, std::move(full_tail));

  std::vector<std::uint8_t> bytes;
  {
    Rig half(name, Churn::kPoisson, 1);
    half.step_rounds(kT / 2);
    bytes =
        EngineSnapshot::capture(*half.engine, &half.tracker).serialize();
  }
  Rig resumed(name, Churn::kPoisson, 8);  // different pool size
  EngineSnapshot::deserialize(bytes).restore(*resumed.engine,
                                             &resumed.tracker);
  resumed.step_rounds(kT - kT / 2);
  EXPECT_EQ(want.loads, resumed.engine->loads());
  EXPECT_EQ(want.injected, resumed.engine->injected_total());
  EXPECT_EQ(want.consumed, resumed.engine->consumed_total());
}

TEST(SnapshotEquivalence, StructuredSimdRunRestoresIntoScalarRun) {
  // A snapshot captured mid-run under the AVX2 kernels restores into an
  // engine forced onto the scalar fallback (and vice versa) with the
  // identical trajectory: SIMD is a kernel implementation detail, never
  // state. Uses a size with a vector tail (65 = 16 blocks + 1) so both
  // halves of the dispatch are live in the captured run. Vacuous (both
  // runs scalar) when AVX2 is not compiled in or the CPU lacks it.
  constexpr Step kT = 40;
  const bool simd_was = simd::enabled();
  const Graph g = make_cycle(65);
  const LoadVector initial = random_initial(g.num_nodes(), 700, /*seed=*/21);
  const EngineConfig config{.self_loops = g.degree()};

  const auto run = [&](bool simd_first, bool simd_second) {
    auto half_b = make_balancer(Algorithm::kBoundedError, 11);
    std::vector<std::uint8_t> bytes;
    {
      Engine half(g, config, *half_b, initial);
      simd::set_enabled(simd_first);
      for (Step t = 0; t < kT / 2; ++t) half.step();
      bytes = EngineSnapshot::capture(half).serialize();
    }
    auto resumed_b = make_balancer(Algorithm::kBoundedError, 11);
    Engine resumed(g, config, *resumed_b, initial);
    EngineSnapshot::deserialize(bytes).restore(resumed);
    simd::set_enabled(simd_second);
    for (Step t = kT / 2; t < kT; ++t) resumed.step();
    return resumed.loads();
  };

  const LoadVector simd_then_scalar = run(true, false);
  const LoadVector scalar_then_simd = run(false, true);
  const LoadVector scalar_only = run(false, false);
  EXPECT_EQ(simd_then_scalar, scalar_only);
  EXPECT_EQ(scalar_then_simd, scalar_only);
  simd::set_enabled(simd_was);
}

// -------------------------------------------- epoch wrap × assign-first --

// The scatter accumulator's epoch stamps live in one byte and wrap every
// 255 scatter rounds; assign-first rounds bypass the stamping protocol
// entirely. This run crosses the wrap with the two variants interleaved
// mid-run AND a snapshot/restore near the wrap round — any stale-stamp
// value leaking across a toggle, a wrap, or a restore (the restored
// engine starts with a *fresh* accumulator) shows up as a diverged load.
TEST(SnapshotEpochWrap, ToggleAssignFirstAcrossWrapWithMidWrapSnapshot) {
  constexpr Step kT = 300;        // > 256: crosses the stamp wrap
  constexpr Step kSnapAt = 255;   // capture on the wrap round itself
  const Graph g = make_cycle(24);
  CounterWorkload churn({.arrival_period = 3,
                         .arrival_amount = 2,
                         .departure_period = 5,
                         .departure_amount = 1});
  LoadVector initial(static_cast<std::size_t>(g.num_nodes()), 0);
  initial[0] = 240;

  auto fresh_engine = [&](Balancer& b, WorkloadProcess& w) {
    auto e = std::make_unique<Engine>(
        g, EngineConfig{.self_loops = g.degree()}, b, initial);
    w.reset(g.num_nodes(), 9);
    e->set_workload(&w);
    return e;
  };

  // Reference: plain epoch-stamped scatter, never toggled, uninterrupted.
  SendFloor ref_bal;
  CounterWorkload ref_churn = churn;
  auto ref = fresh_engine(ref_bal, ref_churn);
  std::vector<Load> ref_rows;
  for (Step t = 0; t < kT; ++t) {
    ref->step();
    ref_rows.push_back(ref->discrepancy());
  }

  // Candidate: assign-first toggled every 64 rounds, snapshot taken on
  // the wrap round, everything destroyed and restored.
  auto toggled_step = [](Engine& e) {
    e.set_assign_first_scatter((e.time() / 64) % 2 == 1);
    e.step();
  };
  std::vector<std::uint8_t> bytes;
  {
    SendFloor bal;
    CounterWorkload w = churn;
    auto e = fresh_engine(bal, w);
    for (Step t = 0; t < kSnapAt; ++t) toggled_step(*e);
    bytes = EngineSnapshot::capture(*e).serialize();
  }
  SendFloor bal2;
  CounterWorkload w2 = churn;
  auto e2 = fresh_engine(bal2, w2);
  EngineSnapshot::deserialize(bytes).restore(*e2);
  ASSERT_EQ(e2->time(), kSnapAt);
  std::vector<Load> got_rows;
  {
    // Recompute the first half's rows from the reference (they were not
    // recorded in the candidate's first leg on purpose: the restored
    // engine must reproduce the *remaining* rows from state alone).
    got_rows.assign(ref_rows.begin(), ref_rows.begin() + kSnapAt);
  }
  for (Step t = kSnapAt; t < kT; ++t) {
    toggled_step(*e2);
    got_rows.push_back(e2->discrepancy());
  }

  EXPECT_EQ(ref->loads(), e2->loads())
      << "assign-first/epoch-wrap/restore interleaving changed the "
         "trajectory";
  EXPECT_EQ(ref_rows, got_rows);
  EXPECT_EQ(ref->total(), e2->total());
  EXPECT_EQ(ref->injected_total(), e2->injected_total());
  EXPECT_EQ(ref->consumed_total(), e2->consumed_total());
}

// ------------------------------------------------------ refuse-to-load --

class SnapshotCorruption : public ::testing::Test {
 protected:
  std::vector<std::uint8_t> valid_bytes() {
    Rig rig("SEND(floor)", Churn::kPoisson, 1);
    rig.step_rounds(10);
    return EngineSnapshot::capture(*rig.engine, &rig.tracker).serialize();
  }
};

TEST_F(SnapshotCorruption, TruncationAtEveryLayerThrowsCleanly) {
  const std::vector<std::uint8_t> bytes = valid_bytes();
  // Sweep truncation points: empty, mid-magic, header-only, mid-payload,
  // one-byte-short. Every prefix must throw serial_error — never crash,
  // never return a half-parsed snapshot (ASan/UBSan-clean in CI).
  for (std::size_t len :
       {std::size_t{0}, std::size_t{5}, std::size_t{8}, std::size_t{20},
        std::size_t{28}, bytes.size() / 2, bytes.size() - 1}) {
    SCOPED_TRACE("truncated to " + std::to_string(len));
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() +
                                            static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(EngineSnapshot::deserialize(cut), serial_error);
  }
}

TEST_F(SnapshotCorruption, BitFlipAnywhereInPayloadFailsTheChecksum) {
  const std::vector<std::uint8_t> bytes = valid_bytes();
  const std::size_t header = 8 + 4 + 8 + 8;  // magic+version+len+checksum
  // Flip one bit in a spread of payload positions.
  for (std::size_t pos = header; pos < bytes.size(); pos += 97) {
    SCOPED_TRACE("bit flip at byte " + std::to_string(pos));
    std::vector<std::uint8_t> bad = bytes;
    bad[pos] ^= 0x10;
    EXPECT_THROW(EngineSnapshot::deserialize(bad), serial_error);
  }
}

TEST_F(SnapshotCorruption, BadMagicAndUnsupportedVersionAreRejected) {
  std::vector<std::uint8_t> bad_magic = valid_bytes();
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW(EngineSnapshot::deserialize(bad_magic), serial_error);

  std::vector<std::uint8_t> bad_version = valid_bytes();
  bad_version[8] = 0xEE;  // version field follows the 8-byte magic
  try {
    EngineSnapshot::deserialize(bad_version);
    FAIL() << "unsupported version was accepted";
  } catch (const serial_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST_F(SnapshotCorruption, TopologyAndConfigMismatchesRefuseBeforeMutating) {
  Rig src("SEND(floor)", Churn::kPoisson, 1);
  src.step_rounds(10);
  const EngineSnapshot snap =
      EngineSnapshot::capture(*src.engine, &src.tracker);

  struct Target {
    const char* what;
    Graph g;
    const char* balancer;
    int d_loops;
  };
  // Same n and d but different adjacency (circulant with offset 2): only
  // the adjacency hash can tell them apart.
  const Target targets[] = {
      {"node count", make_cycle(32), "SEND(floor)", 2},
      {"structure tag + adjacency", make_circulant(24, {2}), "SEND(floor)", 2},
      {"degree", make_torus2d(4, 6), "SEND(floor)", 4},
      {"balancer", make_cycle(24), "ROTOR-ROUTER", 2},
      {"self-loops", make_cycle(24), "SEND(floor)", 4},
  };
  for (const Target& target : targets) {
    SCOPED_TRACE(target.what);
    std::unique_ptr<Balancer> b =
        find_balancer_factory(target.balancer)(/*seed=*/11);
    Engine engine(target.g, EngineConfig{.self_loops = target.d_loops}, *b,
                  LoadVector(static_cast<std::size_t>(target.g.num_nodes()),
                             3));
    PoissonWorkload w(
        PoissonWorkload::Params{.arrival_rate = 0.6, .departure_rate = 0.5});
    w.reset(target.g.num_nodes(), 42);
    engine.set_workload(&w);
    SteadyStateTracker tracker(SteadyOptions{.window = 12, .warmup = 4});

    const LoadVector before = engine.loads();
    EXPECT_THROW(snap.restore(engine, &tracker), serial_error);
    EXPECT_EQ(engine.loads(), before) << "failed restore mutated the engine";
    EXPECT_EQ(engine.time(), 0);
  }
}

TEST_F(SnapshotCorruption, WorkloadAndTrackerPresenceMustMatch) {
  Rig src("SEND(floor)", Churn::kPoisson, 1);
  src.step_rounds(6);
  const EngineSnapshot with_wl =
      EngineSnapshot::capture(*src.engine, &src.tracker);

  // Target without a workload.
  Rig bare("SEND(floor)", Churn::kStatic, 1);
  EXPECT_THROW(with_wl.restore(*bare.engine, &bare.tracker), serial_error);

  // Target with a *different* workload configuration.
  Rig other("SEND(floor)", Churn::kBurst, 1);
  EXPECT_THROW(with_wl.restore(*other.engine, &other.tracker), serial_error);

  // Tracker presence must match in both directions.
  Rig no_tracker("SEND(floor)", Churn::kPoisson, 1);
  EXPECT_THROW(with_wl.restore(*no_tracker.engine, nullptr), serial_error);
  const EngineSnapshot sans_tracker = EngineSnapshot::capture(*src.engine);
  Rig with_tracker("SEND(floor)", Churn::kPoisson, 1);
  EXPECT_THROW(
      sans_tracker.restore(*with_tracker.engine, &with_tracker.tracker),
      serial_error);

  // Mismatched tracker window: state must not be loadable into a
  // differently-sized ring.
  SteadyStateTracker wide(SteadyOptions{.window = 40, .warmup = 4});
  Rig sized("SEND(floor)", Churn::kPoisson, 1);
  EXPECT_THROW(with_wl.restore(*sized.engine, &wide), serial_error);
}

TEST_F(SnapshotCorruption, FileRoundtripAndAtomicReplace) {
  const std::string path = ::testing::TempDir() + "dlb_snapshot_test.bin";
  Rig src("ROTOR-ROUTER", Churn::kBurst, 1);
  src.step_rounds(12);
  const EngineSnapshot snap =
      EngineSnapshot::capture(*src.engine, &src.tracker);
  snap.write_file(path);

  const EngineSnapshot back = EngineSnapshot::read_file(path);
  EXPECT_EQ(back.time(), 12);
  EXPECT_EQ(back.balancer_name(), "ROTOR-ROUTER");
  EXPECT_EQ(back.num_nodes(), 24);
  EXPECT_TRUE(back.has_tracker());
  EXPECT_EQ(back.adjacency_hash(), snap.adjacency_hash());

  Rig resumed("ROTOR-ROUTER", Churn::kBurst, 1);
  back.restore(*resumed.engine, &resumed.tracker);
  EXPECT_EQ(resumed.engine->loads(), src.engine->loads());

  // A second write over the same path goes through the temp-file +
  // rename path (atomic replace of an existing checkpoint).
  src.step_rounds(1);
  EngineSnapshot::capture(*src.engine, &src.tracker).write_file(path);
  EXPECT_EQ(EngineSnapshot::read_file(path).time(), 13);
  EXPECT_THROW(EngineSnapshot::read_file(path + ".does-not-exist"),
               serial_error);
  std::remove(path.c_str());
}

TEST_F(SnapshotCorruption, WriteFileFailuresSurfaceDistinctErrors) {
  Rig src("SEND(floor)", Churn::kStatic, 1);
  src.step_rounds(4);
  const EngineSnapshot snap = EngineSnapshot::capture(*src.engine);

  // Unwritable location: the temp file cannot even be created.
  try {
    snap.write_file(::testing::TempDir() +
                    "dlb_no_such_dir/nested/snapshot.bin");
    FAIL() << "write into a missing directory must throw";
  } catch (const serial_error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open temporary file"),
              std::string::npos)
        << e.what();
  }

  // Rename-into-place failure: the destination is a directory, so the
  // durable temp file cannot take its name. The temp must be cleaned up.
  const std::string dir_path = ::testing::TempDir() + "dlb_write_target_dir";
  ::mkdir(dir_path.c_str(), 0755);
  try {
    snap.write_file(dir_path);
    FAIL() << "rename onto a directory must throw";
  } catch (const serial_error& e) {
    EXPECT_NE(std::string(e.what()).find("rename"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(std::ifstream(dir_path + ".tmp").good())
      << "failed write left its temp file behind";
  ::rmdir(dir_path.c_str());
}

// -------------------------------------------------- service + admission --

TEST(AdmissionQueue, CapsPerRoundInjectionAndDrainsFifo) {
  BurstWorkload inner(BurstWorkload::Params{.period = 100, .burst = 50});
  AdmissionQueue q(inner, AdmissionQueue::Params{.round_cap = 8});
  q.reset(16, 7);
  LoadVector loads(16, 0);

  // Round 0 bursts 50 tokens onto one node; only 8 are admitted.
  q.prepare(0, loads);
  Load admitted = 0;
  for (NodeId u = 0; u < 16; ++u) admitted += std::max<Load>(q.delta(u, 0), 0);
  EXPECT_EQ(admitted, 8);
  EXPECT_EQ(q.backlog_total(), 42);

  // Subsequent quiet rounds drain the backlog 8 tokens at a time.
  for (Step t = 1; t <= 5; ++t) {
    q.prepare(t, loads);
    admitted = 0;
    for (NodeId u = 0; u < 16; ++u) {
      admitted += std::max<Load>(q.delta(u, t), 0);
    }
    EXPECT_EQ(admitted, 8) << "t=" << t;
  }
  EXPECT_EQ(q.backlog_total(), 2);
  q.prepare(6, loads);
  EXPECT_EQ(q.backlog_total(), 0);
}

TEST(BalancerService, SigtermStopsCheckpointsAndResumes) {
  const std::string ck = ::testing::TempDir() + "dlb_service_test.ck";
  std::remove(ck.c_str());
  BalancerService::clear_signal_requests();

  auto build = [&] {
    return std::make_unique<Rig>("SEND(floor)", Churn::kPoisson, 1);
  };

  // Uninterrupted reference.
  auto ref = build();
  ref->step_rounds(60);

  // Service leg 1: SIGTERM raised (through the real handler) after 25
  // rounds; the loop finishes the round, checkpoints, and returns.
  {
    auto rig = build();
    BalancerService::install_signal_handlers();
    BalancerService service(*rig->engine,
                            BalancerService::Options{.checkpoint_path = ck,
                                                     .stop_after = 25},
                            &rig->tracker);
    EXPECT_FALSE(service.restored());
    const Step ran = service.run(60);
    EXPECT_EQ(ran, 25);
    EXPECT_TRUE(BalancerService::stop_requested());
    EXPECT_GE(service.checkpoints_written(), 1);
  }
  BalancerService::clear_signal_requests();

  // Service leg 2: restore-on-start, run the remaining rounds.
  {
    auto rig = build();
    BalancerService service(*rig->engine,
                            BalancerService::Options{.checkpoint_path = ck},
                            &rig->tracker);
    EXPECT_TRUE(service.restored());
    EXPECT_EQ(rig->engine->time(), 25);
    service.run(60 - rig->engine->time());
    EXPECT_EQ(rig->engine->time(), 60);
    EXPECT_EQ(rig->engine->loads(), ref->engine->loads());
    EXPECT_EQ(rig->engine->injected_total(), ref->engine->injected_total());
    EXPECT_EQ(rig->engine->consumed_total(), ref->engine->consumed_total());
  }
  std::remove(ck.c_str());
}

TEST(BalancerService, CheckpointWriteFailuresAreRetriedAndCounted) {
  // Point the checkpoint at a directory that does not exist: every write
  // attempt fails, the failure counter advances once per attempt, and the
  // service keeps serving rounds on the (nonexistent) previous checkpoint.
  auto& reg = obs::MetricsRegistry::instance();
  const bool was_armed = reg.armed();
  reg.arm(true);
  const double failures_before =
      reg.sample("dlb_service_checkpoint_write_failures_total");

  Rig rig("SEND(floor)", Churn::kPoisson, 1);
  std::ostringstream log;
  BalancerService service(
      *rig.engine,
      BalancerService::Options{
          .checkpoint_path = ::testing::TempDir() +
                             "dlb_no_such_dir/nested/service.ck",
          .checkpoint_interval = 5,
          .checkpoint_write_retries = 2,
          .checkpoint_retry_backoff_ms = 0,
          .log = &log},
      &rig.tracker);

  EXPECT_EQ(service.run(10), 10);
  EXPECT_EQ(service.checkpoints_written(), 0);
  // Two periodic checkpoints (t=5, t=10) plus the shutdown checkpoint,
  // each retried twice: six failed attempts on the counter.
  const double failures_after =
      reg.sample("dlb_service_checkpoint_write_failures_total");
  EXPECT_EQ(failures_after - failures_before, 6.0);
  EXPECT_NE(log.str().find("failed"), std::string::npos) << log.str();
  EXPECT_NE(log.str().find("continuing on the previous checkpoint"),
            std::string::npos)
      << log.str();
  reg.arm(was_armed);
}

// ------------------------------------------------- sharded-engine interop --

TEST(SnapshotShardInterop, KShardImageRestoresIntoOneShardAndFlat) {
  // The shard count is an execution choice, not persisted state: an image
  // captured from a 3-shard run must restore into a 1-shard engine AND
  // into the flat Engine, both continuing byte-identically to an
  // uninterrupted flat reference — workload ledger included.
  const Graph g = make_torus2d(8, 6);
  const LoadVector initial = random_initial(g.num_nodes(), 300, 17);
  constexpr Step kHalf = 24;
  const auto fresh_workload = [] {
    auto w = std::make_unique<PoissonWorkload>(
        PoissonWorkload::Params{.arrival_rate = 0.6, .departure_rate = 0.5});
    return w;
  };

  // Uninterrupted flat reference over 2×kHalf rounds.
  auto ref_b = make_balancer(Algorithm::kSendFloor, 11);
  auto ref_w = fresh_workload();
  ref_w->reset(g.num_nodes(), /*seed=*/42);
  Engine ref(g, EngineConfig{.self_loops = 1}, *ref_b, initial);
  ref.set_workload(ref_w.get());
  for (Step t = 0; t < 2 * kHalf; ++t) ref.step();

  // Captured leg: 3 shards (tier-1 windowed path on the torus).
  std::vector<std::uint8_t> bytes;
  {
    auto b = make_balancer(Algorithm::kSendFloor, 11);
    auto w = fresh_workload();
    w->reset(g.num_nodes(), /*seed=*/42);
    ShardedEngine sharded(g, ShardedEngineConfig{.self_loops = 1}, *b,
                          initial, 3);
    sharded.set_workload(w.get());
    sharded.run(kHalf);
    bytes = EngineSnapshot::capture(sharded).serialize();
  }

  // Restore at shard count 1 and continue.
  {
    auto b = make_balancer(Algorithm::kSendFloor, 11);
    auto w = fresh_workload();
    w->reset(g.num_nodes(), /*seed=*/42);
    ShardedEngine one(g, ShardedEngineConfig{.self_loops = 1}, *b, initial,
                      1);
    one.set_workload(w.get());
    EngineSnapshot::deserialize(bytes).restore(one);
    ASSERT_EQ(one.time(), kHalf);
    one.run(kHalf);
    EXPECT_EQ(one.gather_loads(), ref.loads());
    EXPECT_EQ(one.injected_total(), ref.injected_total());
    EXPECT_EQ(one.consumed_total(), ref.consumed_total());
    EXPECT_EQ(one.min_load_seen(), ref.min_load_seen());
  }

  // The same k-shard image restores into the FLAT engine.
  {
    auto b = make_balancer(Algorithm::kSendFloor, 11);
    auto w = fresh_workload();
    w->reset(g.num_nodes(), /*seed=*/42);
    Engine flat(g, EngineConfig{.self_loops = 1}, *b, initial);
    flat.set_workload(w.get());
    EngineSnapshot::deserialize(bytes).restore(flat);
    ASSERT_EQ(flat.time(), kHalf);
    for (Step t = 0; t < kHalf; ++t) flat.step();
    EXPECT_EQ(flat.loads(), ref.loads());
    EXPECT_EQ(flat.min_load_seen(), ref.min_load_seen());
  }

  // And a FLAT image restores into 8 shards — the tier-2 routed path too
  // (ROTOR-ROUTER has no windowed kernel).
  {
    auto half_b = make_balancer(Algorithm::kRotorRouter, 11);
    Engine half(g, EngineConfig{.self_loops = 1}, *half_b, initial);
    for (Step t = 0; t < kHalf; ++t) half.step();
    const auto flat_bytes = EngineSnapshot::capture(half).serialize();

    auto full_b = make_balancer(Algorithm::kRotorRouter, 11);
    Engine full(g, EngineConfig{.self_loops = 1}, *full_b, initial);
    for (Step t = 0; t < 2 * kHalf; ++t) full.step();

    auto b = make_balancer(Algorithm::kRotorRouter, 11);
    ShardedEngine eight(g, ShardedEngineConfig{.self_loops = 1}, *b, initial,
                        8);
    EngineSnapshot::deserialize(flat_bytes).restore(eight);
    ASSERT_EQ(eight.time(), kHalf);
    eight.run(kHalf);
    EXPECT_EQ(eight.gather_loads(), full.loads());
    EXPECT_EQ(eight.min_load_seen(), full.min_load_seen());
  }
}

// ------------------------------------------------------ pinned image bytes --

/// Serialized image after 13 admission-queue rounds of `name` on `g` with
/// a steady-state tracker attached: on the flat engine when `shards` is 0,
/// else on a `shards`-way ShardedEngine. At round 13 the FIFO backlog is
/// non-empty, so every component blob carries state.
std::vector<std::uint8_t> admission_image(const std::string& name,
                                          const Graph& g, int shards) {
  constexpr Step kRounds = 13;
  const BalancerTraits traits = find_balancer_traits(name);
  const int d_loops = traits.exact_d_loops
                          ? g.degree()
                          : std::max(traits.min_loops(g.degree()), g.degree());
  std::unique_ptr<Balancer> b = find_balancer_factory(name)(/*seed=*/11);
  WorkloadBox wl = make_workload(Churn::kAdmission);
  wl.process->reset(g.num_nodes(), /*seed=*/42);
  SteadyStateTracker tracker(SteadyOptions{.window = 12, .warmup = 4});
  const LoadVector initial = random_initial(g.num_nodes(), 300, /*seed=*/17);
  const auto run = [&](auto& engine) {
    engine.set_workload(wl.process.get());
    for (Step t = 0; t < kRounds; ++t) {
      engine.step();
      tracker.observe(engine.time(), engine.discrepancy());
    }
    return EngineSnapshot::capture(engine, &tracker).serialize();
  };
  if (shards == 0) {
    Engine flat(g, EngineConfig{.self_loops = d_loops}, *b, initial);
    return run(flat);
  }
  ShardedEngine sharded(g, ShardedEngineConfig{.self_loops = d_loops}, *b,
                        initial, shards);
  return run(sharded);
}

TEST(SnapshotBytes, ImagesArePinnedPerBalancerGraphAndEngine) {
  // The v1 image is a persisted format: a checkpoint written by one build
  // must restore under the next. These digests (FNV-1a over the whole
  // serialized image) pin its bytes for every registry balancer on an
  // implicit torus and a table-backed random-regular graph, with the
  // admission queue and the tracker in the image. A flat and a 3-shard
  // capture of the same run must be the same bytes. A change that moves
  // a digest changes the format and needs a new kFormatVersion.
  struct Pinned {
    const char* balancer;
    std::uint64_t torus;
    std::uint64_t random_regular;
  };
  const Pinned pinned[] = {
      {"FIXED-PRIORITY", 16783722087466275897ULL, 13871208264233647097ULL},
      {"RAND-EXTRA", 11434813390178084985ULL, 2989647190076982937ULL},
      {"RAND-ROUND", 12401177741536089083ULL, 7122016834069095596ULL},
      {"CONT-MIMIC", 479850397054126508ULL, 17716676336065971371ULL},
      {"BOUNDED-ERROR", 6848884555883182912ULL, 14342490687104231651ULL},
      {"SEND(floor)", 15194975886669161574ULL, 3966833308925266170ULL},
      {"SEND(nearest)", 10967714902571040922ULL, 12225457583457497238ULL},
      {"ROTOR-ROUTER", 12812437372340911526ULL, 11390229991045206594ULL},
      {"ROTOR-ROUTER*", 14301414417721860716ULL, 5921182046269026409ULL},
  };
  const Graph torus = Graph::implicit(48, 4, "torus 8x6",
                                      StructureInfo{GraphStructure::kTorus,
                                                    {8, 6}});
  const Graph random_regular = make_random_regular(48, 4, /*seed=*/5);
  const std::vector<std::string> names = registered_balancer_names();
  ASSERT_EQ(names.size(), std::size(pinned));
  for (const std::string& name : names) {
    const auto it =
        std::find_if(std::begin(pinned), std::end(pinned),
                     [&](const Pinned& p) { return name == p.balancer; });
    ASSERT_NE(it, std::end(pinned)) << name << " has no pinned digest";
    for (const bool is_torus : {true, false}) {
      const Graph& g = is_torus ? torus : random_regular;
      SCOPED_TRACE(name + " on " + g.name());
      const std::vector<std::uint8_t> flat = admission_image(name, g, 0);
      EXPECT_EQ(admission_image(name, g, 3), flat)
          << "3-shard image differs from the flat one";
      EXPECT_EQ(fnv1a64(flat), is_torus ? it->torus : it->random_regular);
    }
  }
}

// ------------------------------------------------------- atomic restore --

using Blobs = std::vector<std::vector<std::uint8_t>>;

/// Re-encodes a snapshot image with `edit` applied to its component blobs
/// (core, balancer, workload, tracker) and a recomputed checksum: a
/// forged image that deserialize() accepts and only restore() can catch.
std::vector<std::uint8_t> forge(const std::vector<std::uint8_t>& image,
                                const std::function<void(Blobs&)>& edit) {
  StateReader header(image);
  const std::uint64_t magic = header.u64();
  const std::uint32_t version = header.u32();
  const std::uint64_t payload_len = header.u64();
  header.u64();  // checksum, recomputed below
  StateReader r(header.bytes(static_cast<std::size_t>(payload_len)));
  StateWriter payload;
  payload.i32(r.i32());  // node count
  payload.i32(r.i32());  // degree
  payload.i32(r.i32());  // self-loops
  payload.u8(r.u8());    // structure tag
  payload.vec_i32(r.vec_i32());
  payload.u64(r.u64());  // adjacency hash
  payload.str(r.str());  // graph, balancer, workload names
  payload.str(r.str());
  payload.str(r.str());
  payload.i64(r.i64());  // time
  payload.b(r.b());      // has tracker
  Blobs blobs(4);
  for (auto& blob : blobs) {
    const auto bytes = r.bytes(static_cast<std::size_t>(r.u64()));
    blob.assign(bytes.begin(), bytes.end());
  }
  EXPECT_TRUE(r.done());
  edit(blobs);
  for (const auto& blob : blobs) {
    payload.u64(blob.size());
    payload.bytes(blob);
  }
  StateWriter out;
  out.u64(magic);
  out.u32(version);
  out.u64(payload.size());
  out.u64(fnv1a64(payload.data()));
  out.bytes(payload.data());
  return out.take();
}

/// A ROTOR-ROUTER run with Poisson churn and a steady-state tracker, on
/// the flat engine (shards == 0) or a `shards`-way ShardedEngine.
struct AtomicRig {
  Graph g = make_cycle(24);
  std::unique_ptr<Balancer> balancer =
      make_balancer(Algorithm::kRotorRouter, 11);
  PoissonWorkload workload{
      PoissonWorkload::Params{.arrival_rate = 0.6, .departure_rate = 0.5}};
  SteadyStateTracker tracker{SteadyOptions{.window = 12, .warmup = 4}};
  std::unique_ptr<Engine> flat;
  std::unique_ptr<ShardedEngine> sharded;

  explicit AtomicRig(int shards) {
    LoadVector initial(static_cast<std::size_t>(g.num_nodes()), 1);
    for (std::size_t u = 0; u < initial.size(); u += 5) initial[u] = 20;
    workload.reset(g.num_nodes(), /*seed=*/42);
    if (shards == 0) {
      flat = std::make_unique<Engine>(g, EngineConfig{.self_loops = 2},
                                      *balancer, initial);
      flat->set_workload(&workload);
    } else {
      ShardedEngineConfig config;
      config.self_loops = 2;
      sharded = std::make_unique<ShardedEngine>(g, config, *balancer,
                                                initial, shards);
      sharded->set_workload(&workload);
    }
  }

  /// Calls f on whichever engine this rig drives.
  template <class F>
  auto visit(F&& f) const {
    return flat ? f(*flat) : f(*sharded);
  }
  Step time() const { return visit([](auto& e) { return e.time(); }); }
  /// (total, injected, consumed, min_load_seen)
  std::vector<Load> ledger() const {
    return visit([](auto& e) {
      return std::vector<Load>{e.total(), e.injected_total(),
                               e.consumed_total(), e.min_load_seen()};
    });
  }
  void step_rounds(Step k) {
    visit([&](auto& e) {
      for (Step i = 0; i < k; ++i) {
        e.step();
        tracker.observe(e.time(), e.discrepancy());
      }
    });
  }
  LoadVector loads() const {
    return flat ? flat->loads() : sharded->gather_loads();
  }
  /// Every piece of stepping state, byte for byte.
  std::vector<std::uint8_t> image() const {
    return (flat ? EngineSnapshot::capture(*flat, &tracker)
                 : EngineSnapshot::capture(*sharded, &tracker))
        .serialize();
  }
  void restore(const EngineSnapshot& snap) {
    if (flat) {
      snap.restore(*flat, &tracker);
    } else {
      snap.restore(*sharded, &tracker);
    }
  }
};

TEST(SnapshotAtomicity, ForgedComponentBlobLeavesTheTargetUntouched) {
  AtomicRig src(0);
  src.step_rounds(9);
  const std::vector<std::uint8_t> image = src.image();

  struct Forgery {
    const char* what;
    std::function<void(Blobs&)> edit;
  };
  const Forgery forgeries[] = {
      // Fails the core blob's expect_done, after load_core_state ran.
      {"trailing core byte", [](Blobs& b) { b[0].push_back(0); }},
      // Fails RotorRouter::load_state, after the whole core blob applied.
      {"rotor position out of range",
       [](Blobs& b) {
         StateReader r(b[1]);
         std::vector<int> rotor = r.vec_int();
         rotor.at(5) = 999;
         StateWriter w;
         w.vec_int(rotor);
         b[1] = w.take();
       }},
  };
  for (const int shards : {0, 3}) {
    for (const Forgery& forgery : forgeries) {
      SCOPED_TRACE(std::string(forgery.what) + ", shards=" +
                   std::to_string(shards));
      AtomicRig target(shards);
      AtomicRig twin(shards);  // never restored
      target.step_rounds(4);
      twin.step_rounds(4);
      const std::vector<std::uint8_t> before = target.image();

      const EngineSnapshot forged =
          EngineSnapshot::deserialize(forge(image, forgery.edit));
      EXPECT_THROW(target.restore(forged), serial_error);

      EXPECT_EQ(target.time(), 4);
      EXPECT_EQ(target.loads(), twin.loads());
      EXPECT_EQ(target.ledger(), twin.ledger());
      // Loads, clock, ledger, cached stats, rotors, workload stream and
      // tracker window, byte for byte.
      EXPECT_EQ(target.image(), before);

      target.step_rounds(12);
      twin.step_rounds(12);
      EXPECT_EQ(target.loads(), twin.loads());
      EXPECT_EQ(target.ledger(), twin.ledger());
      EXPECT_EQ(target.image(), twin.image());
    }
  }
}

TEST(SnapshotAtomicity, FailedShardedRestoreKeepsKilledShardsDead) {
  AtomicRig src(3);
  src.step_rounds(9);
  const EngineSnapshot forged = EngineSnapshot::deserialize(
      forge(src.image(), [](Blobs& b) { b[0].push_back(0); }));
  AtomicRig target(3);
  target.step_rounds(4);
  target.sharded->kill_shard(1);
  EXPECT_THROW(target.restore(forged), serial_error);
  EXPECT_TRUE(target.sharded->shard_dead(1));
  EXPECT_EQ(target.sharded->dead_shards(), 1);
  // The intact image still recovers it.
  target.restore(EngineSnapshot::deserialize(src.image()));
  EXPECT_EQ(target.sharded->dead_shards(), 0);
  EXPECT_EQ(target.loads(), src.loads());
}

}  // namespace
}  // namespace dlb
