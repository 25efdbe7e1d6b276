#!/usr/bin/env python3
"""End-to-end benchmark for dlb.

Builds the library and the perfbench binary from this checkout's sources
(perfbench/CMakeLists.txt), runs one workload and prints a readable
report followed, as the last line of standard output, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (perfbench/README.md defines both and maps each layer to
the end-to-end metric it should move).

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --record      # rewrite perfbench/expected.json

The build goes to $CARGO_TARGET_DIR when set, else .bench_build, relative
to the checkout root; checkpoints and span files go to <build>/work.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")

WORKLOADS = ["table1", "cycle-1m", "hypercube-reach", "service-churn"]
END_TO_END = ["setup_s", "run_s", "node_rounds_per_s", "round_ms_p50",
              "round_ms_p99", "checkpoint_ms_p50", "peak_rss_mb"]
PER_LAYER = [
    "graph.build_s", "markov.spectral_gap_s", "balancers.decide_s",
    "balancers.decide_share", "balancers.ns_per_node_round",
    "core.round_other_s", "sweep.scenario_s_p50", "sweep.busy_s",
    "sweep.parallel_efficiency", "pool.speedup", "mem.bytes_per_node_round",
    "mem.ceiling_gbps", "mem.pct_of_ceiling", "alloc.huge_page_mmaps",
    "dynamics.prepare_s", "dynamics.delta_calls",
    "dynamics.backlog_peak_entries", "snapshot.capture_ms",
    "snapshot.write_ms", "snapshot.bytes", "snapshot.restore_ms",
    "trace.overhead_pct",
]
# Seeds the recorded expectations cover: table1 and service-churn map a
# seed onto one of 16 variants; the other two check any seed against one
# record (their seed is an automorphism of the graph).
RECORD_SEEDS = {"table1": range(16), "service-churn": range(16),
                "cycle-1m": [0], "hypercube-reach": [0]}
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures and builds (incrementally after the first run); returns
    the binary path or None."""
    bdir = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", bdir, "-j", jobs]]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    binary = os.path.join(bdir, "perfbench")
    return binary if os.path.exists(binary) else None


def run_binary(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload=" + workload, "--seed=" + str(seed),
           "--seconds=" + str(seconds), "--trace=" + str(trace),
           "--work-dir=" + os.path.join(build_dir(), "work")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % workload)
        return None
    if r.stderr:
        log(r.stderr[-4000:])
    for line in r.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            return json.loads(line[len("PERFBENCH_RESULT "):])
    log("perfbench: %s exited %d without a result" % (workload, r.returncode))
    return None


def source_digest():
    """sha256 over the library sources and build file: identifies the code
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        paths += [os.path.join(base, f) for f in sorted(files)]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
        return r.stdout.strip() if r.returncode == 0 else "none"
    except OSError:
        return "none"


def thp_mode():
    try:
        with open("/sys/kernel/mm/transparent_hugepage/enabled") as f:
            text = f.read()
        return text[text.index("[") + 1:text.index("]")]
    except (OSError, ValueError):
        return "unknown"


def check_observations(workload, observations):
    """Compares the run's observations with the recorded ones."""
    try:
        with open(EXPECTED) as f:
            expected = json.load(f).get(workload, {})
    except (OSError, ValueError):
        expected = {}
    failures = []
    for key, value in sorted(observations.items()):
        want = expected.get(key)
        if want != value:
            failures.append("%s: %s, recorded %s" % (key, value, want))
    return len(observations), failures


def record(workloads):
    binary = build()
    if binary is None:
        return 1
    try:
        with open(EXPECTED) as f:
            out = json.load(f)
    except (OSError, ValueError):
        out = {}
    for workload in workloads:
        out[workload] = {}
        for seed in RECORD_SEEDS[workload]:
            res = run_binary(binary, workload, seed, 1, 0)
            if res is None or res["failed"]:
                log("perfbench: cannot record %s seed %d" % (workload, seed))
                return 1
            out[workload].update(res["observations"])
            log("recorded %s seed %d" % (workload, seed))
    with open(EXPECTED, "w") as f:
        json.dump(out, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite perfbench/expected.json from this build "
                         "(only --workload's entry when given)")
    args = ap.parse_args()
    if args.record:
        return record([args.workload] if args.workload else WORKLOADS)
    if args.workload is None:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    res = run_binary(binary, args.workload, args.seed, args.seconds, args.trace)
    if res is None:
        return 1
    obs_attempted, obs_failures = check_observations(args.workload,
                                                     res["observations"])
    attempted = res["attempted"] + obs_attempted
    failures = res["failures"] + obs_failures
    names = PER_LAYER if args.trace else END_TO_END
    missing = [n for n in names if n not in res["metrics"]]
    if missing:
        log("perfbench: metrics missing: " + ", ".join(missing))
        return 1
    metrics = {n: res["metrics"][n] for n in names}

    notes = dict(res["notes"])
    notes.update({"host.thp": thp_mode(), "build.git_sha": git_sha(),
                  "build.source_digest": source_digest()})
    print("perfbench %s seed=%d seconds=%g trace=%d" %
          (args.workload, args.seed, args.seconds, args.trace))
    for n in names:
        print("  %-32s %16.6g %s" % (n, metrics[n]["value"], metrics[n]["unit"]))
    print("  %-32s %16.6g %s   (%d of %d checks failed)" %
          ("error_rate", len(failures) / attempted, "ratio", len(failures),
           attempted))
    for f in failures:
        print("  FAILED: " + f)
    for k in sorted(notes):
        print("  %-32s %s" % (k, notes[k]))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
