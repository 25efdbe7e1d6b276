#!/usr/bin/env python3
"""Same-host A/B of perfbench: a base git ref against the working tree.

Exports the base ref into a scratch directory (git archive, so the
repository gains no worktree bookkeeping), gives each side its own
CARGO_TARGET_DIR, and runs perfbench/run.py in alternating pairs: even
pairs run the base first, odd pairs the working tree first, pair i on
seed --seed + i for both sides. Every run must report correct: true with
no failed check, or the A/B stops. Prints, per metric, each side's
median and quartiles, the median delta and how many pairs the working
tree won (direction from BENCHMARK.json's "better" field).

    python3 scripts/ab_perfbench.py --base HEAD~1 --workload service-churn \\
        --pairs 10 --seconds 45

perfbench/ itself is only read, never modified. With --work DIR the
export and both build trees persist there between invocations
(incremental rebuilds); otherwise a temporary directory is removed at
exit.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def export(ref, dest):
    """Extracts `ref`'s tree into dest (skipped when dest already holds
    that commit, so a persistent --work keeps its incremental builds)."""
    sha = git("rev-parse", "--verify", ref + "^{commit}")
    stamp = os.path.join(dest, ".ab_commit")
    if os.path.exists(stamp) and open(stamp).read().strip() == sha:
        return sha
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit("ab_perfbench: git archive %s failed" % ref)
    with open(stamp, "w") as f:
        f.write(sha + "\n")
    return sha


def directions():
    """metric name -> True when higher is better (BENCHMARK.json)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    spec = json.load(open(path))
    return {m["name"]: m.get("better") == "higher"
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def run_side(tree, build, args, seed):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, CARGO_TARGET_DIR=build)
    r = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(r.stderr[-4000:])
        raise SystemExit("ab_perfbench: no JSON result from " + tree)
    if not result.get("correct") or result.get("failed"):
        log(r.stdout[-4000:])
        raise SystemExit("ab_perfbench: run not correct (%s, seed %d)"
                         % (tree, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="git ref to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--seed", type=int, default=1, help="seed of pair 0")
    ap.add_argument("--work", help="persistent scratch directory")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    work = args.work or tempfile.mkdtemp(prefix="ab_perfbench.")
    os.makedirs(work, exist_ok=True)
    try:
        base_tree = os.path.join(work, "base")
        sha = export(args.base, base_tree)
        sides = {"base": (base_tree, os.path.join(work, "build-base")),
                 "head": (ROOT, os.path.join(work, "build-head"))}
        log("ab_perfbench: base %s (%s) vs working tree, %s, %d pairs x %gs"
            % (args.base, sha[:12], args.workload, args.pairs, args.seconds))
        runs = {"base": [], "head": []}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
            for side in order:
                runs[side].append(run_side(*sides[side], args, seed))
            log("  pair %d (seed %d, %s first) done" % (i, seed, order[0]))
        report(runs, directions(), args)
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)


def report(runs, higher_better, args):
    names = [k for k in runs["base"][0] if k in runs["head"][0]]
    print("%s, %d pairs x %gs, trace %d: median [q1, q3] per side"
          % (args.workload, args.pairs, args.seconds, args.trace))
    print("%-26s %32s %32s %9s %6s" % ("metric", "base", "head", "delta",
                                       "wins"))
    for name in names:
        b = [r[name] for r in runs["base"]]
        h = [r[name] for r in runs["head"]]
        bm, hm = statistics.median(b), statistics.median(h)
        higher = higher_better.get(name, False)
        wins = sum((y > x) if higher else (y < x) for x, y in zip(b, h))
        delta = "%+8.1f%%" % (100.0 * (hm / bm - 1.0)) if bm else "      n/a"
        print("%-26s %32s %32s %9s %3d/%-2d"
              % (name, "%.4g [%.4g, %.4g]" % (bm, *quartiles(b)),
                 "%.4g [%.4g, %.4g]" % (hm, *quartiles(h)), delta, wins,
                 len(b)))


if __name__ == "__main__":
    main()
