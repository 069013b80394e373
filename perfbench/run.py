#!/usr/bin/env python3
"""Build and run the repository benchmark.

One run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload vcycle-golem3 --seed 1 --seconds 16 --trace 0

builds perfbench/ (release, offline) into $CARGO_TARGET_DIR (default
.bench_build), runs one workload and passes the benchmark's output
through. The last line of standard output is the result object.

Steadiness report (several seeds of one workload):

    python3 perfbench/run.py --steadiness 10 --workload serve-suite --seed 100 --seconds 16

runs seeds 100..109 (set 1) and 110..119 (set 2), alternating between
the sets, then the first seed again. For each set it prints every
end-to-end metric's median, quartiles and quartile spread next to its
bound in BENCHMARK.json, and the same for a one-shot set-up timing and a
host speed probe; then how far the second set's medians lie from the
first set's. It fails when a spread is not below a third of its bound,
when two sets' medians differ by more than the bound, or when the
repeated seed does not reproduce the quality metrics exactly.

Run from the repository root. Everything it writes stays inside the
repository: the build directory and the scratch directory .bench_work.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700
# Metrics whose value is a pure function of the seed.
EXACT = ("cut_sum", "connectivity_sum", "verified_ratio")
# Sets of seeds a steadiness report compares.
SETS = 2


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def source_rev():
    """The git commit when the checkout is a repository, otherwise a
    digest of the sources the benchmark builds from."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("crates", "compat", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def build():
    """Builds the benchmark and returns the binary's path."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if done.returncode != 0:
        log(f"build failed with exit code {done.returncode}")
        return None
    return os.path.join(target, "release", "perfbench")


def run_once(binary, workload, seed, seconds, trace, rev):
    """Runs the benchmark binary once. Returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(ROOT, ".bench_work"), "--rev", rev]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed} did not finish within {RUN_TIMEOUT_S} s")
        return 1, []
    return done.returncode, done.stdout.splitlines()


def result_of(lines):
    """The result object on the last line, or None."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread_table(values, bounds):
    """Prints median, quartiles and quartile spread of every metric next
    to its bound. Returns the medians and whether every spread is below a
    third of its bound."""
    ok, medians = True, {}
    print(f"  {'metric':<18} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, med, q3 = quartiles(vals)
        medians[name] = med
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name, 0.0)
        flag = ""
        if spread >= bound / 3:
            flag = "  <-- not below a third of the bound"
            ok = False
        print(f"  {name:<18} {q1:12.6g} {med:12.6g} {q3:12.6g} {spread:8.2%} {bound:6.2f}{flag}")
    return medians, ok


def steadiness(binary, args, rev):
    """Runs `args.steadiness` seeds of one workload in each of SETS sets,
    the sets' runs alternating, and reports spreads and the sets'
    agreement."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    n = args.steadiness
    # Run i of set j uses seed args.seed + j * n + i; runs alternate
    # between the sets, so that a drift of the host reaches every set
    # alike. The first seed runs once more at the end.
    order = [(j, args.seed + j * n + i) for i in range(n) for j in range(SETS)]
    sets = [{"values": {}, "provenance": []} for _ in range(SETS)]
    first = None
    for j, seed in order + [(None, args.seed)]:
        code, lines = run_once(binary, args.workload, seed, args.seconds, 0, rev)
        result = result_of(lines)
        if code != 0 or result is None or not result["correct"]:
            log(f"seed {seed}: run failed (exit {code})")
            return 1
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        if j is None:
            for name in EXACT:
                if metrics[name] != first[name]:
                    log(f"seed {seed} repeated: {name} {metrics[name]} != {first[name]}")
                    return 1
            break
        if first is None:
            first = metrics
        for name, value in metrics.items():
            sets[j]["values"].setdefault(name, []).append(value)
        sets[j]["provenance"].append(json.loads(lines[-2])["provenance"])
        log(f"set {j + 1} seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in metrics.items()))

    ok = True
    all_medians = []
    for j, one in enumerate(sets):
        print(f"{args.workload}, set {j + 1}: seeds {args.seed + j * n}..{args.seed + j * n + n - 1}, "
              f"{args.seconds} s per run, rev {rev}")
        medians, steady = spread_table(one["values"], bounds)
        all_medians.append(medians)
        ok = ok and steady
        # The set-up time a single repetition would report (the first),
        # next to the median over repetitions that setup_s reports; and the
        # host's own speed, read by a fixed loop that runs none of the suite.
        for label, key in (("(one-shot setup)", "setup_reps_s"), ("(host probe)", "host_probe_s")):
            q1, med, q3 = quartiles([p[key][0] for p in one["provenance"]])
            print(f"  {label:<18} {q1:12.6g} {med:12.6g} {q3:12.6g} {(q3 - q1) / med:8.2%}")
    for j in range(1, len(sets)):
        print(f"{args.workload}: set {j + 1} median against set 1 median")
        for name, base in all_medians[0].items():
            shift = (all_medians[j][name] - base) / base if base else 0.0
            flag = ""
            if abs(shift) > bounds.get(name, 0.0):
                flag = "  <-- outside the bound"
                ok = False
            print(f"  {name:<18} {shift:+8.2%} {bounds.get(name, 0.0):6.2f}{flag}")
    print(f"  seed {args.seed} repeated: {', '.join(EXACT)} identical")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N",
                        help="report the spread over two sets of N seeds instead of one run")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    rev = source_rev()
    if args.steadiness:
        return steadiness(binary, args, rev)
    code, lines = run_once(binary, args.workload, args.seed, args.seconds, args.trace, rev)
    for line in lines:
        print(line)
    if code == 0 and result_of(lines) is None:
        log("the benchmark printed no result")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
