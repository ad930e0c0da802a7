#!/usr/bin/env python3
"""Builds and runs the repository benchmark; see benchmark/README.md.

    python3 benchmark/run.py                    # every workload, end to end
    python3 benchmark/run.py --workload frame_resident --seed 7 --trace 1
    python3 benchmark/run.py --quick            # smoke run: 1/20 of the frames
    python3 benchmark/run.py --out runs.json    # also append to a series

omm_bench is built from source into .bench_build/ at the root of the
checkout (Release, the repository's keep-assertions flags). Each workload
runs in its own omm_bench process, one after another, on one host thread.
Every metric is printed by name with its unit; the last line of standard
output is one JSON object with "correct", "attempted", "failed" and
"metrics" (for several workloads, "workloads" maps each to its metrics).
The exit code is non-zero if a check, a gate or the schema self-check
failed.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "omm_bench")
DEFAULT_SEED = 1
# omm_bench output fields that describe the run rather than measure it.
STAMP_KEYS = ("seed", "steps", "repeats", "build_type", "compiler", "started")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """(Re)configures an optimized, sanitizer-free tree and builds omm_bench
    and the libraries it links; a no-op rebuild takes under a second."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release",
         "-DOMM_SANITIZE=OFF", "-DOMM_TSAN=OFF"],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", CMAKE_DIR, "--target", "omm_bench",
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)


def git_rev():
    # The checkout need not be a git repository; never look above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(name, args, env):
    cmd = [BINARY, "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        cmd.append("--quick")
    if args.trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(BUILD, "traces", f"{name}.json")]
    started = time.time()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=3 * args.seconds + 120)
    except subprocess.TimeoutExpired:
        fail(f"{name}: omm_bench timed out")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{name}: omm_bench exited {proc.returncode} without a result")
    result = json.loads(lines[-1])
    result["started"] = started
    return result


def schema_errors(bench, listed, results, trace):
    """Names omm_bench printed that BENCHMARK.json lacks, or the reverse."""
    errors = []
    declared = {w["name"] for w in bench["workloads"]}
    if set(listed) != declared:
        errors.append(f"workloads: omm_bench has {sorted(listed)}, "
                      f"BENCHMARK.json has {sorted(declared)}")
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in bench[section]}
    for result in results:
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        if printed != expected:
            diff = sorted(set(printed.items()) ^ set(expected.items()))
            errors.append(f"{result['workload']}: {section} metrics differ "
                          f"from BENCHMARK.json: {diff}")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in bench["workloads"]],
                        help="run one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"],
                        help="timed repeats per workload stop after this")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: print the per-layer metrics of a traced "
                             "run and write its spans as a Chrome trace")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: 1/20 of the frames, one repeat")
    parser.add_argument("--out", help="append each result to this JSON list")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
        listed = subprocess.run([BINARY, "--list"], capture_output=True,
                                text=True, check=True).stdout.split()
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    env = dict(os.environ)
    env.pop("OMM_HOST_THREADS", None)
    names = [args.workload] if args.workload else \
        [w["name"] for w in bench["workloads"]]
    results = [run_workload(name, args, env) for name in names]

    stamp = {"git_rev": git_rev(), "nproc": os.cpu_count(),
             "seconds": args.seconds, "trace": args.trace, "quick": args.quick}
    results_dir = os.path.join(BUILD, "results")
    os.makedirs(results_dir, exist_ok=True)
    for r in results:
        r["stamp"] = dict(stamp, **{k: r.pop(k) for k in STAMP_KEYS})
        path = os.path.join(results_dir, f"{r['workload']}-seed{args.seed}"
                                         f"-trace{args.trace}.json")
        with open(path, "w") as f:
            json.dump(r, f, indent=1)
    if args.out:
        series = []
        if os.path.exists(args.out):
            with open(args.out) as f:
                series = json.load(f)
        with open(args.out, "w") as f:
            json.dump(series + results, f, indent=1)

    errors = schema_errors(bench, listed, results, args.trace)
    for r in results:
        s = r["stamp"]
        print(f"{r['workload']}: seed {s['seed']}, {s['repeats']} repeat(s) "
              f"of {s['steps']} steps, {r['failed']}/{r['attempted']} "
              f"checks failed, gates {r['gates']}")
        for name, m in r["metrics"].items():
            print(f"  {name:32s} {m['value']:>18.6g} {m['unit']}")
    for e in errors:
        print(f"run.py: schema self-check: {e}", file=sys.stderr)

    correct = all(r["correct"] for r in results) and not errors
    summary = {"correct": correct,
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results)}
    if len(results) == 1:
        summary["metrics"] = results[0]["metrics"]
    else:
        summary["workloads"] = {r["workload"]: r["metrics"] for r in results}
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
