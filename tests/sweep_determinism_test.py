#!/usr/bin/env python3
"""Determinism contract of tools/sweeprun: byte-identical merges.

Part of offload-mm, a reproduction of "The Impact of Diverse Memory
Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).

A sweep's merged BENCH_<experiment>.json must be byte-identical no
matter how many host processes ran it, how rows were sharded, or in
what order shards finished. The double-run procedure:

  1. Serial reference — each bench binary writes its JSON itself in
     one process (the merge target is *that writer's* bytes, not a
     re-serialisation).
  2. tools/sweeprun --jobs 1 (degenerate fan-out).
  3. tools/sweeprun --jobs 4 --batch 1 --shuffle S (every row its own
     process, shard-to-worker assignment adversarially permuted).
  4. tools/sweeprun --jobs 4 --shuffle S' (auto batching, different
     permutation).

All four files must compare equal with a byte-level cmp, and every
row's `checksum` counter (the folded simulation-state checksum the
E10/E13 rows export) must agree between the serial and sharded runs —
the semantic anchor on top of the byte-level one.

Default (tier-1, `integration` label): a small E10+E13 grid.
--soak (`soak` label): the full E9-E13 grid.

Usage:
    python3 tests/sweep_determinism_test.py --bench-dir build/bench
        [--sweeprun tools/sweeprun] [--soak]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SMALL_BINARIES = ["bench_e10_persistent_workers", "bench_e13_parcels"]
SMALL_FILTER = "chunk_elems:(1|4|16)/|FrameSchedule|StageDepth"
# Rows of these binaries all carry the `checksum` counter; the sharded
# run must reproduce every one of them.
CHECKSUM_EXPERIMENTS = {"e10_persistent_workers", "e13_parcels"}

SOAK_BINARIES = [
    "bench_e9_fault_tolerance",
    "bench_e10_persistent_workers",
    "bench_e11_deadlines",
    "bench_e12_work_stealing",
    "bench_e13_parcels",
]


def run(cmd, **kwargs):
    proc = subprocess.run(cmd, capture_output=True, text=True, **kwargs)
    if proc.returncode != 0:
        sys.exit(f"FAIL: command exited {proc.returncode}: "
                 f"{' '.join(cmd)}\n{proc.stdout}\n{proc.stderr}")
    return proc


def compare_bytes(reference, candidate, what):
    with open(reference, "rb") as f:
        ref = f.read()
    with open(candidate, "rb") as f:
        got = f.read()
    if ref != got:
        # Find the first differing line for a useful message.
        ref_lines = ref.decode(errors="replace").splitlines()
        got_lines = got.decode(errors="replace").splitlines()
        for i, (a, b) in enumerate(zip(ref_lines, got_lines)):
            if a != b:
                sys.exit(f"FAIL: {what}: {candidate} diverges from "
                         f"{reference} at line {i + 1}:\n"
                         f"  serial : {a[:120]}\n  sharded: {b[:120]}")
        sys.exit(f"FAIL: {what}: {candidate} and {reference} differ in "
                 f"length ({len(got)} vs {len(ref)} bytes)")
    print(f"ok: {what}: byte-identical ({len(ref)} bytes)")


def check_checksums(reference, candidate, experiment):
    """Row-by-row semantic cross-check of the `checksum` counters."""
    with open(reference, "r", encoding="utf-8") as f:
        ref_rows = {b["name"]: b for b in json.load(f)["benchmarks"]}
    with open(candidate, "r", encoding="utf-8") as f:
        got_rows = {b["name"]: b for b in json.load(f)["benchmarks"]}
    if set(ref_rows) != set(got_rows):
        sys.exit(f"FAIL: {experiment}: row sets differ between serial "
                 f"and sharded runs")
    checked = 0
    for name, ref in ref_rows.items():
        ref_sum = ref.get("counters", {}).get("checksum")
        got_sum = got_rows[name].get("counters", {}).get("checksum")
        if experiment in CHECKSUM_EXPERIMENTS and ref_sum is None:
            sys.exit(f"FAIL: {experiment}: row {name!r} lost its "
                     f"checksum counter")
        if ref_sum != got_sum:
            sys.exit(f"FAIL: {experiment}: row {name!r} checksum "
                     f"{got_sum} != serial {ref_sum}")
        if ref["sim_cycles"] != got_rows[name]["sim_cycles"]:
            sys.exit(f"FAIL: {experiment}: row {name!r} sim_cycles "
                     f"diverged")
        checked += 1 if ref_sum is not None else 0
    print(f"ok: {experiment}: {checked} checksum counters match "
          f"({len(ref_rows)} rows)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench-dir", required=True,
                    help="directory of built bench binaries")
    ap.add_argument("--sweeprun",
                    default=os.path.join(REPO_ROOT, "tools", "sweeprun"))
    ap.add_argument("--soak", action="store_true",
                    help="full E9-E13 grid instead of the small "
                         "E10+E13 one")
    args = ap.parse_args()

    names = SOAK_BINARIES if args.soak else SMALL_BINARIES
    bench_filter = None if args.soak else SMALL_FILTER
    binaries = [os.path.join(args.bench_dir, n) for n in names]
    for b in binaries:
        if not os.path.exists(b):
            sys.exit(f"FAIL: {b} not built")

    with tempfile.TemporaryDirectory(prefix="sweep-determinism-") as tmp:
        # 1. Serial reference: the bench binary's own writer, one
        #    process per binary.
        serial_dir = os.path.join(tmp, "serial")
        os.makedirs(serial_dir)
        experiments = []
        for binary in binaries:
            experiment = os.path.basename(binary)[len("bench_"):]
            experiments.append(experiment)
            out = os.path.join(serial_dir, f"BENCH_{experiment}.json")
            cmd = [binary, f"--json={out}"]
            if bench_filter:
                cmd.append(f"--benchmark_filter={bench_filter}")
            run(cmd)

        # 2-4. The runner, at increasingly adversarial settings.
        sweeps = [
            ("jobs1", ["--jobs", "1"]),
            ("jobs4-rowshards-shuffled",
             ["--jobs", "4", "--batch", "1", "--shuffle", "1717"]),
            ("jobs4-autobatch-shuffled",
             ["--jobs", "4", "--shuffle", "99"]),
        ]
        if args.soak:
            # Keep the full-grid soak affordable: maximal row splitting
            # only on the grids without expensive per-process reference
            # calibration (E11's dominates; auto batching covers it).
            sweeps[1] = ("jobs4-batch2-shuffled",
                         ["--jobs", "4", "--batch", "2",
                          "--shuffle", "1717"])
        sweep_dirs = []
        for tag, flags in sweeps:
            out_dir = os.path.join(tmp, tag)
            cmd = [sys.executable, args.sweeprun, "--out-dir", out_dir,
                   *flags]
            if bench_filter:
                cmd += ["--filter", bench_filter]
            run(cmd + binaries)
            sweep_dirs.append((tag, out_dir))

        for experiment in experiments:
            name = f"BENCH_{experiment}.json"
            reference = os.path.join(serial_dir, name)
            for tag, out_dir in sweep_dirs:
                compare_bytes(reference, os.path.join(out_dir, name),
                              f"{experiment} [{tag}]")
            check_checksums(reference,
                            os.path.join(sweep_dirs[1][1], name),
                            experiment)

    print("PASS: sweep merges are byte-identical and checksum-stable")
    return 0


if __name__ == "__main__":
    sys.exit(main())
