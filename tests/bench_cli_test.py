#!/usr/bin/env python3
"""Regression tests for the shared bench main's CLI contract.

Part of offload-mm, a reproduction of "The Impact of Diverse Memory
Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).

bench/BenchMain.cpp is the one entry point of every bench binary, so
its edge cases are pinned here:

  - a --filter matching zero benchmarks exits 2 and writes no JSON
    (the vacuous-sweep bug: an empty results file used to exit 0 and
    sail through every downstream gate);
  - --list (and the native --benchmark_list_tests spelling) prints the
    registration-order row names, exits 0, and never writes JSON (an
    empty listing artifact used to clobber real BENCH_*.json files);
  - a valid subset --filter writes a well-formed omm-bench-v1 file
    whose rows appear in enumeration order;
  - rows are independent (the bench/BenchUtil.h contract): a row run
    alone through --filter writes exactly the JSON line the full sweep
    writes for it. The --row-bench binary should share lazily computed
    state across rows, the place where one row could leak into the next.

Usage:
    python3 tests/bench_cli_test.py --bench BIN --row-bench BIN
    (a fast bench binary, and bench_e11_deadlines)
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

PASSES = []


def ok(what):
    PASSES.append(what)
    print(f"ok: {what}")


def run(binary, *argv, cwd):
    return subprocess.run([binary, *argv], capture_output=True,
                          text=True, cwd=cwd)


# A late E11 row: the full sweep reaches it with cleanReference() long
# computed, while the single-row run computes it first.
ISOLATED_ROW = "BM_FrameBudget/budget_pct:105/"


def row_lines(path):
    """Each row's JSON line, keyed by row name, without the separating
    comma that every row but the last carries."""
    with open(path, "r", encoding="utf-8") as f:
        lines = [l.strip().rstrip(",") for l in f
                 if l.lstrip().startswith('{"name": ')]
    return {json.loads(l)["name"]: l for l in lines}


def check_row_independence(binary, tmp):
    full = os.path.join(tmp, "full.json")
    alone = os.path.join(tmp, "alone.json")
    for argv in ([f"--json={full}"],
                 [f"--json={alone}", "--filter", ISOLATED_ROW]):
        proc = run(binary, *argv, cwd=tmp)
        if proc.returncode != 0:
            sys.exit(f"FAIL: {' '.join(argv)} exited {proc.returncode}:\n"
                     f"{proc.stderr}")
    rows = row_lines(alone)
    if len(rows) != 1:
        sys.exit(f"FAIL: --filter {ISOLATED_ROW} ran {len(rows)} rows, "
                 f"want 1")
    (name, line), = rows.items()
    if row_lines(full).get(name) != line:
        sys.exit(f"FAIL: row {name} run alone differs from its full-sweep "
                 f"line:\n  alone: {line}\n  full:  "
                 f"{row_lines(full).get(name)}")
    ok(f"{name} alone matches its full-sweep line byte for byte")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", required=True,
                    help="a built bench binary (pick a fast one)")
    ap.add_argument("--row-bench", required=True,
                    help="a built bench binary whose rows share lazy "
                         "state (bench_e11_deadlines)")
    args = ap.parse_args()
    binary = os.path.abspath(args.bench)
    row_binary = os.path.abspath(args.row_bench)
    for path in (binary, row_binary):
        if not os.path.exists(path):
            sys.exit(f"FAIL: {path} not built")

    with tempfile.TemporaryDirectory(prefix="bench-cli-") as tmp:
        # --list prints rows, exits 0, writes nothing.
        for flag in ("--list", "--benchmark_list_tests=true"):
            proc = run(binary, flag, cwd=tmp)
            if proc.returncode != 0:
                sys.exit(f"FAIL: {flag} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
            rows = [l for l in proc.stdout.splitlines() if l.strip()]
            if not rows:
                sys.exit(f"FAIL: {flag} printed no rows")
            if os.listdir(tmp):
                sys.exit(f"FAIL: {flag} left files behind: "
                         f"{os.listdir(tmp)}")
            ok(f"{flag}: {len(rows)} rows, no JSON artifact")

        # Vacuous filter: exit 2, no JSON.
        proc = run(binary, "--filter", "no_such_benchmark_xyz", cwd=tmp)
        if proc.returncode != 2:
            sys.exit(f"FAIL: vacuous --filter exited {proc.returncode}, "
                     f"want 2 (stderr: {proc.stderr.strip()!r})")
        if "no benchmarks ran" not in proc.stderr:
            sys.exit(f"FAIL: vacuous --filter diagnostic missing, got: "
                     f"{proc.stderr.strip()!r}")
        if os.listdir(tmp):
            sys.exit(f"FAIL: vacuous --filter wrote files: "
                     f"{os.listdir(tmp)}")
        ok("vacuous --filter exits 2 with no JSON")

        # Same through the native regex spelling.
        proc = run(binary, "--benchmark_filter=no_such_benchmark_xyz",
                   cwd=tmp)
        if proc.returncode != 2 or os.listdir(tmp):
            sys.exit(f"FAIL: vacuous --benchmark_filter exited "
                     f"{proc.returncode} (files: {os.listdir(tmp)})")
        ok("vacuous --benchmark_filter exits 2 with no JSON")

        # A real subset run through the literal-substring --filter:
        # exit 0, well-formed JSON, rows in enumeration order.
        listed = run(binary, "--list", cwd=tmp).stdout.splitlines()
        listed = [l for l in listed if l.strip()]
        first = listed[0]
        out = os.path.join(tmp, "subset.json")
        proc = run(binary, f"--json={out}", "--filter", first, cwd=tmp)
        if proc.returncode != 0:
            sys.exit(f"FAIL: subset run exited {proc.returncode}:\n"
                     f"{proc.stderr}")
        with open(out, "r", encoding="utf-8") as f:
            doc = json.load(f)
        if doc.get("schema") != "omm-bench-v1" or not doc["benchmarks"]:
            sys.exit(f"FAIL: subset run wrote a malformed results file")
        if doc["benchmarks"][0]["name"] != first:
            sys.exit(f"FAIL: first JSON row {doc['benchmarks'][0]['name']!r}"
                     f" is not the first listed row {first!r}")
        names = [b["name"] for b in doc["benchmarks"]]
        if names != [r for r in listed if r in set(names)]:
            sys.exit("FAIL: JSON rows are not in enumeration order")
        ok(f"subset --filter run writes well-formed ordered JSON "
           f"({len(names)} rows)")

        check_row_independence(row_binary, tmp)

    print(f"PASS: {len(PASSES)} bench CLI contract checks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
