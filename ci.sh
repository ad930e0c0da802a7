#!/usr/bin/env bash
#===- ci.sh - Tier-1 verification + sanitizer pass -----------------------===#
#
# Part of offload-mm, a reproduction of "The Impact of Diverse Memory
# Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
#
# Usage: ./ci.sh [jobs]
#
# Four stages, all must be green:
#   1. build/      — the tier-1 configuration (RelWithDebInfo, asserts
#                    on, warnings promoted to errors), everything
#                    except the `soak` label (includes the sweep-runner
#                    byte-identity and bench-toolchain tests)
#   2. bench smoke — tiny E10 + E11 + E12 + E13 + E15 runs through
#                    tools/sweeprun (the parallel sweep runner CI and
#                    developers share): the benches abort on any
#                    checksum divergence, and bench_summary.py asserts
#                    the finest-chunk speedup floor (E10), the p99
#                    frame-cycle tail against the committed baseline
#                    (E11), the work-stealing p99 win floor (E12), the
#                    parcel-dataflow frame-cycle win over the
#                    host-staged schedule (E13), and the multi-tenant
#                    isolation ceiling — a hang or straggler in one
#                    tenant may not move the other tenants' pooled p99
#                    by more than 5% (E15); per-shard logs land
#                    in build/bench/sweep-logs/ for failure triage
#   3. build-asan/ — the same tests under AddressSanitizer + UBSanitizer
#   4. soak        — the long randomised fault-injection endurance runs
#                    (including the full-grid sweep determinism soak),
#                    under the sanitizer build where their randomly
#                    killed workers are most likely to expose leaks
#
#===----------------------------------------------------------------------===#

set -euo pipefail
cd "$(dirname "$0")"

JOBS="${1:-$(nproc)}"

echo "=== tier-1: configure + build + ctest ==="
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DOMM_WERROR=ON
cmake --build build -j "$JOBS"
ctest --test-dir build -LE soak --output-on-failure -j "$JOBS"

# The smoke runs all go through tools/sweeprun: rows fan out across
# $JOBS host processes and the merged JSON is byte-identical to a
# serial run (the sweep_determinism ctest in stage 1 enforces that),
# so the gates below see exactly the bytes the old serial smoke saw.
SWEEP_LOGS=build/bench/sweep-logs

echo "=== bench smoke: persistent workers (E10, via tools/sweeprun) ==="
python3 tools/sweeprun --jobs "$JOBS" \
    --filter 'chunk_elems:1/|KilledWorkers' \
    --out build/bench/BENCH_e10_smoke.json --log-dir "$SWEEP_LOGS/e10" \
    build/bench/bench_e10_persistent_workers
python3 tools/bench_summary.py build/bench/BENCH_e10_smoke.json \
    --baseline BENCH_baseline --counters speedup_vs_launch,requeued
python3 tools/bench_summary.py build/bench/BENCH_e10_smoke.json \
    --filter 'PersistentWorkers/chunk_elems:1/' \
    --require speedup_vs_launch '>=' 2.0

echo "=== bench smoke: watchdog deadlines (E11, via tools/sweeprun) ==="
python3 tools/sweeprun --jobs "$JOBS" \
    --filter 'straggler_pm:50/|HungWorkers' \
    --out build/bench/BENCH_e11_smoke.json --log-dir "$SWEEP_LOGS/e11" \
    build/bench/bench_e11_deadlines
python3 tools/bench_summary.py build/bench/BENCH_e11_smoke.json \
    --baseline BENCH_baseline \
    --counters p99_cycles,stragglers,spec_redispatches
# The gate is scoped to the rows this smoke run produced: with
# --require, bench_summary also fails on baseline rows missing from
# the candidate, so an unfiltered gate over a filtered run would trip.
python3 tools/bench_summary.py build/bench/BENCH_e11_smoke.json \
    --baseline BENCH_baseline --filter 'straggler_pm:50/|HungWorkers' \
    --require p99_cycles '<=+5%' baseline

echo "=== bench smoke: work stealing (E12, via tools/sweeprun) ==="
python3 tools/sweeprun --jobs "$JOBS" \
    --filter 'policy:2' \
    --out build/bench/BENCH_e12_smoke.json --log-dir "$SWEEP_LOGS/e12" \
    build/bench/bench_e12_work_stealing
python3 tools/bench_summary.py build/bench/BENCH_e12_smoke.json \
    --baseline BENCH_baseline \
    --counters p99_cycles,steals_succeeded,descriptors_stolen
python3 tools/bench_summary.py build/bench/BENCH_e12_smoke.json \
    --filter 'SkewedChunks/hot_mult:32/policy:2' \
    --require p99_win_vs_none '>=' 1.3
python3 tools/bench_summary.py build/bench/BENCH_e12_smoke.json \
    --filter 'StragglerSteal' \
    --require p99_win_vs_none '>=' 1.3

echo "=== bench smoke: parcel dataflow (E13, via tools/sweeprun) ==="
python3 tools/sweeprun --jobs "$JOBS" \
    --filter 'FrameSchedule' \
    --out build/bench/BENCH_e13_smoke.json --log-dir "$SWEEP_LOGS/e13" \
    build/bench/bench_e13_parcels
python3 tools/bench_summary.py build/bench/BENCH_e13_smoke.json \
    --baseline BENCH_baseline --filter 'FrameSchedule' \
    --counters win_vs_staged,host_round_trips_eliminated
# The headline claim: once every worker seeds a continuation chain,
# the dataflow frame beats the host-staged schedule outright.  The
# sim is deterministic, so an exact >= 1.0 floor is stable.
python3 tools/bench_summary.py build/bench/BENCH_e13_smoke.json \
    --filter 'FrameSchedule/workers:4/dataflow:1' \
    --require win_vs_staged '>=' 1.0
python3 tools/bench_summary.py build/bench/BENCH_e13_smoke.json \
    --filter 'FrameSchedule/workers:6/dataflow:1' \
    --require win_vs_staged '>=' 1.0
python3 tools/bench_summary.py build/bench/BENCH_e13_smoke.json \
    --filter 'FrameSchedule/workers:6/dataflow:1' \
    --require host_round_trips_eliminated '>' 0

echo "=== bench smoke: multi-tenant serving (E15, via tools/sweeprun) ==="
python3 tools/sweeprun --jobs "$JOBS" \
    --filter 'FaultIsolation|tenants:4/' \
    --out build/bench/BENCH_e15_smoke.json --log-dir "$SWEEP_LOGS/e15" \
    build/bench/bench_e15_multi_tenant
python3 tools/bench_summary.py build/bench/BENCH_e15_smoke.json \
    --baseline BENCH_baseline \
    --counters p99_cycles,p99_unaffected_ratio,cores_recycled
# The isolation gate: a hang or an 8x straggler buried inside tenant
# 0's slices may not move the OTHER tenants' pooled p99 frame cycles
# by more than 5% over the fault-free run (the bench itself aborts on
# any checksum divergence, so state isolation is already proven by the
# rows existing at all).
python3 tools/bench_summary.py build/bench/BENCH_e15_smoke.json \
    --filter 'FaultIsolation/fault_kind:1/quarantine:0' \
    --require p99_unaffected_ratio '<=' 1.05
python3 tools/bench_summary.py build/bench/BENCH_e15_smoke.json \
    --filter 'FaultIsolation/fault_kind:2/quarantine:0' \
    --require p99_unaffected_ratio '<=' 1.05

echo "=== bench smoke: accelerator domains (E16, via tools/sweeprun) ==="
# FlatIdentity rows abort on any divergence from the premium-free flat
# run, so the determinism contract rides along with the smoke.
python3 tools/sweeprun --jobs "$JOBS" \
    --filter 'penalty:128000|hot_mult:16|FlatIdentity' \
    --out build/bench/BENCH_e16_smoke.json --log-dir "$SWEEP_LOGS/e16" \
    build/bench/bench_e16_domains
python3 tools/bench_summary.py build/bench/BENCH_e16_smoke.json \
    --baseline BENCH_baseline \
    --counters p99_cycles,domain_win_vs_oblivious,steals_remote_domain
# The placement gate: at a punitive interconnect premium the
# domain-aware policy must beat the best domain-oblivious stealing
# policy by 10% on p99 frame cycles, on both the penalty sweep and the
# skew sweep. The gate is scoped to the rows this smoke run produced:
# with --require, bench_summary also fails on baseline rows missing
# from the candidate.
python3 tools/bench_summary.py build/bench/BENCH_e16_smoke.json \
    --filter 'DomainPenalty/penalty:128000/policy:3' \
    --require domain_win_vs_oblivious '>=' 1.1
python3 tools/bench_summary.py build/bench/BENCH_e16_smoke.json \
    --filter 'DomainSkew/hot_mult:16/policy:3' \
    --require domain_win_vs_oblivious '>=' 1.1

echo "=== asan+ubsan: configure + build + ctest ==="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DOMM_SANITIZE=ON
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan -LE soak --output-on-failure -j "$JOBS"

echo "=== soak: fault-injection endurance under asan+ubsan ==="
ctest --test-dir build-asan -L soak --output-on-failure -j "$JOBS"

echo "=== all green ==="
