#!/usr/bin/env bash
#===- ci.sh - Tier-1 verification + sanitizer pass -----------------------===#
#
# Part of offload-mm, a reproduction of "The Impact of Diverse Memory
# Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
#
# Usage: ./ci.sh [jobs]
#
# Seven stages, all must be green:
#   1. build/      — the tier-1 configuration (RelWithDebInfo, asserts
#                    on, warnings promoted to errors), everything
#                    except the `soak` label (includes the bench-toolchain
#                    tests, among them the bench row-independence check,
#                    and runs all 6 examples as `example_*` integration
#                    tests that pass on exit 0 with stdout and stderr
#                    equal byte for byte to examples/expected/<name>.txt)
#   2. baselines   — every committed BENCH_baseline/ snapshot is
#                    regenerated through tools/refresh_baselines (each
#                    bench binary's full sweep, run once, serially) into
#                    build/bench/baselines/ and must match the committed
#                    file byte for byte: a behaviour change refreshes its
#                    snapshot in the same change, or this stage names the
#                    stale file
#   3. bench gates — tools/bench_summary.py asserts each headline claim
#                    on the regenerated rows: the host-fallback rows
#                    hand chunks to the host (E9 all-dead resident
#                    frame, E11 lone straggler), the finest-chunk speedup
#                    floor (E10), the work-stealing p99 win floor (E12),
#                    the parcel-dataflow win over the host-staged
#                    schedule at 4 and 6 workers and under every
#                    recipient policy (E13), the multi-tenant
#                    isolation ceiling — a hang or straggler in one
#                    tenant may not move the other tenants' pooled p99
#                    by more than 5% (E15) — and the domain-placement
#                    floor (E16)
#   4. dead api    — tools/dead_api builds every binary, omm_bench
#                    included, at -O0 -fno-inline with --gc-sections
#                    into build-dead-api/ and fails on any out-of-line
#                    (T-symbol) src/ library function that no
#                    experiment, example or benchmark keeps unless
#                    tools/dead_api.allowlist gives it a reason; it does
#                    not see header-only inline functions or templates
#                    (about 80 s cold on 4 cores, a few seconds when
#                    nothing changed)
#   5. benchmark   — benchmark/run.py --quick, untraced and then with
#                    --trace 1: every BENCHMARK.json workload at 1/20 of
#                    its frames through omm_bench (built into
#                    .bench_build/); fails on a checksum mismatch,
#                    fingerprint divergence, observer/counter
#                    disagreement or end-to-end or per-layer
#                    metric-schema drift
#   6. build-asan/ — the same tests under AddressSanitizer + UBSanitizer
#   7. soak        — the long randomised fault-injection and tenant
#                    endurance runs, under the sanitizer build where
#                    their randomly killed workers are most likely to
#                    expose leaks
#
# Each stage prints its wall seconds when it ends, so a host-time
# regression in any of them shows in the log.
#
#===----------------------------------------------------------------------===#

set -euo pipefail
cd "$(dirname "$0")"

JOBS="${1:-$(nproc)}"

STAGE_START=$SECONDS
stage_done() {
  echo "--- $1: $((SECONDS - STAGE_START)) s wall"
  STAGE_START=$SECONDS
}

echo "=== tier-1: configure + build + ctest (tests and golden example output) ==="
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DOMM_WERROR=ON
cmake --build build -j "$JOBS"
ctest --test-dir build -LE soak --output-on-failure -j "$JOBS"
stage_done tier-1

# The experiment list is the set of committed snapshots. The benches
# abort on any checksum divergence and every row is deterministic, so a
# diff here is a real behaviour change.
echo "=== baselines: committed snapshots are byte-identical ==="
BASELINES=build/bench/baselines
rm -rf "$BASELINES"
EXPERIMENTS=()
for Snapshot in BENCH_baseline/*.json; do
  EXPERIMENTS+=("$(basename "$Snapshot" .json)")
done
python3 tools/refresh_baselines --baseline-dir "$BASELINES" "${EXPERIMENTS[@]}"
for Experiment in "${EXPERIMENTS[@]}"; do
  diff -u "BENCH_baseline/$Experiment.json" "$BASELINES/$Experiment.json"
done
stage_done baselines

echo "=== bench gates: headline claims on the regenerated rows ==="
python3 tools/bench_summary.py "$BASELINES/e10_persistent_workers.json" \
    --filter 'PersistentWorkers/chunk_elems:1/' \
    --require speedup_vs_launch '>=' 2.0
python3 tools/bench_summary.py "$BASELINES/e12_work_stealing.json" \
    --filter 'SkewedChunks/hot_mult:32/policy:2' \
    --require p99_win_vs_none '>=' 1.3
python3 tools/bench_summary.py "$BASELINES/e12_work_stealing.json" \
    --filter 'StragglerSteal/.*/policy:2' \
    --require p99_win_vs_none '>=' 1.3
# The host-fallback rows: a resident frame with every core dead and a
# lone straggler escalated under cancel+restart must each hand chunks
# to the host, or the row no longer measures the fallback path.
python3 tools/bench_summary.py "$BASELINES/e9_fault_tolerance.json" \
    --filter 'ResidentKilledAccelerators/killed_accels:6/' \
    --require host_chunks '>' 0
python3 tools/bench_summary.py "$BASELINES/e11_deadlines.json" \
    --filter 'LoneStraggler/slowdown:16/' \
    --require host_chunks '>' 0
# Once every worker seeds a continuation chain, the dataflow frame beats
# the host-staged schedule outright. The sim is deterministic, so an
# exact >= 1.0 floor is stable.
python3 tools/bench_summary.py "$BASELINES/e13_parcels.json" \
    --filter 'FrameSchedule/workers:4/dataflow:1' \
    --require win_vs_staged '>=' 1.0
python3 tools/bench_summary.py "$BASELINES/e13_parcels.json" \
    --filter 'FrameSchedule/workers:6/dataflow:1' \
    --require win_vs_staged '>=' 1.0
python3 tools/bench_summary.py "$BASELINES/e13_parcels.json" \
    --filter 'FrameSchedule/workers:6/dataflow:1' \
    --require host_round_trips_eliminated '>' 0
# Every remaining recipient policy must beat the host-staged schedule:
# a policy that loses to it (Self did, at 0.999x) gets deleted.
python3 tools/bench_summary.py "$BASELINES/e13_parcels.json" \
    --filter 'Policy/policy:2' \
    --require win_vs_staged '>=' 1.0
python3 tools/bench_summary.py "$BASELINES/e13_parcels.json" \
    --filter 'Policy/policy:3' \
    --require win_vs_staged '>=' 1.0
# The isolation gate: a hang or an 8x straggler buried inside the
# largest tenant's slices may not move the OTHER tenants' pooled p99
# frame cycles by more than 5% over the fault-free run.
python3 tools/bench_summary.py "$BASELINES/e15_multi_tenant.json" \
    --filter 'FaultIsolation/fault_kind:1/' \
    --require p99_unaffected_ratio '<=' 1.05
python3 tools/bench_summary.py "$BASELINES/e15_multi_tenant.json" \
    --filter 'FaultIsolation/fault_kind:2/' \
    --require p99_unaffected_ratio '<=' 1.05
# The placement gate: at a punitive interconnect premium the
# domain-aware policy must beat the best domain-oblivious stealing
# policy by 10% on p99 frame cycles, on both the penalty sweep and the
# skew sweep.
python3 tools/bench_summary.py "$BASELINES/e16_domains.json" \
    --filter 'DomainPenalty/penalty:128000/policy:3' \
    --require domain_win_vs_oblivious '>=' 1.1
python3 tools/bench_summary.py "$BASELINES/e16_domains.json" \
    --filter 'DomainSkew/hot_mult:16/policy:3' \
    --require domain_win_vs_oblivious '>=' 1.1
stage_done "bench gates"

echo "=== dead api: every out-of-line library function is kept by a binary or allowlisted ==="
python3 tools/dead_api --jobs "$JOBS"
stage_done "dead api"

echo "=== benchmark: every workload, quick, correctness and schema ==="
python3 benchmark/run.py --quick
# The traced run is the only one that checks the DMA observer stream
# against the counters and self-checks the per-layer metric schema.
python3 benchmark/run.py --quick --trace 1
stage_done benchmark

echo "=== asan+ubsan: configure + build + ctest ==="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DOMM_SANITIZE=ON
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan -LE soak --output-on-failure -j "$JOBS"
stage_done asan+ubsan

echo "=== soak: fault-injection endurance under asan+ubsan ==="
ctest --test-dir build-asan -L soak --output-on-failure -j "$JOBS"
stage_done soak

echo "=== all green ==="
