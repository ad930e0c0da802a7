//===- bench/BenchUtil.h - Shared benchmark helpers ------------*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Conventions for the experiment benchmarks (EXPERIMENTS.md):
///
///   - Every benchmark runs the *simulated* workload and reports
///     simulated cycles, not wall time. reportSimCycles() feeds the
///     cycle count through google-benchmark's manual-time channel, so
///     the "Time" column reads in simulated cycles (displayed as
///     seconds: 1 s == 1 cycle), and also exposes a `sim_cycles`
///     counter.
///   - Workloads are seeded and deterministic; repeated runs print
///     identical numbers.
///   - Every row is *independent*: a benchmark body may only read
///     state it computes itself (per-row reference runs like E10's
///     launch-per-chunk baseline, or process-local lazily computed
///     references like E11's clean-run calibration are fine — they
///     reproduce identically in any process). No row may observe
///     whether, or in what order, other rows ran, so a --filter subset
///     run prints each row exactly as the full sweep does. The
///     bench_cli_test ctest enforces this on E11, whose rows share
///     that lazy calibration.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_BENCH_BENCHUTIL_H
#define OMM_BENCH_BENCHUTIL_H

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace omm::bench {

/// Path the user asked Chrome traces to be written to (--trace=PATH or
/// OMM_TRACE=PATH), or empty when tracing is off. Benches that support
/// tracing attach a trace::TraceRecorder to a representative
/// configuration and write the trace here (see bench_e2_offload_frame).
const std::string &traceOutputPath();

/// Records one simulated-cycle measurement for this iteration.
inline void reportSimCycles(benchmark::State &State, uint64_t Cycles) {
  State.SetIterationTime(static_cast<double>(Cycles));
  State.counters["sim_cycles"] = static_cast<double>(Cycles);
}

/// Nearest-rank percentile over \p Samples (copied; the caller keeps
/// its order). Empty input yields 0.
inline uint64_t cyclePercentile(std::vector<uint64_t> Samples,
                                double Percentile) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  double Rank = Percentile / 100.0 * static_cast<double>(Samples.size());
  size_t Index = Rank <= 1.0 ? 0 : static_cast<size_t>(Rank + 0.999999) - 1;
  return Samples[std::min(Index, Samples.size() - 1)];
}

/// Reports p50/p95/p99 cycle percentiles over per-repeat samples (e.g.
/// one entry per simulated frame). Rows without repeats get identical
/// percentiles synthesized from sim_cycles by BenchMain, so every
/// BENCH_*.json row carries all three.
inline void reportCyclePercentiles(benchmark::State &State,
                                   const std::vector<uint64_t> &Samples) {
  State.counters["p50_cycles"] =
      static_cast<double>(cyclePercentile(Samples, 50.0));
  State.counters["p95_cycles"] =
      static_cast<double>(cyclePercentile(Samples, 95.0));
  State.counters["p99_cycles"] =
      static_cast<double>(cyclePercentile(Samples, 99.0));
}

/// Reports a row's 64-bit world/run checksum as a `checksum` counter,
/// folded to the 32 bits a JSON double carries exactly. The benches
/// already abort on any internal checksum divergence; exporting the
/// value also puts the row's world state into its committed baseline,
/// so a snapshot diff names a behaviour change even where the cycle
/// counts happen to agree.
inline void reportChecksum(benchmark::State &State, uint64_t Checksum) {
  State.counters["checksum"] = static_cast<double>(
      static_cast<uint32_t>(Checksum ^ (Checksum >> 32)));
}

/// Standard registration: one iteration (the simulator is
/// deterministic — re-running cannot change the answer), manual time.
inline benchmark::internal::Benchmark *simBench(
    benchmark::internal::Benchmark *B) {
  return B->UseManualTime()->Iterations(1)->Unit(benchmark::kSecond);
}

} // namespace omm::bench

#endif // OMM_BENCH_BENCHUTIL_H
