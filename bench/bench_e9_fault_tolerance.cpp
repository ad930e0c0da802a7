//===- bench/bench_e9_fault_tolerance.cpp - Experiment E9 -----------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// E9: the price of surviving. Section 4 of the paper reports that the
// console titles' offload schedulers had to tolerate flaky DMA paths and
// cores being reclaimed by the OS mid-frame; the engineering question is
// how much frame time graceful recovery costs as the fault rate grows.
//
// Two sweeps on the parallel-AI frame schedule, and one row on the
// resident schedule:
//   - fault_rate: seeded random DMA rejections/delays and accelerator
//     deaths at increasing rates (argument is parts-per-million);
//   - killed_accels: K of 6 accelerators deterministically killed at
//     their first launch of the measured frame;
//   - resident killed_accels:6: every core dies at its first launch,
//     so the resident pool opens empty and the host runs every chunk
//     (the host fallback's price per chunk).
//
// Every configuration checks the recovered frames are bit-identical to a
// fault-free run — a wrong answer aborts the benchmark. Expected shape:
// frame time grows smoothly with fault rate and with dead cores (toward
// the host-only frame as the machine empties); it never cliffs or
// crashes.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "game/GameWorld.h"

#include <cstdio>
#include <cstdlib>

using namespace omm::bench;
using namespace omm::game;
using namespace omm::sim;

namespace {

constexpr int Frames = 3;

GameWorldParams worldParams() {
  GameWorldParams Params;
  Params.NumEntities = 1000;
  Params.Seed = 0xE9;
  // Heavy AI (E2's "AI dominates" configuration): the offloaded stage is
  // the frame's critical path, so injected stalls and failovers show up
  // in frame time instead of hiding in schedule slack.
  Params.Ai.CyclesPerNode = 240;
  return Params;
}

struct FrameRun {
  uint64_t Checksum = 0;
  uint64_t Cycles = 0;
  PerfCounters Totals;
};

enum class Schedule { Parallel, Resident };

/// Runs the measured frames on \p Cfg, with accelerators 0..Killed-1
/// scheduled to die at their first launch.
FrameRun runFrames(const MachineConfig &Cfg,
                   Schedule Sched = Schedule::Parallel, int64_t Killed = 0) {
  Machine M(Cfg);
  for (int64_t A = 0; A != Killed; ++A)
    M.faults()->scheduleKill(static_cast<unsigned>(A), 0);
  GameWorld World(M, worldParams());
  uint64_t Begin = M.globalTime();
  for (int I = 0; I != Frames; ++I) {
    if (Sched == Schedule::Resident)
      World.doFrameOffloadAiResident();
    else
      World.doFrameOffloadAiParallel();
  }
  FrameRun Run;
  Run.Checksum = World.checksum();
  Run.Cycles = M.globalTime() - Begin;
  Run.Totals = M.hostCounters();
  for (unsigned A = 0; A != M.numAccelerators(); ++A)
    Run.Totals.merge(M.accel(A).Counters);
  return Run;
}

void requireBitIdentical(const FrameRun &Faulty, const FrameRun &Clean,
                         const char *Sweep, int64_t Arg) {
  if (Faulty.Checksum == Clean.Checksum)
    return;
  std::fprintf(stderr,
               "FATAL: %s arg %lld: recovered frames diverged from the "
               "fault-free run (%llx != %llx)\n",
               Sweep, static_cast<long long>(Arg),
               static_cast<unsigned long long>(Faulty.Checksum),
               static_cast<unsigned long long>(Clean.Checksum));
  std::abort();
}

void reportRecoveryCounters(benchmark::State &State, const FrameRun &Run,
                            const FrameRun &Clean) {
  State.counters["overhead_pct"] =
      100.0 * (static_cast<double>(Run.Cycles) /
                   static_cast<double>(Clean.Cycles) -
               1.0);
  State.counters["dma_retries"] =
      static_cast<double>(Run.Totals.DmaRetries) / Frames;
  State.counters["delayed_xfers"] =
      static_cast<double>(Run.Totals.DmaDelayedTransfers) / Frames;
  State.counters["launch_faults"] =
      static_cast<double>(Run.Totals.LaunchFaults) / Frames;
  State.counters["accels_lost"] =
      static_cast<double>(Run.Totals.AcceleratorsLost);
  State.counters["failover_chunks"] =
      static_cast<double>(Run.Totals.FailoverChunks) / Frames;
  State.counters["host_chunks"] =
      static_cast<double>(Run.Totals.HostFallbackChunks) / Frames;
}

/// Sweep seeded random fault rates. The argument is the DMA fail/delay
/// probability in parts-per-million; accelerator death runs at a tenth
/// of it (deaths are rarer but far more expensive than rejections).
void BM_FaultRateSweep(benchmark::State &State) {
  int64_t Ppm = State.range(0);

  MachineConfig Clean = MachineConfig::cellLike();
  MachineConfig Faulty = MachineConfig::cellLike();
  Faulty.Faults.Enabled = true;
  Faulty.Faults.Seed = 0xE9E9;
  Faulty.Faults.DmaFailRate = static_cast<float>(Ppm) * 1e-6f;
  Faulty.Faults.DmaDelayRate = static_cast<float>(Ppm) * 1e-6f;
  Faulty.Faults.AccelDeathRate = static_cast<float>(Ppm) * 1e-7f;

  for (auto _ : State) {
    FrameRun Reference = runFrames(Clean);
    FrameRun Injected = runFrames(Faulty);
    requireBitIdentical(Injected, Reference, "fault_rate", Ppm);
    reportSimCycles(State, Injected.Cycles / Frames);
    reportRecoveryCounters(State, Injected, Reference);
  }
}

/// Kill K of the 6 accelerators at their first launch of the run: the
/// schedule starts whole, loses K cores mid-frame, and finishes the
/// remaining frames on whatever survived. Priced against the same
/// schedule's fault-free run.
void runKilledRow(benchmark::State &State, Schedule Sched,
                  const char *Sweep) {
  int64_t Killed = State.range(0);

  MachineConfig Clean = MachineConfig::cellLike();
  MachineConfig Faulty = MachineConfig::cellLike();
  Faulty.Faults.Enabled = true; // All rates zero: only scheduled kills.
  Faulty.Faults.Seed = 0xE9E9;

  for (auto _ : State) {
    FrameRun Reference = runFrames(Clean, Sched);
    FrameRun Injected = runFrames(Faulty, Sched, Killed);
    requireBitIdentical(Injected, Reference, Sweep, Killed);
    reportSimCycles(State, Injected.Cycles / Frames);
    reportRecoveryCounters(State, Injected, Reference);
  }
}

void BM_KilledAccelerators(benchmark::State &State) {
  runKilledRow(State, Schedule::Parallel, "killed_accels");
}

/// The resident schedule: at K = 6 no worker ever opens, so every chunk
/// of every frame is a host-fallback chunk.
void BM_ResidentKilledAccelerators(benchmark::State &State) {
  runKilledRow(State, Schedule::Resident, "resident_killed_accels");
}

} // namespace

BENCHMARK(BM_FaultRateSweep)
    ->ArgName("fault_ppm")
    ->Arg(0) // Injector armed but silent: must match clean exactly.
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(50000)
    ->Arg(200000)
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });

BENCHMARK(BM_KilledAccelerators)
    ->ArgName("killed_accels")
    ->DenseRange(0, 6, 1)
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });

BENCHMARK(BM_ResidentKilledAccelerators)
    ->ArgName("killed_accels")
    ->Arg(6)
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });
