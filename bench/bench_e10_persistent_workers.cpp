//===- bench/bench_e10_persistent_workers.cpp - Experiment E10 ------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// E10: what persistent workers buy. Section 4's offload model pays a
// full launch per block, which forces coarse chunks; the resident-worker
// runtime (offload/ResidentWorker.h) launches each core once and then
// feeds it work descriptors through a mailbox, so fine-grained chunks
// cost a doorbell write instead of a launch.
//
// Sweeps (all on an irregular per-item workload — every 8th item is
// ~17x the cost of the rest, so fine chunks genuinely load-balance
// better):
//   - chunk_elems, launch-per-chunk: one offloadBlock per chunk on the
//     least-busy core — the pre-PR runtime's cost shape;
//   - chunk_elems, persistent: the same chunks through the mailboxes,
//     reporting speedup_vs_launch measured against the row above;
//   - adaptive floor: guided self-scheduling on top of the mailboxes;
//   - workers 1..6 at a fine chunk;
//   - killed_workers: K resident workers die on their second descriptor
//     pop; their mailboxes drain back to the queue.
//
// Every configuration checks the output array against host-computed
// expected values — a wrong answer aborts the benchmark. Expected
// shape: at the finest chunks persistent dispatch is >= 2x the
// launch-per-chunk runtime and the gap closes as chunks coarsen
// (the crossover EXPERIMENTS.md tabulates).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "offload/JobQueue.h"
#include "offload/Offload.h"
#include "offload/Ptr.h"
#include "sim/FaultInjector.h"
#include "support/Random.h"

#include <algorithm>

using namespace omm::bench;
using namespace omm::offload;
using namespace omm::sim;
using omm::splitMix64;

namespace {

constexpr uint32_t Count = 2048;

constexpr uint64_t ItemSeed = 0xE10;

/// What every row's output array must checksum to, and its name.
constexpr uint64_t Expected = expectedChecksum(ItemSeed, Count);
constexpr const char *HostValues = "the host-computed values";

/// Irregular work: every 8th item (hash-selected, not striped) costs
/// ~17x the baseline, so chunk granularity decides load balance.
uint64_t itemCost(uint32_t I) {
  return (splitMix64(I) & 7) == 0 ? 2000 : 120;
}

struct RunOut {
  uint64_t Cycles = 0;
  uint64_t Checksum = 0;
  RegionStats Stats;
};

/// pickAccelerator restricted to the first \p Workers cores, so the
/// launch-per-chunk baseline and the capped pool fight over the same
/// machine slice.
unsigned pickAmong(Machine &M, unsigned Workers) {
  unsigned Best = NoAccelerator;
  uint64_t BestFree = UINT64_MAX;
  unsigned Limit = std::min(Workers, M.numAccelerators());
  for (unsigned I = 0; I != Limit; ++I) {
    Accelerator &Accel = M.accel(I);
    if (Accel.Alive && Accel.FreeAt < BestFree) {
      BestFree = Accel.FreeAt;
      Best = I;
    }
  }
  return Best;
}

/// The pre-PR cost shape: one offloadBlock (full launch) per chunk,
/// overlapped across the worker set, joined at the end.
RunOut runLaunchPerChunk(uint32_t Chunk, unsigned Workers = ~0u) {
  Machine M;
  OuterPtr<uint64_t> Data = allocOuterArray<uint64_t>(M, Count);
  uint64_t Begin = M.globalTime();
  OffloadGroup Group;
  for (uint32_t B = 0; B < Count; B += Chunk) {
    uint32_t E = std::min(B + Chunk, Count);
    Group.launchOn(M, pickAmong(M, Workers), [&, B, E](OffloadContext &Ctx) {
      for (uint32_t I = B; I != E; ++I) {
        Ctx.compute(itemCost(I));
        Ctx.outerWrite((Data + I).addr(), itemValue(ItemSeed, I));
      }
    });
  }
  Group.joinAll(M);
  RunOut Run;
  Run.Cycles = M.globalTime() - Begin;
  Run.Stats.Launches = static_cast<uint32_t>((Count + Chunk - 1) / Chunk);
  Run.Checksum = readChecksum(M, Data, Count);
  return Run;
}

/// The same chunks through resident workers' mailboxes. \p KilledWorkers
/// cores die on their second descriptor pop (mailbox drains back).
RunOut runPersistent(uint32_t Chunk, unsigned Workers = ~0u,
                     bool Adaptive = false, unsigned KilledWorkers = 0) {
  MachineConfig Cfg;
  if (KilledWorkers != 0)
    Cfg.Faults.Enabled = true; // Rates stay 0.0; only scheduled kills.
  Machine M(Cfg);
  for (unsigned A = 0; A != KilledWorkers; ++A)
    M.faults()->scheduleChunkKill(A, 1);
  OuterPtr<uint64_t> Data = allocOuterArray<uint64_t>(M, Count);
  uint64_t Begin = M.globalTime();
  JobQueueOptions Opts;
  Opts.ChunkSize = Chunk;
  Opts.MaxWorkers = Workers;
  Opts.Adaptive = Adaptive;
  RunOut Run;
  Run.Stats = distributeJobs(
      M, Count, Opts, [&](auto &Ctx, uint32_t B, uint32_t E) {
        for (uint32_t I = B; I != E; ++I) {
          Ctx.compute(itemCost(I));
          Ctx.outerWrite((Data + I).addr(), itemValue(ItemSeed, I));
        }
      });
  Run.Cycles = M.globalTime() - Begin;
  Run.Checksum = readChecksum(M, Data, Count);
  return Run;
}

void reportMailboxCounters(benchmark::State &State, const RunOut &Run) {
  State.counters["descriptors"] =
      static_cast<double>(Run.Stats.Counters.DescriptorsDispatched);
  State.counters["launches_saved"] =
      static_cast<double>(Run.Stats.launchesSaved());
  State.counters["doorbell_cycles"] =
      static_cast<double>(Run.Stats.Counters.DoorbellCycles);
  State.counters["idle_poll_cycles"] =
      static_cast<double>(Run.Stats.Counters.IdlePollCycles);
}

void BM_LaunchPerChunk(benchmark::State &State) {
  uint32_t Chunk = static_cast<uint32_t>(State.range(0));
  for (auto _ : State) {
    RunOut Run = runLaunchPerChunk(Chunk);
    requireChecksum(Run.Checksum, Expected, "launch_per_chunk", Chunk,
                    HostValues);
    reportSimCycles(State, Run.Cycles);
    reportChecksum(State, Run.Checksum);
    State.counters["launches"] = static_cast<double>(Run.Stats.Launches);
  }
}

void BM_PersistentWorkers(benchmark::State &State) {
  uint32_t Chunk = static_cast<uint32_t>(State.range(0));
  for (auto _ : State) {
    RunOut Baseline = runLaunchPerChunk(Chunk);
    RunOut Run = runPersistent(Chunk);
    requireChecksum(Baseline.Checksum, Expected, "launch_per_chunk", Chunk,
                    HostValues);
    requireChecksum(Run.Checksum, Expected, "persistent", Chunk, HostValues);
    reportSimCycles(State, Run.Cycles);
    reportChecksum(State, Run.Checksum);
    reportMailboxCounters(State, Run);
    State.counters["speedup_vs_launch"] =
        static_cast<double>(Baseline.Cycles) /
        static_cast<double>(Run.Cycles);
  }
}

void BM_AdaptiveChunking(benchmark::State &State) {
  uint32_t Floor = static_cast<uint32_t>(State.range(0));
  for (auto _ : State) {
    RunOut Fixed = runPersistent(Floor);
    RunOut Run = runPersistent(Floor, ~0u, /*Adaptive=*/true);
    requireChecksum(Run.Checksum, Expected, "adaptive", Floor, HostValues);
    reportSimCycles(State, Run.Cycles);
    reportChecksum(State, Run.Checksum);
    reportMailboxCounters(State, Run);
    State.counters["speedup_vs_fixed"] =
        static_cast<double>(Fixed.Cycles) / static_cast<double>(Run.Cycles);
  }
}

void BM_WorkerSweep(benchmark::State &State) {
  unsigned Workers = static_cast<unsigned>(State.range(0));
  constexpr uint32_t Chunk = 4;
  for (auto _ : State) {
    RunOut Baseline = runLaunchPerChunk(Chunk, Workers);
    RunOut Run = runPersistent(Chunk, Workers);
    requireChecksum(Run.Checksum, Expected, "workers", Workers, HostValues);
    reportSimCycles(State, Run.Cycles);
    reportChecksum(State, Run.Checksum);
    reportMailboxCounters(State, Run);
    State.counters["speedup_vs_launch"] =
        static_cast<double>(Baseline.Cycles) /
        static_cast<double>(Run.Cycles);
  }
}

void BM_KilledWorkers(benchmark::State &State) {
  unsigned Killed = static_cast<unsigned>(State.range(0));
  constexpr uint32_t Chunk = 4;
  for (auto _ : State) {
    RunOut Clean = runPersistent(Chunk);
    RunOut Run = runPersistent(Chunk, ~0u, false, Killed);
    requireChecksum(Run.Checksum, Expected, "killed_workers", Killed,
                    HostValues);
    reportSimCycles(State, Run.Cycles);
    reportChecksum(State, Run.Checksum);
    reportMailboxCounters(State, Run);
    State.counters["overhead_pct"] =
        100.0 * (static_cast<double>(Run.Cycles) /
                     static_cast<double>(Clean.Cycles) -
                 1.0);
    State.counters["requeued"] =
        static_cast<double>(Run.Stats.RequeuedDescriptors);
    State.counters["dead_workers"] =
        static_cast<double>(Run.Stats.DeadWorkers);
  }
}

} // namespace

BENCHMARK(BM_LaunchPerChunk)
    ->ArgName("chunk_elems")
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(64)
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });

BENCHMARK(BM_PersistentWorkers)
    ->ArgName("chunk_elems")
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(64)
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });

BENCHMARK(BM_AdaptiveChunking)
    ->ArgName("floor_elems")
    ->Arg(1)->Arg(4)->Arg(16)
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });

BENCHMARK(BM_WorkerSweep)
    ->ArgName("workers")
    ->DenseRange(1, 6, 1)
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });

BENCHMARK(BM_KilledWorkers)
    ->ArgName("killed_workers")
    ->DenseRange(0, 3, 1)
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });
