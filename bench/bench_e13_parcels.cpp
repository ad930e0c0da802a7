//===- bench/bench_e13_parcels.cpp - Experiment E13 -----------------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// E13: worker-to-worker parcel dispatch. The host-staged shard schedule
// (doFrameStaged) pays a full host round trip at every stage boundary —
// join on the slowest worker, re-carve the range, re-doorbell every
// shard, re-launch the pool — and every worker sits in that barrier.
// The dataflow schedule (doFrameDataflow) deletes the round trips: the
// host seeds only the first stage and each completed shard spawns its
// next stage straight into a peer worker's mailbox (Mailbox::pushParcel,
// charged to worker clocks).
//
// Sweeps:
//   - frame_schedule: workers x schedule (0=staged, 1=dataflow/Ring).
//     Dataflow rows report win_vs_staged (staged cycles / dataflow
//     cycles, > 1 is a win) and host_round_trips_eliminated — the CI
//     gate holds the win at >= 4 workers.
//   - policy: recipient selection at full worker count (2=Ring,
//     3=LeastLoaded); the CI gate holds both at win_vs_staged >= 1.0.
//     A third policy, Self (row 1: spawn into the spawner's own
//     mailbox), lost to the staged schedule at 0.999x and was removed.
//   - stage_depth: the synthetic pipeline at 1..4 stages against an
//     equivalent sequence of distributeJobs passes; the win scales with
//     the number of deleted boundaries, and depth 1 is the degenerate
//     case where both drivers are the same host-paced queue.
//   - killed_workers: K workers die at their first pops while parcels
//     are in flight; undelivered continuations drain through the
//     ordinary recovery ladder and the frame stays bit-identical.
//
// Every row is checksum-asserted (dataflow worlds against the staged
// world, synthetic pipelines against host-computed values); divergence
// aborts the benchmark. Parcels relocate stage crossings, never
// results.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "game/GameWorld.h"
#include "offload/JobQueue.h"
#include "offload/Parcel.h"
#include "offload/Ptr.h"
#include "sim/FaultInjector.h"

#include <cstdio>
#include <cstdlib>
#include <vector>

using namespace omm::bench;
using namespace omm::game;
using namespace omm::offload;
using namespace omm::sim;

namespace {

constexpr uint32_t FramesPerRow = 12;

GameWorldParams benchWorld() {
  GameWorldParams P;
  P.NumEntities = 1000;
  P.Seed = 0xE13;
  P.StageShardElems = 32;
  return P;
}

/// Row argument 2 is Ring and 3 is LeastLoaded; the numbering predates
/// the removal of the Self policy (row 1), so surviving row names hold.
ParcelPolicy policyFromArg(int64_t Arg) {
  return Arg == 3 ? ParcelPolicy::LeastLoaded : ParcelPolicy::Ring;
}

struct FrameRun {
  uint64_t TotalCycles = 0;
  std::vector<uint64_t> FrameCycles;
  uint64_t Checksum = 0;
  /// Counter delta over the whole frame loop.
  PerfCounters Counters;
  uint64_t Failovers = 0;
};

/// FramesPerRow frames of one schedule. \p Dataflow selects the parcel
/// schedule; \p Killed workers die at their first descriptor pops.
FrameRun runWorld(bool Dataflow, unsigned Workers, ParcelPolicy Policy,
                  unsigned Killed = 0) {
  MachineConfig Cfg = MachineConfig::cellLike();
  if (Killed != 0)
    Cfg.Faults.Enabled = true;
  Machine M(Cfg);
  for (unsigned A = 0; A != Killed; ++A)
    M.faults()->scheduleChunkKill(A, 1);
  GameWorld World(M, benchWorld());
  FrameRun Run;
  Run.FrameCycles.reserve(FramesPerRow);
  PerfCounters Before = M.totalCounters();
  for (uint32_t F = 0; F != FramesPerRow; ++F) {
    uint64_t Begin = M.globalTime();
    FrameStats S = Dataflow ? World.doFrameDataflow(Policy, Workers)
                            : World.doFrameStaged(Workers);
    uint64_t Cycles = M.globalTime() - Begin;
    Run.FrameCycles.push_back(Cycles);
    Run.TotalCycles += Cycles;
    Run.Failovers += S.FailoverSlices;
  }
  Run.Counters = M.countersSince(Before);
  Run.Checksum = World.checksum();
  return Run;
}

void reportParcelCounters(benchmark::State &State, const FrameRun &Run) {
  State.counters["parcels_spawned"] =
      static_cast<double>(Run.Counters.ParcelsSpawned);
  State.counters["peer_doorbell_cycles"] =
      static_cast<double>(Run.Counters.PeerDoorbellCycles);
  // Every parcel is one host round trip the staged schedule paid.
  State.counters["host_round_trips_eliminated"] =
      static_cast<double>(Run.Counters.ParcelsSpawned);
}

void reportWin(benchmark::State &State, const FrameRun &Staged,
               const FrameRun &Run) {
  State.counters["win_vs_staged"] = static_cast<double>(Staged.TotalCycles) /
                                    static_cast<double>(Run.TotalCycles);
}

void BM_FrameSchedule(benchmark::State &State) {
  unsigned Workers = static_cast<unsigned>(State.range(0));
  bool Dataflow = State.range(1) != 0;
  for (auto _ : State) {
    FrameRun Staged = runWorld(false, Workers, ParcelPolicy::Ring);
    FrameRun Run = Dataflow ? runWorld(true, Workers, ParcelPolicy::Ring)
                            : Staged;
    requireChecksum(Run.Checksum, Staged.Checksum, "frame_schedule",
                    State.range(0), "the staged world");
    reportSimCycles(State, Run.TotalCycles);
    reportChecksum(State, Run.Checksum);
    reportCyclePercentiles(State, Run.FrameCycles);
    reportParcelCounters(State, Run);
    if (Dataflow)
      reportWin(State, Staged, Run);
  }
}

void BM_Policy(benchmark::State &State) {
  ParcelPolicy Policy = policyFromArg(State.range(0));
  for (auto _ : State) {
    FrameRun Staged = runWorld(false, ~0u, Policy);
    FrameRun Run = runWorld(true, ~0u, Policy);
    requireChecksum(Run.Checksum, Staged.Checksum, "policy", State.range(0),
                    "the staged world");
    reportSimCycles(State, Run.TotalCycles);
    reportChecksum(State, Run.Checksum);
    reportCyclePercentiles(State, Run.FrameCycles);
    reportParcelCounters(State, Run);
    reportWin(State, Staged, Run);
  }
}

void BM_KilledWorkers(benchmark::State &State) {
  unsigned Killed = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    FrameRun Staged = runWorld(false, ~0u, ParcelPolicy::Ring);
    FrameRun Run = runWorld(true, ~0u, ParcelPolicy::Ring, Killed);
    requireChecksum(Run.Checksum, Staged.Checksum, "killed_workers",
                    State.range(0), "the staged world");
    reportSimCycles(State, Run.TotalCycles);
    reportChecksum(State, Run.Checksum);
    reportCyclePercentiles(State, Run.FrameCycles);
    reportParcelCounters(State, Run);
    State.counters["requeued_chunks"] = static_cast<double>(Run.Failovers);
  }
}

// --- The synthetic stage-depth pipeline -------------------------------

constexpr uint32_t PipeCount = 1024;
constexpr uint32_t PipeChunk = 32;
constexpr uint64_t PipeCostPerItem = 220;

uint64_t pipeStageValue(uint16_t Kernel, uint64_t V, uint32_t I) {
  return Kernel == 1 ? uint64_t(I) * 11 + 5 : V * 3 + Kernel;
}

uint64_t pipeExpected(uint16_t Stages, uint32_t I) {
  uint64_t V = 0;
  for (uint16_t K = 1; K <= Stages; ++K)
    V = pipeStageValue(K, V, I);
  return V;
}

struct PipeRun {
  uint64_t Cycles = 0;
  uint64_t ParcelsSpawned = 0;
  uint64_t Checksum = 0;
  bool Ok = true;
};

/// The pipeline as runDataflow, or as Stages sequential distributeJobs
/// passes — one host round trip per boundary, the thing being deleted.
PipeRun runPipeline(bool Dataflow, uint16_t Stages) {
  Machine M;
  OuterPtr<uint64_t> Data = allocOuterArray<uint64_t>(M, PipeCount);
  PipeRun Run;
  uint64_t Begin = M.globalTime();
  if (Dataflow) {
    DataflowOptions Opts;
    Opts.ChunkSize = PipeChunk;
    Opts.NumStages = Stages;
    RegionStats S = runDataflow(
        M, PipeCount, Opts, [&](auto &Ctx, const WorkDescriptor &Desc) {
          Ctx.compute((Desc.End - Desc.Begin) * PipeCostPerItem);
          for (uint32_t I = Desc.Begin; I != Desc.End; ++I) {
            GlobalAddr At = (Data + I).addr();
            Ctx.outerWrite(At,
                           pipeStageValue(
                               Desc.Kernel,
                               Ctx.template outerRead<uint64_t>(At), I));
          }
        });
    Run.ParcelsSpawned = S.Counters.ParcelsSpawned;
  } else {
    for (uint16_t K = 1; K <= Stages; ++K)
      distributeJobs(M, PipeCount, {.ChunkSize = PipeChunk},
                     [&](auto &Ctx, uint32_t B, uint32_t E) {
                       Ctx.compute((E - B) * PipeCostPerItem);
                       for (uint32_t I = B; I != E; ++I) {
                         GlobalAddr At = (Data + I).addr();
                         Ctx.outerWrite(
                             At, pipeStageValue(
                                     K, Ctx.template outerRead<uint64_t>(At),
                                     I));
                       }
                     });
  }
  Run.Cycles = M.globalTime() - Begin;
  for (uint32_t I = 0; I != PipeCount; ++I) {
    uint64_t Word = M.hostRead<uint64_t>((Data + I).addr());
    Run.Ok &= Word == pipeExpected(Stages, I);
    Run.Checksum = Run.Checksum * 1099511628211ull ^ Word;
  }
  return Run;
}

void BM_StageDepth(benchmark::State &State) {
  uint16_t Stages = static_cast<uint16_t>(State.range(0));
  for (auto _ : State) {
    PipeRun Staged = runPipeline(false, Stages);
    PipeRun Run = runPipeline(true, Stages);
    if (!Staged.Ok || !Run.Ok) {
      std::fprintf(stderr,
                   "FATAL: stage_depth %d: pipeline output diverged from "
                   "host-computed values\n",
                   static_cast<int>(Stages));
      std::abort();
    }
    reportSimCycles(State, Run.Cycles);
    reportChecksum(State, Run.Checksum);
    State.counters["parcels_spawned"] =
        static_cast<double>(Run.ParcelsSpawned);
    State.counters["host_round_trips_eliminated"] =
        static_cast<double>(Run.ParcelsSpawned);
    State.counters["win_vs_staged"] = static_cast<double>(Staged.Cycles) /
                                      static_cast<double>(Run.Cycles);
  }
}

} // namespace

BENCHMARK(BM_FrameSchedule)
    ->ArgNames({"workers", "dataflow"})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({6, 0})
    ->Args({6, 1})
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });

BENCHMARK(BM_Policy)
    ->ArgName("policy")
    ->Arg(2)
    ->Arg(3)
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });

BENCHMARK(BM_StageDepth)
    ->ArgName("stages")
    ->DenseRange(1, 4, 1)
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });

BENCHMARK(BM_KilledWorkers)
    ->ArgName("killed_workers")
    ->DenseRange(0, 3, 1)
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });
