//===- tests/parcel_test.cpp - Worker-to-worker parcel dispatch ------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// The parcel layer's contract, asserted:
//   - a staged dataflow region runs every stage of every shard exactly
//     once, in stage order per shard, under every recipient policy;
//   - parcel costs land on the spawner's clock and counters — the host
//     pays doorbells only for the stage-1 seeds it dispatched;
//   - parcels sitting undelivered in a dead recipient's mailbox drain
//     back through the ordinary recovery path and run exactly once,
//     bit-identical to the fault-free run;
//   - a dataflow region never steals: every steal policy replays the
//     StealPolicy::None run cycle for cycle;
//   - with one stage (or ParcelPolicy::None) the driver is the plain
//     host-paced job queue, cycle for cycle — the bit-identity spine;
//   - GameWorld's staged and dataflow frame schedules compute the same
//     world, and the dataflow frame is cheaper once enough workers
//     exist to pipeline the stages;
//   - the accelerator shard stages (bulk-staged through local store)
//     and their host-fallback instantiation (per-entity host accesses)
//     compute the same world, and each accelerator stage moves its
//     shard with one bulk get and one bulk put.
//
//===----------------------------------------------------------------------===//

#include "offload/Parcel.h"

#include "game/GameWorld.h"
#include "offload/JobQueue.h"
#include "offload/Ptr.h"
#include "sim/FaultInjector.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <vector>

using namespace omm;
using namespace omm::offload;
using namespace omm::sim;

namespace {

constexpr uint32_t Count = 96;
constexpr uint32_t ChunkSize = 16;
constexpr uint32_t NumShards = Count / ChunkSize;
constexpr uint16_t NumStages = 3;

/// The reference three-stage pipeline over an outer uint64_t array:
/// stage order is detectable per index (the stages do not commute).
uint64_t stageValue(uint16_t Kernel, uint64_t V, uint32_t I) {
  switch (Kernel) {
  case 1:
    return uint64_t(I) * 7 + 3;
  case 2:
    return V * 3 + 1;
  default:
    return V ^ 0x5555555555555555ull;
  }
}

/// Runs the pipeline through runDataflow, asserting per-shard stage
/// order and exactly-once execution as it goes. \returns the final
/// array contents through \p Data.
RegionStats runPipeline(Machine &M, ParcelPolicy Policy,
                        std::vector<uint64_t> &Out) {
  OuterPtr<uint64_t> Data = allocOuterArray<uint64_t>(M, Count);
  std::vector<uint16_t> NextStage(NumShards, 1);
  DataflowOptions Opts;
  Opts.ChunkSize = ChunkSize;
  Opts.NumStages = NumStages;
  Opts.Policy = Policy;
  RegionStats Stats = runDataflow(
      M, Count, Opts, [&](auto &Ctx, const WorkDescriptor &Desc) {
        uint32_t Shard = Desc.Begin / ChunkSize;
        EXPECT_EQ(Desc.Kernel, NextStage[Shard])
            << "shard " << Shard << " ran stages out of order";
        ++NextStage[Shard];
        Ctx.compute((Desc.End - Desc.Begin) * 50);
        for (uint32_t I = Desc.Begin; I != Desc.End; ++I) {
          GlobalAddr At = (Data + I).addr();
          Ctx.outerWrite(
              At, stageValue(Desc.Kernel,
                             Ctx.template outerRead<uint64_t>(At), I));
        }
      });
  for (uint32_t Shard = 0; Shard != NumShards; ++Shard)
    EXPECT_EQ(NextStage[Shard], NumStages + 1)
        << "shard " << Shard << " did not run every stage exactly once";
  Out.resize(Count);
  for (uint32_t I = 0; I != Count; ++I)
    Out[I] = M.hostRead<uint64_t>((Data + I).addr());
  return Stats;
}

std::vector<uint64_t> referenceValues() {
  std::vector<uint64_t> Ref(Count, 0);
  for (uint16_t K = 1; K <= NumStages; ++K)
    for (uint32_t I = 0; I != Count; ++I)
      Ref[I] = stageValue(K, Ref[I], I);
  return Ref;
}

} // namespace

TEST(Parcel, EveryPolicyRunsEveryStageInOrderExactlyOnce) {
  std::vector<uint64_t> Ref = referenceValues();
  for (ParcelPolicy Policy : {ParcelPolicy::Ring, ParcelPolicy::LeastLoaded}) {
    Machine M;
    std::vector<uint64_t> Out;
    RegionStats Stats = runPipeline(M, Policy, Out);
    EXPECT_EQ(Out, Ref) << "policy " << static_cast<int>(Policy);
    // Fault-free, every dispatched descriptor is a seed or a parcel:
    // the host seeded each shard exactly once.
    EXPECT_EQ(Stats.Counters.DescriptorsDispatched -
                  Stats.Counters.ParcelsSpawned,
              NumShards);
    // Stages 2 and 3 of every shard arrived as parcels, never through
    // the host: one deleted round trip each.
    EXPECT_EQ(Stats.Counters.ParcelsSpawned,
              uint64_t(NumShards) * (NumStages - 1));
    EXPECT_EQ(Stats.HostChunks, 0u);
  }
}

TEST(Parcel, SpawnCostsLandOnWorkerClocksNotTheHost) {
  Machine M;
  std::vector<uint64_t> Out;
  RegionStats Stats = runPipeline(M, ParcelPolicy::Ring, Out);

  // Every spawn pays the peer doorbell plus the descriptor copy, on the
  // spawner's clock; the per-worker counters add up to the region's.
  const MachineConfig &Cfg = M.config();
  uint64_t ExpectedCost = Stats.Counters.ParcelsSpawned *
                          (Cfg.PeerDoorbellCycles +
                           Cfg.PeerDescriptorDmaCycles);
  EXPECT_EQ(Stats.Counters.PeerDoorbellCycles, ExpectedCost);
  uint64_t WorkerParcels = 0, WorkerPeerCycles = 0;
  for (unsigned A = 0; A != M.numAccelerators(); ++A) {
    WorkerParcels += M.accel(A).Counters.ParcelsSpawned;
    WorkerPeerCycles += M.accel(A).Counters.PeerDoorbellCycles;
  }
  EXPECT_EQ(WorkerParcels, Stats.Counters.ParcelsSpawned);
  EXPECT_EQ(WorkerPeerCycles, Stats.Counters.PeerDoorbellCycles);

  // The host paid ordinary doorbells for the seeds it dispatched and
  // nothing for the continuations.
  EXPECT_EQ(M.hostCounters().ParcelsSpawned, 0u);
  EXPECT_EQ(M.hostCounters().PeerDoorbellCycles, 0u);
  EXPECT_EQ(M.hostCounters().DoorbellCycles,
            uint64_t(NumShards) * Cfg.MailboxDoorbellCycles);
}

TEST(Parcel, NonePolicyWithStagesRunsOnlyStageOne) {
  // ParcelPolicy::None is the bit-identity escape hatch, not a
  // schedule: no continuation is ever attached, so only the seeded
  // stage runs.
  Machine M;
  OuterPtr<uint64_t> Data = allocOuterArray<uint64_t>(M, Count);
  std::vector<uint32_t> StageRuns(NumStages + 1, 0);
  DataflowOptions Opts;
  Opts.ChunkSize = ChunkSize;
  Opts.NumStages = NumStages;
  Opts.Policy = ParcelPolicy::None;
  RegionStats Stats = runDataflow(
      M, Count, Opts, [&](auto &Ctx, const WorkDescriptor &Desc) {
        ++StageRuns[Desc.Kernel];
        Ctx.compute(10);
        (void)Data;
      });
  EXPECT_EQ(StageRuns[1], NumShards);
  EXPECT_EQ(StageRuns[2], 0u);
  EXPECT_EQ(StageRuns[3], 0u);
  EXPECT_EQ(Stats.Counters.ParcelsSpawned, 0u);
}

TEST(Parcel, DeadRecipientsParcelsRedeliverExactlyOnce) {
  // Kill workers at chunk boundaries mid-region: parcels already
  // delivered into a dead worker's mailbox — plus whatever it had
  // popped — drain back through the ordinary orphan path and run
  // exactly once, so the array is bit-identical to the fault-free run.
  std::vector<uint64_t> Ref = referenceValues();
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    MachineConfig Cfg = MachineConfig::cellLike();
    Cfg.Faults.Enabled = true;
    Cfg.Faults.Seed = Seed;
    Machine M(Cfg);
    SplitMix64 Rng(Seed);
    // Each worker only pops ~3 descriptors here, so keep the scheduled
    // kill indices low enough to actually fire.
    M.faults()->scheduleChunkKill(Rng.nextBelow(M.numAccelerators()),
                                  Rng.nextBelow(2));
    M.faults()->scheduleChunkKill(Rng.nextBelow(M.numAccelerators()),
                                  Rng.nextBelow(2));
    std::vector<uint64_t> Out;
    RegionStats Stats = runPipeline(M, ParcelPolicy::Ring, Out);
    EXPECT_EQ(Out, Ref) << "seed " << Seed;
    EXPECT_GT(Stats.DeadWorkers, 0u) << "seed " << Seed;
  }
}

TEST(Parcel, FaultScheduleReplaysCycleForCycle) {
  uint64_t Makespan[2], Requeued[2];
  for (int Run = 0; Run != 2; ++Run) {
    MachineConfig Cfg = MachineConfig::cellLike();
    Cfg.Faults.Enabled = true;
    Cfg.Faults.Seed = 11;
    Machine M(Cfg);
    M.faults()->scheduleChunkKill(1, 2);
    std::vector<uint64_t> Out;
    RegionStats Stats = runPipeline(M, ParcelPolicy::LeastLoaded, Out);
    Makespan[Run] = Stats.MakespanCycles;
    Requeued[Run] = Stats.RequeuedDescriptors;
  }
  EXPECT_EQ(Makespan[0], Makespan[1]);
  EXPECT_EQ(Requeued[0], Requeued[1]);
}

TEST(Parcel, DataflowIgnoresTheStealPolicy) {
  // runDataflow shares the pool's drain with the stealing drivers but
  // never steals: whatever the machine's steal policy, a region with a
  // worker death replays the StealPolicy::None run cycle for cycle.
  auto Run = [](StealPolicy Steal, std::vector<uint64_t> &Out) {
    MachineConfig Cfg = MachineConfig::cellLike();
    Cfg.WorkStealing = Steal;
    Cfg.Faults.Enabled = true;
    Machine M(Cfg);
    M.faults()->scheduleChunkKill(1, 1);
    return runPipeline(M, ParcelPolicy::Ring, Out);
  };
  std::vector<uint64_t> NoneOut;
  RegionStats None = Run(StealPolicy::None, NoneOut);
  EXPECT_EQ(None.DeadWorkers, 1u);
  EXPECT_EQ(NoneOut, referenceValues());
  for (StealPolicy Steal : {StealPolicy::Rotation, StealPolicy::LocalityAware,
                            StealPolicy::DomainAware}) {
    std::vector<uint64_t> Out;
    RegionStats Stats = Run(Steal, Out);
    EXPECT_EQ(Stats.MakespanCycles, None.MakespanCycles)
        << "policy " << static_cast<int>(Steal);
    EXPECT_EQ(Stats.Counters, None.Counters)
        << "policy " << static_cast<int>(Steal);
    EXPECT_EQ(Stats.Counters.StealsAttempted, 0u)
        << "policy " << static_cast<int>(Steal);
    EXPECT_EQ(Out, NoneOut) << "policy " << static_cast<int>(Steal);
  }
}

TEST(Parcel, HostRunsTheWholeChainWhenNoWorkerExists) {
  // Zero accelerators: every chain runs host-side, stage order intact.
  MachineConfig Cfg;
  Cfg.NumAccelerators = 0;
  Machine M(Cfg);
  std::vector<uint64_t> Out;
  RegionStats Stats = runPipeline(M, ParcelPolicy::Ring, Out);
  EXPECT_EQ(Out, referenceValues());
  EXPECT_EQ(Stats.HostChunks, NumShards * NumStages);
  EXPECT_EQ(Stats.Counters.ParcelsSpawned, 0u);
}

namespace {

/// One single-stage schedule through either driver, for the
/// bit-identity comparison. \returns the machine's final host clock.
template <typename RunFn>
uint64_t runSingleStage(const MachineConfig &Cfg, uint64_t KillSeed,
                        std::vector<uint64_t> &Out, RunFn &&Run) {
  Machine M(Cfg);
  if (KillSeed != 0 && M.faults()) {
    SplitMix64 Rng(KillSeed);
    M.faults()->scheduleChunkKill(Rng.nextBelow(M.numAccelerators()),
                                  Rng.nextBelow(4));
  }
  OuterPtr<uint64_t> Data = allocOuterArray<uint64_t>(M, Count);
  Run(M, Data);
  Out.resize(Count);
  for (uint32_t I = 0; I != Count; ++I)
    Out[I] = M.hostRead<uint64_t>((Data + I).addr());
  return M.hostClock().now();
}

} // namespace

TEST(Parcel, SingleStageDataflowIsThePlainJobQueueCycleForCycle) {
  // One stage means no continuations, and the driver must then BE
  // distributeJobs — same clocks, same results, even mid-recovery.
  for (uint64_t KillSeed : {uint64_t(0), uint64_t(5), uint64_t(9)}) {
    MachineConfig Cfg = MachineConfig::cellLike();
    if (KillSeed != 0)
      Cfg.Faults.Enabled = true;
    std::vector<uint64_t> QueueOut, FlowOut;
    uint64_t QueueClock = runSingleStage(
        Cfg, KillSeed, QueueOut, [](Machine &M, OuterPtr<uint64_t> Data) {
          distributeJobs(M, Count, {.ChunkSize = ChunkSize},
                         [&](auto &Ctx, uint32_t Begin, uint32_t End) {
                           Ctx.compute((End - Begin) * 50);
                           for (uint32_t I = Begin; I != End; ++I)
                             Ctx.outerWrite((Data + I).addr(),
                                            uint64_t(I) * 7 + 3);
                         });
        });
    uint64_t FlowClock = runSingleStage(
        Cfg, KillSeed, FlowOut, [](Machine &M, OuterPtr<uint64_t> Data) {
          DataflowOptions Opts;
          Opts.ChunkSize = ChunkSize;
          Opts.NumStages = 1;
          runDataflow(M, Count, Opts,
                      [&](auto &Ctx, const WorkDescriptor &Desc) {
                        Ctx.compute((Desc.End - Desc.Begin) * 50);
                        for (uint32_t I = Desc.Begin; I != Desc.End; ++I)
                          Ctx.outerWrite((Data + I).addr(),
                                         uint64_t(I) * 7 + 3);
                      });
        });
    EXPECT_EQ(FlowOut, QueueOut) << "kill seed " << KillSeed;
    EXPECT_EQ(FlowClock, QueueClock) << "kill seed " << KillSeed;
  }
}

namespace {

game::GameWorldParams smallWorld() {
  game::GameWorldParams Params;
  Params.NumEntities = 200;
  Params.Seed = 0xF00D;
  Params.WorldHalfExtent = 30.0f;
  return Params;
}

} // namespace

TEST(Parcel, StagedAndDataflowFramesAgreeBitExactly) {
  // The dataflow frame is a pure reordering of the staged frame: same
  // shards, same float math, so the worlds must match bit for bit
  // under every recipient policy.
  for (ParcelPolicy Policy : {ParcelPolicy::Ring, ParcelPolicy::LeastLoaded}) {
    Machine MStaged, MFlow;
    game::GameWorld Staged(MStaged, smallWorld());
    game::GameWorld Flow(MFlow, smallWorld());
    for (int Frame = 0; Frame != 3; ++Frame) {
      Staged.doFrameStaged();
      PerfCounters Before = MFlow.totalCounters();
      Flow.doFrameDataflow(Policy);
      ASSERT_EQ(Staged.checksum(), Flow.checksum())
          << "policy " << static_cast<int>(Policy) << " frame " << Frame;
      EXPECT_GT(MFlow.countersSince(Before).ParcelsSpawned, 0u);
    }
  }
}

TEST(Parcel, DataflowFrameBeatsTheStagedFrame) {
  // The point of the exercise: deleting the per-stage host round trips
  // (and pipelining the stages) makes the frame cheaper.
  Machine MStaged, MFlow;
  game::GameWorld Staged(MStaged, smallWorld());
  game::GameWorld Flow(MFlow, smallWorld());
  uint64_t StagedTotal = 0, FlowTotal = 0;
  for (int Frame = 0; Frame != 3; ++Frame) {
    StagedTotal += Staged.doFrameStaged().FrameCycles;
    FlowTotal += Flow.doFrameDataflow().FrameCycles;
  }
  EXPECT_LT(FlowTotal, StagedTotal);
}

namespace {

/// Runs \p Frame on two worlds — one on the Cell-like machine, one on
/// a machine without accelerators, where every shard stage runs through
/// HostContext — and asserts equal checksums after every frame.
template <typename FrameFn>
void expectHostAndAcceleratorAgree(const char *Schedule, FrameFn &&Frame) {
  MachineConfig HostOnly = MachineConfig::cellLike();
  HostOnly.NumAccelerators = 0;
  Machine MAccel, MHost(HostOnly);
  game::GameWorld Accel(MAccel, smallWorld());
  game::GameWorld Host(MHost, smallWorld());
  for (int I = 0; I != 3; ++I) {
    Frame(Accel);
    PerfCounters Before = MHost.totalCounters();
    Frame(Host);
    EXPECT_GT(MHost.countersSince(Before).HostFallbackChunks, 0u)
        << Schedule;
    ASSERT_EQ(Accel.checksum(), Host.checksum())
        << Schedule << " frame " << I;
  }
}

} // namespace

TEST(Parcel, AcceleratorAndHostShardBodiesComputeTheSameWorld) {
  expectHostAndAcceleratorAgree(
      "staged", [](game::GameWorld &W) { return W.doFrameStaged(); });
  expectHostAndAcceleratorAgree(
      "dataflow", [](game::GameWorld &W) { return W.doFrameDataflow(); });
}

TEST(Parcel, ShardStagesMoveEachShardWithOneBulkTransfer) {
  // 200 entities in four 64-entity shards (the last one partial): three
  // stages x four shards of one bulk get and one bulk put each, plus
  // one 16-byte target-snapshot get per entity. A return to per-entity
  // transfers (800 gets, 600 puts) fails here.
  Machine MStaged, MFlow;
  game::GameWorld Staged(MStaged, smallWorld());
  game::GameWorld Flow(MFlow, smallWorld());
  ASSERT_EQ(smallWorld().StageShardElems, 64u);
  for (int Frame = 0; Frame != 2; ++Frame) {
    PerfCounters Before = MStaged.totalCounters();
    Staged.doFrameStaged();
    PerfCounters Delta = MStaged.countersSince(Before);
    EXPECT_EQ(Delta.DmaGetsIssued, 3u * 4 + 200) << "staged";
    EXPECT_EQ(Delta.DmaPutsIssued, 3u * 4) << "staged";

    Before = MFlow.totalCounters();
    Flow.doFrameDataflow();
    Delta = MFlow.countersSince(Before);
    EXPECT_EQ(Delta.DmaGetsIssued, 3u * 4 + 200) << "dataflow";
    EXPECT_EQ(Delta.DmaPutsIssued, 3u * 4) << "dataflow";
  }
}
