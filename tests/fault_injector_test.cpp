//===- tests/fault_injector_test.cpp - Fault injection & recovery ----------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// The fault subsystem's contract, asserted:
//   - an attached-but-idle injector (all rates zero) is invisible: every
//     clock and every counter is bit-identical to a machine without one;
//   - recovery never changes results: frames and distributed runs under
//     injection compute bit-identical state to fault-free runs;
//   - the degenerate machines (zero accelerators, MaxWorkers == 0, all
//     cores dead) complete on the host instead of crashing;
//   - faults are observable: counters, RegionStats/FrameStats fields and
//     trace fault events all report what the runtime recovered from.
//
//===----------------------------------------------------------------------===//

#include "sim/FaultInjector.h"

#include "game/GameWorld.h"
#include "offload/JobQueue.h"
#include "offload/Offload.h"
#include "offload/ParallelFor.h"
#include "offload/Ptr.h"
#include "trace/TraceRecorder.h"

#include <gtest/gtest.h>

#include <vector>

using namespace omm;
using namespace omm::game;
using namespace omm::offload;
using namespace omm::sim;

namespace {

/// Field-by-field equality of two counter sets (EXPECT per field so a
/// mismatch names the counter).
void expectCountersEqual(const PerfCounters &A, const PerfCounters &B) {
  EXPECT_EQ(A.DmaGetsIssued, B.DmaGetsIssued);
  EXPECT_EQ(A.DmaPutsIssued, B.DmaPutsIssued);
  EXPECT_EQ(A.DmaBytesRead, B.DmaBytesRead);
  EXPECT_EQ(A.DmaBytesWritten, B.DmaBytesWritten);
  EXPECT_EQ(A.DmaStallCycles, B.DmaStallCycles);
  EXPECT_EQ(A.DmaQueueFullStallCycles, B.DmaQueueFullStallCycles);
  EXPECT_EQ(A.LocalLoads, B.LocalLoads);
  EXPECT_EQ(A.LocalStores, B.LocalStores);
  EXPECT_EQ(A.HostLoads, B.HostLoads);
  EXPECT_EQ(A.HostStores, B.HostStores);
  EXPECT_EQ(A.ComputeCycles, B.ComputeCycles);
  EXPECT_EQ(A.JoinStallCycles, B.JoinStallCycles);
  EXPECT_EQ(A.DmaRetries, B.DmaRetries);
  EXPECT_EQ(A.DmaRetryStallCycles, B.DmaRetryStallCycles);
  EXPECT_EQ(A.DmaDelayedTransfers, B.DmaDelayedTransfers);
  EXPECT_EQ(A.DmaInjectedDelayCycles, B.DmaInjectedDelayCycles);
  EXPECT_EQ(A.LaunchFaults, B.LaunchFaults);
  EXPECT_EQ(A.AcceleratorsLost, B.AcceleratorsLost);
  EXPECT_EQ(A.FailoverChunks, B.FailoverChunks);
  EXPECT_EQ(A.HostFallbackChunks, B.HostFallbackChunks);
  EXPECT_EQ(A.DescriptorsDispatched, B.DescriptorsDispatched);
  EXPECT_EQ(A.DoorbellCycles, B.DoorbellCycles);
  EXPECT_EQ(A.IdlePollCycles, B.IdlePollCycles);
}

GameWorldParams smallWorld() {
  GameWorldParams P;
  P.NumEntities = 200;
  return P;
}

/// Runs \p Frames parallel-AI frames and returns the world checksum.
uint64_t runParallelFrames(Machine &M, int Frames,
                           FrameStats *Last = nullptr) {
  GameWorld World(M, smallWorld());
  FrameStats Stats;
  for (int F = 0; F != Frames; ++F)
    Stats = World.doFrameOffloadAiParallel();
  if (Last)
    *Last = Stats;
  return World.checksum();
}

} // namespace

//===----------------------------------------------------------------------===//
// Zero-cost-when-idle: the acceptance bar for the whole subsystem.
//===----------------------------------------------------------------------===//

TEST(FaultInjector, IdleInjectorIsBitIdentical) {
  MachineConfig Clean = MachineConfig::cellLike();
  MachineConfig Idle = MachineConfig::cellLike();
  Idle.Faults.Enabled = true; // All rates stay 0.0.
  Idle.Faults.Seed = 0xF00D;

  Machine A(Clean), B(Idle);
  ASSERT_EQ(A.faults(), nullptr);
  ASSERT_NE(B.faults(), nullptr);

  uint64_t SumA = runParallelFrames(A, 3);
  uint64_t SumB = runParallelFrames(B, 3);
  EXPECT_EQ(SumA, SumB);

  EXPECT_EQ(A.hostClock().now(), B.hostClock().now());
  expectCountersEqual(A.hostCounters(), B.hostCounters());
  for (unsigned I = 0; I != A.numAccelerators(); ++I) {
    EXPECT_EQ(A.accel(I).Clock.now(), B.accel(I).Clock.now()) << I;
    EXPECT_EQ(A.accel(I).FreeAt, B.accel(I).FreeAt) << I;
    expectCountersEqual(A.accel(I).Counters, B.accel(I).Counters);
  }
}

TEST(FaultInjector, IdleInjectorIsBitIdenticalOnJobQueue) {
  MachineConfig Idle = MachineConfig::cellLike();
  Idle.Faults.Enabled = true;
  Machine A, B(Idle);
  auto Body = [](OffloadContext &Ctx, uint32_t Begin, uint32_t End) {
    Ctx.compute((End - Begin) * 321);
  };
  RegionStats SA = distributeJobs(A, 300, {.ChunkSize = 8}, Body);
  RegionStats SB = distributeJobs(B, 300, {.ChunkSize = 8}, Body);
  EXPECT_EQ(SA.MakespanCycles, SB.MakespanCycles);
  EXPECT_EQ(SA.WorkerBusyCycles, SB.WorkerBusyCycles);
  EXPECT_EQ(SB.DeadWorkers, 0u);
  EXPECT_EQ(A.hostClock().now(), B.hostClock().now());
}

//===----------------------------------------------------------------------===//
// Determinism of the fault schedule itself.
//===----------------------------------------------------------------------===//

TEST(FaultInjector, SameSeedReplaysIdentically) {
  MachineConfig Cfg = MachineConfig::cellLike();
  Cfg.Faults.Enabled = true;
  Cfg.Faults.Seed = 42;
  Cfg.Faults.AccelDeathRate = 0.2f;
  Cfg.Faults.DmaFailRate = 0.1f;
  Cfg.Faults.DmaDelayRate = 0.1f;

  uint64_t Sums[2], Clocks[2], Lost[2];
  for (int Run = 0; Run != 2; ++Run) {
    Machine M(Cfg);
    Sums[Run] = runParallelFrames(M, 3);
    Clocks[Run] = M.hostClock().now();
    uint64_t L = M.hostCounters().AcceleratorsLost;
    for (unsigned I = 0; I != M.numAccelerators(); ++I)
      L += M.accel(I).Counters.AcceleratorsLost;
    Lost[Run] = L;
  }
  EXPECT_EQ(Sums[0], Sums[1]);
  EXPECT_EQ(Clocks[0], Clocks[1]);
  EXPECT_EQ(Lost[0], Lost[1]);
}

TEST(FaultInjector, DifferentSeedsDifferentSchedules) {
  MachineConfig Cfg = MachineConfig::cellLike();
  Cfg.Faults.Enabled = true;
  Cfg.Faults.DmaDelayRate = 0.5f;
  uint64_t Clocks[2];
  for (int Run = 0; Run != 2; ++Run) {
    Cfg.Faults.Seed = Run + 1;
    Machine M(Cfg);
    runParallelFrames(M, 2);
    Clocks[Run] = M.hostClock().now();
  }
  // Same state either way, but the delay schedule (and so the timing)
  // should differ between seeds.
  EXPECT_NE(Clocks[0], Clocks[1]);
}

//===----------------------------------------------------------------------===//
// Transient DMA rejections: retried, bounded, counted, data intact.
//===----------------------------------------------------------------------===//

TEST(FaultInjector, DmaRetriesAreBoundedCountedAndHarmless) {
  MachineConfig Cfg = MachineConfig::cellLike();
  Cfg.Faults.Enabled = true;
  Cfg.Faults.DmaFailRate = 1.0f; // Every command rejected until the cap.
  Cfg.Faults.MaxDmaRetries = 3;
  Machine M(Cfg);

  constexpr uint32_t Count = 64;
  OuterPtr<uint64_t> Data = allocOuterArray<uint64_t>(M, Count);
  for (uint32_t I = 0; I != Count; ++I)
    M.hostWrite((Data + I).addr(), uint64_t(I) * 3 + 1);

  OffloadHandle H =
      offloadBlock(M, 0, [&](OffloadContext &Ctx) {
        LocalAddr Buf = Ctx.localAllocArray<uint64_t>(Count);
        Ctx.dmaGet(Buf, Data.addr(), Count * sizeof(uint64_t), /*Tag=*/1);
        Ctx.dmaWait(1);
        for (uint32_t I = 0; I != Count; ++I) {
          LocalAddr Slot = Buf + I * uint32_t(sizeof(uint64_t));
          uint64_t V = Ctx.localRead<uint64_t>(Slot);
          Ctx.localWrite(Slot, V * 2);
        }
        Ctx.dmaPut(Data.addr(), Buf, Count * sizeof(uint64_t), /*Tag=*/1);
        Ctx.dmaWait(1);
      });
  ASSERT_TRUE(H.ok());
  EXPECT_EQ(offloadJoin(M, H), OffloadStatus::Ok);

  const PerfCounters &C = M.accel(0).Counters;
  // Every command spins the full retry cap before succeeding.
  EXPECT_EQ(C.DmaRetries, 2u * Cfg.Faults.MaxDmaRetries);
  EXPECT_GT(C.DmaRetryStallCycles, 0u);
  for (uint32_t I = 0; I != Count; ++I)
    ASSERT_EQ(M.hostRead<uint64_t>((Data + I).addr()),
              (uint64_t(I) * 3 + 1) * 2);
}

TEST(FaultInjector, DmaRejectionIsDrawnPerCommand) {
  // The DMA engine draws the rejection verdict once per MFC command, so
  // a large transfer split into three commands retries three times over,
  // and a command issued straight on the engine retries too.
  MachineConfig Cfg = MachineConfig::cellLike();
  Cfg.Faults.Enabled = true;
  Cfg.Faults.DmaFailRate = 1.0f;
  Cfg.Faults.MaxDmaRetries = 3;
  Machine M(Cfg);

  constexpr uint32_t LargeBytes = 40 * 1024; // Three 16 KB-capped commands.
  constexpr uint32_t Words = LargeBytes / sizeof(uint64_t);
  OuterPtr<uint64_t> Data = allocOuterArray<uint64_t>(M, Words);
  for (uint32_t I = 0; I != Words; ++I)
    M.hostWrite((Data + I).addr(), uint64_t(I) * 7 + 5);

  std::vector<uint64_t> Seen(Words + 2);
  OffloadHandle H = offloadBlock(M, 0, [&](OffloadContext &Ctx) {
    LocalAddr Buf = Ctx.localAllocArray<uint64_t>(Words);
    LocalAddr Two = Ctx.localAllocArray<uint64_t>(2);
    Ctx.dmaGetLarge(Buf, Data.addr(), LargeBytes, /*Tag=*/1);
    Ctx.accel().Dma.get(Two, Data.addr(), 2 * sizeof(uint64_t), /*Tag=*/2);
    Ctx.dmaWaitMask((1u << 1) | (1u << 2));
    Ctx.localReadBytes(Seen.data(), Buf, LargeBytes);
    Ctx.localReadBytes(Seen.data() + Words, Two, 2 * sizeof(uint64_t));
  });
  ASSERT_TRUE(H.ok());
  EXPECT_EQ(offloadJoin(M, H), OffloadStatus::Ok);

  const PerfCounters &C = M.accel(0).Counters;
  EXPECT_EQ(C.DmaGetsIssued, 4u);
  EXPECT_EQ(C.DmaRetries, 4u * Cfg.Faults.MaxDmaRetries);
  for (uint32_t I = 0; I != Words; ++I)
    ASSERT_EQ(Seen[I], uint64_t(I) * 7 + 5);
  EXPECT_EQ(Seen[Words], 5u);
  EXPECT_EQ(Seen[Words + 1], 12u);
}

TEST(FaultInjector, EmptyDmaListChargesAndDrawsNothing) {
  // An empty list is no MFC command: no rejection draw, no retry cycles.
  // Against a run without it, the later commands see the same verdicts.
  struct Outcome {
    uint64_t Clock;
    PerfCounters Counters;
  };
  auto Run = [](float FailRate, bool WithEmptyList) {
    MachineConfig Cfg = MachineConfig::cellLike();
    Cfg.Faults.Enabled = true;
    Cfg.Faults.DmaFailRate = FailRate;
    Cfg.Faults.MaxDmaRetries = 3;
    Machine M(Cfg);
    OuterPtr<uint64_t> Data = allocOuterArray<uint64_t>(M, 16);
    OffloadHandle H = offloadBlock(M, 0, [&](OffloadContext &Ctx) {
      LocalAddr Buf = Ctx.localAllocArray<uint64_t>(16);
      if (WithEmptyList) {
        uint64_t Before = Ctx.clock().now();
        Ctx.dmaGetList(nullptr, 0, /*Tag=*/1);
        EXPECT_EQ(Ctx.clock().now(), Before);
        EXPECT_EQ(Ctx.accel().Counters.DmaRetries, 0u);
      }
      for (uint32_t I = 0; I != 8; ++I) {
        Ctx.dmaGet(Buf, Data.addr(), 16 * sizeof(uint64_t), /*Tag=*/1);
        Ctx.dmaWait(1);
      }
    });
    EXPECT_EQ(offloadJoin(M, H), OffloadStatus::Ok);
    return Outcome{M.accel(0).Clock.now(), M.accel(0).Counters};
  };
  for (float FailRate : {1.0f, 0.5f}) {
    Outcome With = Run(FailRate, /*WithEmptyList=*/true);
    Outcome Without = Run(FailRate, /*WithEmptyList=*/false);
    EXPECT_EQ(With.Clock, Without.Clock) << "rate " << FailRate;
    expectCountersEqual(With.Counters, Without.Counters);
    EXPECT_GT(With.Counters.DmaRetries, 0u);
  }
}

TEST(FaultInjector, DelayedCompletionsStallTheWait) {
  MachineConfig Cfg = MachineConfig::cellLike();
  Cfg.Faults.Enabled = true;
  Cfg.Faults.DmaDelayRate = 1.0f;
  Cfg.Faults.DmaDelayCycles = 5000;
  Machine Slow(Cfg);
  Machine Fast;

  auto TimeOneGet = [](Machine &M) {
    OuterPtr<uint64_t> Data = allocOuterArray<uint64_t>(M, 16);
    OffloadHandle H = offloadBlock(M, 0, [&](OffloadContext &Ctx) {
      LocalAddr Buf = Ctx.localAllocArray<uint64_t>(16);
      Ctx.dmaGet(Buf, Data.addr(), 16 * sizeof(uint64_t), 1);
      Ctx.dmaWait(1);
    });
    offloadJoin(M, H);
    return M.accel(0).Clock.now();
  };
  uint64_t SlowEnd = TimeOneGet(Slow);
  uint64_t FastEnd = TimeOneGet(Fast);
  EXPECT_GE(SlowEnd, FastEnd + Cfg.Faults.DmaDelayCycles);
  EXPECT_EQ(Slow.accel(0).Counters.DmaDelayedTransfers, 1u);
  EXPECT_EQ(Slow.accel(0).Counters.DmaInjectedDelayCycles, 5000u);
}

//===----------------------------------------------------------------------===//
// Accelerator death and launch-time recovery.
//===----------------------------------------------------------------------===//

TEST(FaultInjector, LaunchOnDeadAcceleratorFailsWithoutRunningBody) {
  Machine M;
  M.killAccelerator(0);
  EXPECT_EQ(M.numAliveAccelerators(), M.numAccelerators() - 1);
  EXPECT_NE(pickAccelerator(M), 0u);

  bool Ran = false;
  OffloadHandle H =
      offloadBlock(M, 0, [&](OffloadContext &) { Ran = true; });
  EXPECT_FALSE(Ran);
  EXPECT_FALSE(H.ok());
  EXPECT_EQ(H.status(), OffloadStatus::AcceleratorDead);
  // Joining a failed handle charges the fault-detection latency.
  uint64_t Before = M.hostClock().now();
  EXPECT_EQ(offloadJoin(M, H), OffloadStatus::AcceleratorDead);
  EXPECT_GE(M.hostClock().now(), Before);
  EXPECT_EQ(M.hostCounters().LaunchFaults, 1u);
}

TEST(FaultInjector, AllDeadMeansNoAcceleratorAvailable) {
  Machine M;
  for (unsigned I = 0; I != M.numAccelerators(); ++I)
    M.killAccelerator(I);
  EXPECT_EQ(M.numAliveAccelerators(), 0u);
  EXPECT_EQ(pickAccelerator(M), NoAccelerator);

  OffloadHandle H = offloadBlock(M, [&](OffloadContext &) { FAIL(); });
  EXPECT_EQ(H.status(), OffloadStatus::NoAcceleratorAvailable);
  offloadJoin(M, H);
}

TEST(FaultInjector, GroupJoinReportsWorstStatus) {
  Machine M;
  M.killAccelerator(2);
  OffloadGroup Group;
  EXPECT_EQ(Group.launchOn(M, 0, [](OffloadContext &Ctx) {
    Ctx.compute(10);
  }), OffloadStatus::Ok);
  EXPECT_EQ(Group.launchOn(M, 2, [](OffloadContext &) {}),
            OffloadStatus::AcceleratorDead);
  EXPECT_EQ(Group.joinAll(M), OffloadStatus::AcceleratorDead);
}

TEST(FaultInjector, StatusNamesAreStable) {
  EXPECT_STREQ(toString(OffloadStatus::Ok), "ok");
  EXPECT_STREQ(toString(OffloadStatus::AcceleratorDead),
               "accelerator_dead");
  EXPECT_STREQ(toString(OffloadStatus::NoAcceleratorAvailable),
               "no_accelerator_available");
}

//===----------------------------------------------------------------------===//
// Degenerate machines: the host finishes the work.
//===----------------------------------------------------------------------===//

TEST(FaultInjector, ZeroAcceleratorMachineRunsJobsOnHost) {
  MachineConfig Cfg = MachineConfig::cellLike();
  Cfg.NumAccelerators = 0;
  Machine M(Cfg);

  constexpr uint32_t Count = 100;
  std::vector<unsigned> Visits(Count, 0);
  RegionStats Stats = distributeJobs(
      M, Count, {.ChunkSize = 16},
      [&](auto &Ctx, uint32_t Begin, uint32_t End) {
        Ctx.compute((End - Begin) * 10);
        for (uint32_t I = Begin; I != End; ++I)
          ++Visits[I];
      });
  for (uint32_t I = 0; I != Count; ++I)
    ASSERT_EQ(Visits[I], 1u) << I;
  EXPECT_EQ(Stats.HostChunks, 7u); // ceil(100 / 16)
  EXPECT_EQ(Stats.WorkerChunks.size(), 0u);
  EXPECT_EQ(M.hostCounters().HostFallbackChunks, 7u);
  EXPECT_GT(M.hostCounters().ComputeCycles, 0u);
}

TEST(FaultInjector, ZeroAcceleratorMachineRunsParallelForOnHost) {
  MachineConfig Cfg = MachineConfig::cellLike();
  Cfg.NumAccelerators = 0;
  Machine M(Cfg);
  std::vector<unsigned> Visits(64, 0);
  RegionStats Stats = parallelForRange(
      M, 64, [&](auto &, uint32_t Begin, uint32_t End) {
        for (uint32_t I = Begin; I != End; ++I)
          ++Visits[I];
      });
  EXPECT_EQ(Stats.HostChunks, 1u);
  for (uint32_t I = 0; I != 64; ++I)
    ASSERT_EQ(Visits[I], 1u) << I;
}

TEST(FaultInjector, MaxWorkersZeroFallsBackToHost) {
  // Regression: this used to index an empty worker pool.
  Machine M;
  std::vector<unsigned> Visits(50, 0);
  RegionStats Stats = distributeJobs(
      M, 50, {.ChunkSize = 10, .MaxWorkers = 0},
      [&](auto &, uint32_t Begin, uint32_t End) {
        for (uint32_t I = Begin; I != End; ++I)
          ++Visits[I];
      });
  EXPECT_EQ(Stats.HostChunks, 5u);
  for (uint32_t I = 0; I != 50; ++I)
    ASSERT_EQ(Visits[I], 1u) << I;
}

//===----------------------------------------------------------------------===//
// Job-queue failover: dead workers' chunks land on survivors.
//===----------------------------------------------------------------------===//

TEST(FaultInjector, ScheduledWorkerDeathRequeuesItsChunk) {
  MachineConfig Cfg = MachineConfig::cellLike();
  Cfg.Faults.Enabled = true;
  Machine M(Cfg);
  M.faults()->scheduleChunkKill(/*AccelId=*/0, /*ChunkIndex=*/0);

  constexpr uint32_t Count = 240;
  std::vector<unsigned> Visits(Count, 0);
  RegionStats Stats = distributeJobs(
      M, Count, {.ChunkSize = 8},
      [&](OffloadContext &Ctx, uint32_t Begin, uint32_t End) {
        Ctx.compute((End - Begin) * 100);
        for (uint32_t I = Begin; I != End; ++I)
          ++Visits[I];
      });
  for (uint32_t I = 0; I != Count; ++I)
    ASSERT_EQ(Visits[I], 1u) << I;
  EXPECT_EQ(Stats.DeadWorkers, 1u);
  EXPECT_EQ(Stats.RequeuedDescriptors, 1u);
  EXPECT_EQ(Stats.HostChunks, 0u);
  EXPECT_FALSE(M.accel(0).Alive);
  EXPECT_EQ(M.accel(0).Counters.AcceleratorsLost, 1u);
  // Every chunk ran somewhere, exactly once.
  uint32_t Chunks = 0;
  for (uint32_t C : Stats.WorkerChunks)
    Chunks += C;
  EXPECT_EQ(Chunks + Stats.HostChunks, (Count + 7) / 8);
}

TEST(FaultInjector, AllWorkersDyingDrainsQueueOnHost) {
  MachineConfig Cfg = MachineConfig::cellLike();
  Cfg.Faults.Enabled = true;
  Machine M(Cfg);
  for (unsigned I = 0; I != M.numAccelerators(); ++I)
    M.faults()->scheduleChunkKill(I, 0);

  constexpr uint32_t Count = 120;
  std::vector<unsigned> Visits(Count, 0);
  RegionStats Stats = distributeJobs(
      M, Count, {.ChunkSize = 10}, [&](auto &, uint32_t Begin, uint32_t End) {
        for (uint32_t I = Begin; I != End; ++I)
          ++Visits[I];
      });
  for (uint32_t I = 0; I != Count; ++I)
    ASSERT_EQ(Visits[I], 1u) << I;
  EXPECT_EQ(Stats.DeadWorkers, M.numAccelerators());
  EXPECT_EQ(Stats.HostChunks + [&] {
    uint32_t C = 0;
    for (uint32_t W : Stats.WorkerChunks)
      C += W;
    return C;
  }(), 12u);
  EXPECT_EQ(M.numAliveAccelerators(), 0u);
}

//===----------------------------------------------------------------------===//
// The acceptance scenario: kill K of N mid-frame, state bit-identical.
//===----------------------------------------------------------------------===//

TEST(FaultInjector, KilledAcceleratorsMidFrameKeepFramesBitIdentical) {
  MachineConfig Faulty = MachineConfig::cellLike();
  Faulty.Faults.Enabled = true; // Rates 0: deaths only where scheduled.
  Machine A, B(Faulty);
  ASSERT_GE(B.numAccelerators(), 4u);
  // Kill two of the six cores at their first launch of frame 2.
  GameWorld CleanWorld(A, smallWorld());
  GameWorld FaultWorld(B, smallWorld());
  trace::TraceRecorder Rec(B);

  CleanWorld.doFrameOffloadAiParallel();
  FrameStats Clean1 = CleanWorld.doFrameOffloadAiParallel();

  FaultWorld.doFrameOffloadAiParallel();
  B.faults()->scheduleKill(/*AccelId=*/1, /*LaunchIndex=*/0);
  B.faults()->scheduleKill(/*AccelId=*/3, /*LaunchIndex=*/0);
  FrameStats Fault1 = FaultWorld.doFrameOffloadAiParallel();

  // Same game state, frame for frame.
  EXPECT_EQ(CleanWorld.checksum(), FaultWorld.checksum());
  EXPECT_EQ(B.numAliveAccelerators(), B.numAccelerators() - 2);

  // The recovery is visible in the stats...
  EXPECT_EQ(Clean1.FailedBlocks, 0u);
  EXPECT_EQ(Fault1.FailedBlocks, 2u);
  EXPECT_EQ(Fault1.FailoverSlices, 2u);
  EXPECT_EQ(Fault1.HostFallbackSlices, 0u);
  uint64_t Lost = 0;
  for (unsigned I = 0; I != B.numAccelerators(); ++I)
    Lost += B.accel(I).Counters.AcceleratorsLost;
  EXPECT_EQ(Lost, 2u);

  // ...and in the trace: two death events, on the right cores.
  unsigned Deaths = 0;
  for (const FaultEvent &F : Rec.faults())
    if (F.Kind == FaultKind::AcceleratorDeath) {
      ++Deaths;
      EXPECT_TRUE(F.AccelId == 1 || F.AccelId == 3);
    }
  EXPECT_EQ(Deaths, 2u);

  // The degraded machine still runs further frames (on 4 cores).
  CleanWorld.doFrameOffloadAiParallel();
  FaultWorld.doFrameOffloadAiParallel();
  EXPECT_EQ(CleanWorld.checksum(), FaultWorld.checksum());
}

TEST(FaultInjector, SingleOffloadFrameFailsOverToAnotherCore) {
  Machine A, B;
  B.killAccelerator(0);
  GameWorld CleanWorld(A, smallWorld());
  GameWorld FaultWorld(B, smallWorld());
  CleanWorld.doFrameOffloadAiParallel(1);
  FrameStats Stats = FaultWorld.doFrameOffloadAiParallel(1);
  EXPECT_EQ(CleanWorld.checksum(), FaultWorld.checksum());
  // The known-dead core is skipped, not launched into: no launch fails.
  EXPECT_EQ(Stats.FailedBlocks, 0u);
  EXPECT_EQ(Stats.FailoverSlices, 1u);
}

TEST(FaultInjector, SingleOffloadFrameFallsBackToHostWhenAllDead) {
  Machine A, B;
  for (unsigned I = 0; I != B.numAccelerators(); ++I)
    B.killAccelerator(I);
  GameWorld CleanWorld(A, smallWorld());
  GameWorld FaultWorld(B, smallWorld());
  CleanWorld.doFrameHostOnly();
  FrameStats Stats = FaultWorld.doFrameOffloadAiParallel(1);
  EXPECT_EQ(CleanWorld.checksum(), FaultWorld.checksum());
  EXPECT_EQ(Stats.HostFallbackSlices, 1u);
  EXPECT_EQ(Stats.FailedBlocks, 0u); // Every core was known dead.
}

//===----------------------------------------------------------------------===//
// Trace plumbing.
//===----------------------------------------------------------------------===//

TEST(FaultInjector, FaultKindNamesAreStable) {
  EXPECT_STREQ(faultKindName(FaultKind::AcceleratorDeath),
               "accelerator_death");
  EXPECT_STREQ(faultKindName(FaultKind::HostFallback), "host_fallback");
  EXPECT_STREQ(faultKindName(FaultKind::DmaCommandRejected),
               "dma_command_rejected");
}

TEST(FaultInjector, TraceRecorderCollectsFaultEvents) {
  MachineConfig Cfg = MachineConfig::cellLike();
  Cfg.Faults.Enabled = true;
  Cfg.Faults.DmaFailRate = 1.0f;
  Cfg.Faults.MaxDmaRetries = 2;
  Machine M(Cfg);
  trace::TraceRecorder Rec(M);

  OuterPtr<uint64_t> Data = allocOuterArray<uint64_t>(M, 8);
  OffloadHandle H = offloadBlock(M, 0, [&](OffloadContext &Ctx) {
    LocalAddr Buf = Ctx.localAllocArray<uint64_t>(8);
    Ctx.dmaGet(Buf, Data.addr(), 8 * sizeof(uint64_t), 1);
    Ctx.dmaWait(1);
  });
  offloadJoin(M, H);

  ASSERT_EQ(Rec.faults().size(), 2u);
  for (const FaultEvent &F : Rec.faults()) {
    EXPECT_EQ(F.Kind, FaultKind::DmaCommandRejected);
    EXPECT_EQ(F.AccelId, 0u);
  }
  Rec.clear();
  EXPECT_TRUE(Rec.faults().empty());
}
