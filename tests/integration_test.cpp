//===- tests/integration_test.cpp - Cross-module integration ---------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// End-to-end invariants across the whole stack:
//   - the paper's portability claim: identical game state on the
//     Cell-like machine and on the traditional shared-memory machine,
//     across all schedules;
//   - the standard offloaded paths are race-checker clean;
//   - memory-architecture parameters change *time*, never *state*.
//
//===----------------------------------------------------------------------===//

#include "dmacheck/DmaRaceChecker.h"
#include "game/Components.h"
#include "game/GameWorld.h"

#include <gtest/gtest.h>

using namespace omm;
using namespace omm::game;
using namespace omm::sim;

namespace {

GameWorldParams testWorld() {
  GameWorldParams Params;
  Params.NumEntities = 150;
  Params.Seed = 0x1D5EED;
  Params.WorldHalfExtent = 25.0f;
  return Params;
}

uint64_t runFrames(const MachineConfig &Config, bool Offload, int Frames,
                   uint64_t *ElapsedOut = nullptr) {
  Machine M(Config);
  GameWorld World(M, testWorld());
  for (int I = 0; I != Frames; ++I) {
    if (Offload)
      World.doFrameOffloadAiParallel(1);
    else
      World.doFrameHostOnly();
  }
  if (ElapsedOut)
    *ElapsedOut = M.globalTime();
  return World.checksum();
}

} // namespace

namespace {

/// A point in the memory-architecture design space.
struct ArchPoint {
  const char *Name;
  uint64_t DmaLatency;
  uint64_t BytesPerCycle;
  unsigned QueueDepth;
  unsigned Accelerators;
  bool SharedMemory;
};

class ArchSweep : public ::testing::TestWithParam<ArchPoint> {};

MachineConfig configFor(const ArchPoint &Point) {
  MachineConfig Config = Point.SharedMemory
                             ? MachineConfig::sharedMemoryLike()
                             : MachineConfig::cellLike();
  Config.DmaLatencyCycles = Point.DmaLatency;
  Config.DmaBytesPerCycle = Point.BytesPerCycle;
  Config.DmaQueueDepth = Point.QueueDepth;
  Config.NumAccelerators = Point.Accelerators;
  return Config;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    MemoryArchitectures, ArchSweep,
    ::testing::Values(
        ArchPoint{"cell_default", 200, 8, 16, 6, false},
        ArchPoint{"slow_narrow", 1000, 1, 2, 6, false},
        ArchPoint{"fast_wide", 20, 64, 32, 6, false},
        ArchPoint{"few_cores", 200, 8, 16, 2, false},
        ArchPoint{"one_core", 200, 8, 16, 1, false},
        ArchPoint{"tiny_queue", 400, 4, 1, 6, false},
        ArchPoint{"smp", 0, 64, 16, 6, true}),
    [](const auto &Info) { return Info.param.Name; });

TEST_P(ArchSweep, GameStateIsArchitectureIndependent) {
  // The paper's portability thesis as a sweeping property: the same
  // source produces bit-identical game state at every point of the
  // memory-architecture design space; only time changes.
  static const uint64_t Reference = [] {
    Machine M(MachineConfig::cellLike());
    GameWorld World(M, testWorld());
    for (int I = 0; I != 2; ++I)
      World.doFrameHostOnly();
    return World.checksum();
  }();

  Machine M(configFor(GetParam()));
  GameWorld World(M, testWorld());
  for (int I = 0; I != 2; ++I)
    World.doFrameOffloadAiParallel(1);
  EXPECT_EQ(World.checksum(), Reference);

  Machine MParallel(configFor(GetParam()));
  GameWorld ParallelWorld(MParallel, testWorld());
  for (int I = 0; I != 2; ++I)
    ParallelWorld.doFrameOffloadAiParallel();
  EXPECT_EQ(ParallelWorld.checksum(), Reference);
}

TEST_P(ArchSweep, ComponentSchedulesAreArchitectureIndependent) {
  static const uint64_t Reference = [] {
    Machine M(MachineConfig::cellLike());
    ComponentSystem System(M, 9, 0xC0DE);
    System.updateAllHost();
    return System.stateChecksum();
  }();

  Machine M(configFor(GetParam()));
  ComponentSystem System(M, 9, 0xC0DE);
  System.updateSpecialisedOffloads();
  EXPECT_EQ(System.stateChecksum(), Reference);
}

TEST(Integration, PortabilityAcrossMemoryArchitectures) {
  // The same source runs on the Cell-like and the shared-memory machine
  // with bit-identical results — "permitting the use of this technique
  // on portable code" (Section 4.2).
  uint64_t CellHost = runFrames(MachineConfig::cellLike(), false, 3);
  uint64_t CellOffload = runFrames(MachineConfig::cellLike(), true, 3);
  uint64_t SmpHost = runFrames(MachineConfig::sharedMemoryLike(), false, 3);
  uint64_t SmpOffload = runFrames(MachineConfig::sharedMemoryLike(), true, 3);
  EXPECT_EQ(CellHost, CellOffload);
  EXPECT_EQ(CellHost, SmpHost);
  EXPECT_EQ(CellHost, SmpOffload);
}

TEST(Integration, ArchitectureParametersChangeTimeNotState) {
  MachineConfig Slow = MachineConfig::cellLike();
  Slow.DmaLatencyCycles = 2000;
  Slow.DmaBytesPerCycle = 1;
  uint64_t FastElapsed = 0, SlowElapsed = 0;
  uint64_t FastState =
      runFrames(MachineConfig::cellLike(), true, 2, &FastElapsed);
  uint64_t SlowState = runFrames(Slow, true, 2, &SlowElapsed);
  EXPECT_EQ(FastState, SlowState);
  EXPECT_GT(SlowElapsed, FastElapsed);
}

TEST(Integration, OffloadedFramesAreRaceCheckerClean) {
  Machine M;
  DiagSink Diags;
  dmacheck::DmaRaceChecker Checker(Diags);
  M.addObserver(&Checker);
  GameWorld World(M, testWorld());
  for (int I = 0; I != 2; ++I)
    World.doFrameOffloadAiParallel(1);
  // The shard frames stage whole shards through local store with bulk
  // transfers and batched target gets; none of those may race the
  // accesses that follow.
  World.doFrameStaged();
  World.doFrameDataflow(ParcelPolicy::Ring);
  World.doFrameDataflow(ParcelPolicy::LeastLoaded);
  EXPECT_EQ(Checker.raceCount(), 0u);
  for (const auto &D : Diags.diags())
    ADD_FAILURE() << D.Message;
}

TEST(Integration, ComponentSchedulesAreRaceCheckerClean) {
  Machine M;
  DiagSink Diags;
  dmacheck::DmaRaceChecker Checker(Diags);
  M.addObserver(&Checker);
  ComponentSystem System(M, 9, 0xC0DE);
  System.updateMonolithicOffload();
  System.updateSpecialisedOffloads();
  EXPECT_EQ(Checker.raceCount(), 0u);
  for (const auto &D : Diags.diags())
    ADD_FAILURE() << D.Message;
}

TEST(Integration, SharedMemoryMachineNarrowsTheOffloadGap) {
  // On the traditional architecture the offload schedule still wins a
  // little (parallelism) but the *memory* penalty of the naive paths
  // shrinks; at minimum, the gap between host-only times across
  // architectures must be visible.
  uint64_t CellElapsed = 0, SmpElapsed = 0;
  (void)runFrames(MachineConfig::cellLike(), true, 2, &CellElapsed);
  (void)runFrames(MachineConfig::sharedMemoryLike(), true, 2, &SmpElapsed);
  EXPECT_LT(SmpElapsed, CellElapsed);
}

TEST(Integration, LocalStorePeakStaysWithinCapacity) {
  Machine M;
  GameWorld World(M, testWorld());
  World.doFrameOffloadAiParallel(1);
  for (unsigned I = 0; I != M.numAccelerators(); ++I)
    EXPECT_LE(M.accel(I).Store.peakUsage(), M.config().LocalStoreSize);
}

TEST(Integration, PerfCountersAreInternallyConsistent) {
  Machine M;
  GameWorld World(M, testWorld());
  World.doFrameOffloadAiParallel(1);
  PerfCounters Total = M.totalCounters();
  EXPECT_GT(Total.DmaGetsIssued, 0u);
  EXPECT_GT(Total.DmaPutsIssued, 0u);
  EXPECT_GE(Total.DmaBytesRead, Total.DmaGetsIssued); // >=1 byte each.
  EXPECT_GE(Total.DmaBytesWritten, Total.DmaPutsIssued);
  EXPECT_GT(Total.ComputeCycles, 0u);
}
