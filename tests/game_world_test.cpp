//===- tests/game_world_test.cpp - Frame schedule tests --------------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "game/GameWorld.h"
#include "sim/DmaObserver.h"

#include <gtest/gtest.h>

using namespace omm::game;
using namespace omm::sim;

namespace {

GameWorldParams smallWorld() {
  GameWorldParams Params;
  Params.NumEntities = 200;
  Params.Seed = 0xF00D;
  Params.WorldHalfExtent = 30.0f;
  return Params;
}

/// Counts offload launches: each one opens a block.
struct LaunchCounter : DmaObserver {
  unsigned Count = 0;
  void onBlockBegin(unsigned, uint64_t, uint64_t) override { ++Count; }
};

} // namespace

TEST(GameWorld, FrameAdvancesState) {
  Machine M;
  GameWorld World(M, smallWorld());
  uint64_t Before = World.checksum();
  FrameStats Stats = World.doFrameHostOnly();
  EXPECT_NE(World.checksum(), Before);
  EXPECT_GT(Stats.FrameCycles, 0u);
  EXPECT_GT(Stats.AiCycles, 0u);
  EXPECT_GT(Stats.CollisionCycles, 0u);
  EXPECT_GT(Stats.RenderCycles, 0u);
  EXPECT_EQ(World.frameIndex(), 1u);
}

TEST(GameWorld, HostAndOffloadSchedulesAgreeBitExactly) {
  // Figure 2's schedule must be a pure optimisation: bit-identical
  // world state after every frame.
  Machine MHost, MAccel;
  GameWorld HostWorld(MHost, smallWorld());
  GameWorld AccelWorld(MAccel, smallWorld());

  for (int Frame = 0; Frame != 3; ++Frame) {
    HostWorld.doFrameHostOnly();
    AccelWorld.doFrameOffloadAiParallel(1);
    ASSERT_EQ(HostWorld.checksum(), AccelWorld.checksum())
        << "divergence at frame " << Frame;
  }
}

TEST(GameWorld, OffloadingAiImprovesFrameTime) {
  // The paper's headline: offloading the AI brought a ~50% performance
  // increase (frame rate), i.e. frame time drops substantially when the
  // AI runs beside host collision detection.
  Machine MHost, MAccel;
  GameWorld HostWorld(MHost, smallWorld());
  GameWorld AccelWorld(MAccel, smallWorld());

  uint64_t HostTotal = 0, AccelTotal = 0;
  for (int Frame = 0; Frame != 3; ++Frame) {
    HostTotal += HostWorld.doFrameHostOnly().FrameCycles;
    AccelTotal += AccelWorld.doFrameOffloadAiParallel(1).FrameCycles;
  }
  EXPECT_LT(AccelTotal, HostTotal);
}

TEST(GameWorld, OffloadFrameOverlapsAiWithCollision) {
  Machine M;
  GameWorld World(M, smallWorld());
  FrameStats Stats = World.doFrameOffloadAiParallel(1);
  // The frame must be shorter than the sum of its stages (overlap).
  EXPECT_LT(Stats.FrameCycles, Stats.AiCycles + Stats.CollisionCycles +
                                   Stats.UpdateCycles +
                                   Stats.RenderCycles);
}

TEST(GameWorld, ContactsAreDetectedAndResolved) {
  GameWorldParams Params = smallWorld();
  Params.NumEntities = 400;
  Params.WorldHalfExtent = 15.0f; // Dense: guaranteed contacts.
  Machine M;
  GameWorld World(M, Params);
  FrameStats Stats = World.doFrameHostOnly();
  EXPECT_GT(Stats.PairsTested, 0u);
  EXPECT_GT(Stats.Contacts, 0u);
}

TEST(GameWorld, MultiFrameStability) {
  Machine M;
  GameWorldParams Params = smallWorld();
  GameWorld World(M, Params);
  for (int Frame = 0; Frame != 10; ++Frame)
    World.doFrameOffloadAiParallel(1);
  // Entities remain inside the world and finite.
  for (uint32_t I = 0; I != Params.NumEntities; ++I) {
    GameEntity E = World.entities().peek(I);
    ASSERT_TRUE(std::isfinite(E.Position.X));
    ASSERT_TRUE(std::isfinite(E.Velocity.X));
    ASSERT_LE(std::abs(E.Position.X), Params.WorldHalfExtent + 1.0f);
  }
}

TEST(GameWorld, ParallelAiScheduleIsBitIdentical) {
  Machine MSingle, MParallel;
  GameWorld Single(MSingle, smallWorld());
  GameWorld Parallel(MParallel, smallWorld());
  for (int Frame = 0; Frame != 3; ++Frame) {
    Single.doFrameOffloadAiParallel(1);
    Parallel.doFrameOffloadAiParallel();
    ASSERT_EQ(Single.checksum(), Parallel.checksum())
        << "divergence at frame " << Frame;
  }
}

TEST(GameWorld, ResidentAiScheduleIsBitIdenticalAndAmortizesLaunches) {
  LaunchCounter Launches;
  Machine MParallel, MResident;
  MResident.addObserver(&Launches);
  GameWorld Parallel(MParallel, smallWorld());
  GameWorld Resident(MResident, smallWorld());
  for (int Frame = 0; Frame != 3; ++Frame) {
    Parallel.doFrameOffloadAiParallel();
    PerfCounters Before = MResident.totalCounters();
    unsigned LaunchesBefore = Launches.Count;
    Resident.doFrameOffloadAiResident();
    ASSERT_EQ(Parallel.checksum(), Resident.checksum())
        << "divergence at frame " << Frame;
    // Mailbox dispatch in action: one launch per worker but more
    // descriptors than workers, so every descriptor beyond the first per
    // worker is a saved launch.
    EXPECT_EQ(Launches.Count - LaunchesBefore, MResident.numAccelerators());
    EXPECT_GT(MResident.countersSince(Before).DescriptorsDispatched,
              MResident.numAccelerators());
  }
  MResident.removeObserver(&Launches);
}

TEST(GameWorld, ParallelFrameWithoutAcceleratorsRunsOnTheHost) {
  // No accelerator to launch on: the frame's one slice takes the
  // ordinary host fallback, and the frame is the host-only frame.
  MachineConfig Cfg;
  Cfg.NumAccelerators = 0;
  Machine MNone(Cfg), MHost;
  GameWorld NoAccel(MNone, smallWorld());
  GameWorld HostOnly(MHost, smallWorld());
  for (int Frame = 0; Frame != 3; ++Frame) {
    PerfCounters Before = MNone.totalCounters();
    FrameStats Stats = NoAccel.doFrameOffloadAiParallel();
    FrameStats HostStats = HostOnly.doFrameHostOnly();
    EXPECT_EQ(MNone.countersSince(Before).HostFallbackChunks, 1u)
        << "frame " << Frame;
    EXPECT_EQ(Stats.FrameCycles, HostStats.FrameCycles) << "frame " << Frame;
    ASSERT_EQ(NoAccel.checksum(), HostOnly.checksum())
        << "divergence at frame " << Frame;
  }
}

TEST(GameWorld, ParallelAiShortensTheAiStage) {
  GameWorldParams Params = smallWorld();
  Params.NumEntities = 600; // Enough work to amortise launches.
  Machine MSingle, MParallel;
  GameWorld Single(MSingle, Params);
  GameWorld Parallel(MParallel, Params);
  FrameStats SingleStats = Single.doFrameOffloadAiParallel(1);
  FrameStats ParallelStats = Parallel.doFrameOffloadAiParallel();
  EXPECT_LT(ParallelStats.AiCycles * 2, SingleStats.AiCycles);
}

TEST(GameWorld, ParallelAiRespectsWorkerCap) {
  // A cap of 1 is the Figure 2 schedule: exactly one accelerator works.
  for (unsigned Cap : {1u, 2u}) {
    Machine M;
    GameWorld World(M, smallWorld());
    World.doFrameOffloadAiParallel(/*MaxAccelerators=*/Cap);
    unsigned Used = 0;
    for (unsigned I = 0; I != M.numAccelerators(); ++I)
      if (M.accel(I).Counters.ComputeCycles != 0)
        ++Used;
    EXPECT_EQ(Used, Cap);
  }
}

TEST(GameWorld, TargetPrefetchPreservesStateAndHelps) {
  GameWorldParams Plain = smallWorld();
  GameWorldParams Prefetching = smallWorld();
  Prefetching.PrefetchAiTargets = true;

  Machine MPlain, MPrefetch;
  GameWorld PlainWorld(MPlain, Plain);
  GameWorld PrefetchWorld(MPrefetch, Prefetching);

  uint64_t PlainAi = 0, PrefetchAi = 0;
  for (int Frame = 0; Frame != 3; ++Frame) {
    PlainAi += PlainWorld.doFrameOffloadAiParallel(1).AiCycles;
    PrefetchAi += PrefetchWorld.doFrameOffloadAiParallel(1).AiCycles;
    ASSERT_EQ(PlainWorld.checksum(), PrefetchWorld.checksum());
  }
  // Prefetching hides target-read latency behind the decision compute.
  EXPECT_LT(PrefetchAi, PlainAi);
}

TEST(GameWorld, DeterministicAcrossIdenticalRuns) {
  uint64_t A, B;
  {
    Machine M;
    GameWorld World(M, smallWorld());
    for (int I = 0; I != 5; ++I)
      World.doFrameOffloadAiParallel(1);
    A = World.checksum();
  }
  {
    Machine M;
    GameWorld World(M, smallWorld());
    for (int I = 0; I != 5; ++I)
      World.doFrameOffloadAiParallel(1);
    B = World.checksum();
  }
  EXPECT_EQ(A, B);
}
