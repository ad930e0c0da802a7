//===- tests/watchdog_test.cpp - WatchdogTimer unit tests -----------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// The watchdog's check-grid arithmetic is the determinism anchor of every
// timing-fault experiment: a miss is detected at the next absolute
// multiple of the check period, never at the deadline itself. These tests
// pin the boundary cases — a deadline landing exactly on a grid tick, a
// zero-cycle chunk deadline (disarmed), a zero check period — and the
// re-arm mutators the tenant server uses to give each tenant its own
// deadline without moving the grid.
//
//===----------------------------------------------------------------------===//

#include "sim/WatchdogTimer.h"

#include <gtest/gtest.h>

using namespace omm::sim;

namespace {

MachineConfig configWith(uint64_t Check, uint64_t Chunk) {
  MachineConfig Cfg = MachineConfig::cellLike();
  Cfg.WatchdogCheckCycles = Check;
  Cfg.ChunkDeadlineCycles = Chunk;
  return Cfg;
}

} // namespace

TEST(WatchdogTimerTest, ArmingNeedsBothGridAndDeadline) {
  // A deadline with no check grid never fires, and a grid with no
  // deadline has nothing to check: both must be non-zero to arm.
  EXPECT_FALSE(WatchdogTimer(configWith(0, 500)).armsChunks());
  EXPECT_FALSE(WatchdogTimer(configWith(200, 0)).armsChunks());
  WatchdogTimer Armed(configWith(200, 700));
  EXPECT_TRUE(Armed.armsChunks());
  EXPECT_EQ(Armed.checkCycles(), 200u);
  EXPECT_EQ(Armed.chunkDeadline(), 700u);
}

TEST(WatchdogTimerTest, DeadlineExactlyOnAGridTickDetectsAtThatTick) {
  // The sweep at cycle k*Check observes a deadline expiring at exactly
  // k*Check — detection adds zero latency on the boundary.
  WatchdogTimer WD(configWith(200, 500));
  EXPECT_EQ(WD.detectionCycle(0), 0u);
  EXPECT_EQ(WD.detectionCycle(200), 200u);
  EXPECT_EQ(WD.detectionCycle(4000), 4000u);
}

TEST(WatchdogTimerTest, DeadlineBetweenTicksRoundsUpToTheNextSweep) {
  WatchdogTimer WD(configWith(200, 500));
  EXPECT_EQ(WD.detectionCycle(1), 200u);
  EXPECT_EQ(WD.detectionCycle(199), 200u);
  EXPECT_EQ(WD.detectionCycle(201), 400u);
  EXPECT_EQ(WD.detectionCycle(399), 400u);
  // Detection latency is bounded by one period, exclusive.
  for (uint64_t Cycle : {1u, 57u, 200u, 4321u, 99999u}) {
    uint64_t At = WD.detectionCycle(Cycle);
    EXPECT_GE(At, Cycle);
    EXPECT_LT(At - Cycle, WD.checkCycles());
    EXPECT_EQ(At % WD.checkCycles(), 0u);
  }
}

TEST(WatchdogTimerTest, ZeroCheckPeriodDetectsImmediately) {
  // No grid: detectionCycle degenerates to the identity, and nothing
  // arms — the fail-stop model's "no watchdog" configuration.
  WatchdogTimer WD(configWith(0, 0));
  EXPECT_EQ(WD.detectionCycle(0), 0u);
  EXPECT_EQ(WD.detectionCycle(12345), 12345u);
}

TEST(WatchdogTimerTest, ZeroCycleChunkDeadlineIsDisarmedNotInstant) {
  // A zero-cycle deadline means "no deadline", never "already missed":
  // armsChunks is false while the check grid stays in place.
  WatchdogTimer WD(configWith(200, 0));
  EXPECT_FALSE(WD.armsChunks());
  EXPECT_EQ(WD.detectionCycle(201), 400u);
}

TEST(WatchdogTimerTest, ReArmAfterRecoveryChangesDeadlineNotGrid) {
  // The tenant server re-arms the chunk deadline around every tenant
  // slice. The deadline moves; the absolute check grid must not — a
  // re-arm that shifted detection cycles would break replay.
  WatchdogTimer WD(configWith(200, 20000));
  EXPECT_TRUE(WD.armsChunks());
  uint64_t DetectBefore = WD.detectionCycle(1234567);

  WD.setChunkDeadline(0); // Disarm (recovery window).
  EXPECT_FALSE(WD.armsChunks());
  EXPECT_EQ(WD.chunkDeadline(), 0u);

  WD.setChunkDeadline(5000); // Re-arm with a tighter contract.
  EXPECT_TRUE(WD.armsChunks());
  EXPECT_EQ(WD.chunkDeadline(), 5000u);
  EXPECT_EQ(WD.detectionCycle(1234567), DetectBefore);
}
