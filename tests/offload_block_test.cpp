//===- tests/offload_block_test.cpp - Offload block semantics --------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// Verifies the Figure 2 execution model: the offload block runs in
// parallel simulated time with host work between launch and join.
//
//===----------------------------------------------------------------------===//

#include "offload/Offload.h"

#include <gtest/gtest.h>

#include <utility>

using namespace omm::offload;
using namespace omm::sim;

TEST(OffloadBlock, HostAndAcceleratorOverlap) {
  Machine M;
  const MachineConfig &Cfg = M.config();
  constexpr uint64_t Work = 100000;

  OffloadHandle Handle = offloadBlock(
      M, 0, [&](OffloadContext &Ctx) { Ctx.compute(Work); });
  M.hostCompute(Work); // Host work overlaps the block.
  offloadJoin(M, Handle);

  // Total elapsed is one Work plus launch overheads, not two.
  uint64_t Elapsed = M.hostClock().now();
  EXPECT_GE(Elapsed, Work);
  EXPECT_LE(Elapsed,
            Work + Cfg.HostLaunchCycles + Cfg.OffloadLaunchCycles + 100);
}

TEST(OffloadBlock, JoinWaitsForSlowAccelerator) {
  Machine M;
  OffloadHandle Handle = offloadBlock(
      M, 0, [&](OffloadContext &Ctx) { Ctx.compute(50000); });
  M.hostCompute(1000); // Host finishes early...
  offloadJoin(M, Handle);
  // ...and the join stalls it to the block's completion.
  EXPECT_EQ(M.hostClock().now(), Handle.completeAt());
  EXPECT_GT(M.hostCounters().JoinStallCycles, 0u);
}

TEST(OffloadBlock, JoinIsFreeWhenHostIsSlower) {
  Machine M;
  OffloadHandle Handle = offloadBlock(
      M, 0, [&](OffloadContext &Ctx) { Ctx.compute(100); });
  M.hostCompute(1000000);
  uint64_t Before = M.hostClock().now();
  offloadJoin(M, Handle);
  EXPECT_EQ(M.hostClock().now(), Before);
}

TEST(OffloadBlock, SameAcceleratorSerialises) {
  Machine M;
  OffloadHandle First = offloadBlock(
      M, 0, [&](OffloadContext &Ctx) { Ctx.compute(10000); });
  OffloadHandle Second = offloadBlock(
      M, 0, [&](OffloadContext &Ctx) { Ctx.compute(10000); });
  EXPECT_GE(Second.completeAt(), First.completeAt() + 10000);
  offloadJoin(M, First);
  offloadJoin(M, Second);
}

TEST(OffloadBlock, DifferentAcceleratorsRunConcurrently) {
  Machine M;
  OffloadHandle First = offloadBlock(
      M, 0, [&](OffloadContext &Ctx) { Ctx.compute(10000); });
  OffloadHandle Second = offloadBlock(
      M, 1, [&](OffloadContext &Ctx) { Ctx.compute(10000); });
  // Both complete within launch-skew of each other.
  uint64_t Skew = M.config().HostLaunchCycles + 10;
  EXPECT_LE(Second.completeAt(), First.completeAt() + Skew);
  offloadJoin(M, First);
  offloadJoin(M, Second);
}

TEST(OffloadBlock, PickAcceleratorBalances) {
  Machine M;
  // Load accelerator 0 heavily; the picker must choose another.
  OffloadHandle Busy = offloadBlock(
      M, 0, [&](OffloadContext &Ctx) { Ctx.compute(1000000); });
  unsigned Picked = pickAccelerator(M);
  EXPECT_NE(Picked, 0u);
  offloadJoin(M, Busy);
}

TEST(OffloadBlock, GroupJoinsEverything) {
  Machine M;
  OffloadGroup Group;
  for (int I = 0; I != 13; ++I)
    Group.launch(M, [&](OffloadContext &Ctx) { Ctx.compute(5000); });
  Group.joinAll(M);
  // 13 blocks over 6 accelerators: at least three serialise per core,
  // so elapsed >= 3 block times; but far less than 13 serial blocks.
  uint64_t Elapsed = M.globalTime();
  EXPECT_GE(Elapsed, 3u * 5000u);
  EXPECT_LT(Elapsed, 13u * 5000u);
}

TEST(OffloadBlock, GroupSpreadsOverAccelerators) {
  Machine M;
  OffloadGroup Group;
  for (int I = 0; I != 6; ++I)
    Group.launch(M, [&](OffloadContext &Ctx) { Ctx.compute(5000); });
  Group.joinAll(M);
  // All six accelerators saw work.
  for (unsigned I = 0; I != 6; ++I)
    EXPECT_GT(M.accel(I).Counters.ComputeCycles, 0u) << "accel " << I;
}

TEST(OffloadBlock, ResultsVisibleAfterJoin) {
  Machine M;
  GlobalAddr G = M.allocGlobal(64);
  OffloadHandle Handle = offloadBlock(M, [&](OffloadContext &Ctx) {
    Ctx.outerWrite<uint64_t>(G, 0x600DF00Dull);
  });
  offloadJoin(M, Handle);
  EXPECT_EQ(M.hostRead<uint64_t>(G), 0x600DF00Dull);
}

TEST(OffloadBlockDeath, DoubleJoinAborts) {
  Machine M;
  OffloadHandle Handle =
      offloadBlock(M, [](OffloadContext &Ctx) { Ctx.compute(1); });
  offloadJoin(M, Handle);
  EXPECT_DEATH(offloadJoin(M, Handle), "already-joined");
}

TEST(OffloadBlock, HandleIsMoveOnlyAndJoinableThroughMove) {
  Machine M;
  OffloadHandle First =
      offloadBlock(M, 0, [](OffloadContext &Ctx) { Ctx.compute(100); });
  uint64_t BlockId = First.blockId();
  OffloadHandle Second = std::move(First);
  // The moved-from handle gave up ownership of the join.
  EXPECT_FALSE(First.joinable());
  EXPECT_TRUE(Second.joinable());
  EXPECT_EQ(Second.blockId(), BlockId);
  offloadJoin(M, Second);
  EXPECT_FALSE(Second.joinable());
}

TEST(OffloadBlockDeath, JoiningMovedFromHandleAborts) {
  Machine M;
  OffloadHandle First =
      offloadBlock(M, 0, [](OffloadContext &Ctx) { Ctx.compute(100); });
  OffloadHandle Second = std::move(First);
  EXPECT_DEATH(offloadJoin(M, First), "already-joined");
  offloadJoin(M, Second);
}

TEST(OffloadBlock, DroppedHandleWarns) {
  Machine M;
  ::testing::internal::CaptureStderr();
  {
    OffloadHandle Dropped =
        offloadBlock(M, 0, [](OffloadContext &Ctx) { Ctx.compute(10); });
    (void)Dropped; // Destroyed without offloadJoin: lost parallelism.
  }
  std::string Err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(Err.find("destroyed without offloadJoin"), std::string::npos)
      << "stderr was: " << Err;
}

TEST(OffloadBlock, JoinedHandleDoesNotWarn) {
  Machine M;
  ::testing::internal::CaptureStderr();
  {
    OffloadHandle Handle =
        offloadBlock(M, 0, [](OffloadContext &Ctx) { Ctx.compute(10); });
    offloadJoin(M, Handle);
  }
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST(OffloadBlock, BlockIdsAreMonotonic) {
  Machine M;
  OffloadHandle First =
      offloadBlock(M, 0, [](OffloadContext &Ctx) { Ctx.compute(10); });
  OffloadHandle Second =
      offloadBlock(M, 1, [](OffloadContext &Ctx) { Ctx.compute(10); });
  EXPECT_LT(First.blockId(), Second.blockId());
  offloadJoin(M, First);
  offloadJoin(M, Second);
}
