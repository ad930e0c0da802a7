//===- tests/accessor_test.cpp - Accessor class tests ----------------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "offload/Accessors.h"
#include "offload/Offload.h"

#include <gtest/gtest.h>

using namespace omm::offload;
using namespace omm::sim;

TEST(ArrayAccessor, BulkReadMatchesMemory) {
  Machine M;
  OuterPtr<uint32_t> Array = allocOuterArray<uint32_t>(M, 256);
  for (uint32_t I = 0; I != 256; ++I)
    M.mainMemory().writeValue<uint32_t>(Array.addr() + I * 4, I * 3);

  offloadSync(M, [&](OffloadContext &Ctx) {
    ArrayAccessor<uint32_t> Local(Ctx, Array, 256, AccessMode::ReadOnly);
    for (uint32_t I = 0; I != 256; ++I)
      ASSERT_EQ(Local.get(I), I * 3);
  });
}

TEST(ArrayAccessor, SingleBulkTransferNotPerElement) {
  Machine M;
  OuterPtr<uint64_t> Array = allocOuterArray<uint64_t>(M, 512);
  offloadSync(M, [&](OffloadContext &Ctx) {
    uint64_t GetsBefore = Ctx.accel().Counters.DmaGetsIssued;
    ArrayAccessor<uint64_t> Local(Ctx, Array, 512, AccessMode::ReadOnly);
    for (uint32_t I = 0; I != 512; ++I)
      (void)Local.get(I);
    // 4 KiB in one getLarge (single chunk), not 512 transfers.
    EXPECT_EQ(Ctx.accel().Counters.DmaGetsIssued - GetsBefore, 1u);
  });
}

TEST(ArrayAccessor, ReadWriteCommitsOnDestruction) {
  Machine M;
  OuterPtr<uint32_t> Array = allocOuterArray<uint32_t>(M, 64);
  for (uint32_t I = 0; I != 64; ++I)
    M.mainMemory().writeValue<uint32_t>(Array.addr() + I * 4, I);

  offloadSync(M, [&](OffloadContext &Ctx) {
    ArrayAccessor<uint32_t> Local(Ctx, Array, 64);
    for (uint32_t I = 0; I != 64; ++I)
      Local.update(I, [](uint32_t &Value) { Value *= 2; });
  });

  for (uint32_t I = 0; I != 64; ++I)
    EXPECT_EQ(M.mainMemory().readValue<uint32_t>(Array.addr() + I * 4),
              I * 2);
}

TEST(ArrayAccessor, CommitIsIdempotent) {
  Machine M;
  OuterPtr<uint32_t> Array = allocOuterArray<uint32_t>(M, 16);
  offloadSync(M, [&](OffloadContext &Ctx) {
    ArrayAccessor<uint32_t> Local(Ctx, Array, 16);
    Local.set(0, 99);
    Local.commit();
    uint64_t Puts = Ctx.accel().Counters.DmaPutsIssued;
    Local.commit(); // Second commit does nothing.
    EXPECT_EQ(Ctx.accel().Counters.DmaPutsIssued, Puts);
  });
  EXPECT_EQ(M.mainMemory().readValue<uint32_t>(Array.addr()), 99u);
}

TEST(ArrayAccessor, ReadOnlyNeverWritesBack) {
  Machine M;
  OuterPtr<uint32_t> Array = allocOuterArray<uint32_t>(M, 16);
  M.mainMemory().writeValue<uint32_t>(Array.addr(), 7);
  offloadSync(M, [&](OffloadContext &Ctx) {
    uint64_t Puts = Ctx.accel().Counters.DmaPutsIssued;
    {
      ArrayAccessor<uint32_t> Local(Ctx, Array, 16, AccessMode::ReadOnly);
      (void)Local.get(0);
    }
    EXPECT_EQ(Ctx.accel().Counters.DmaPutsIssued, Puts);
  });
  EXPECT_EQ(M.mainMemory().readValue<uint32_t>(Array.addr()), 7u);
}

TEST(ArrayAccessor, ElementAccessIsLocalCost) {
  Machine M;
  OuterPtr<uint32_t> Array = allocOuterArray<uint32_t>(M, 256);
  offloadSync(M, [&](OffloadContext &Ctx) {
    ArrayAccessor<uint32_t> Local(Ctx, Array, 256, AccessMode::ReadOnly);
    uint64_t Start = Ctx.clock().now();
    for (uint32_t I = 0; I != 256; ++I)
      (void)Local.get(I);
    // 256 local reads at local cost; far below even one DMA latency.
    EXPECT_EQ(Ctx.clock().now() - Start,
              256 * M.config().LocalAccessCycles);
  });
}

TEST(ArrayAccessor, LargeArraySpansMultipleDmaChunks) {
  Machine M;
  constexpr uint32_t Count = 8192; // 64 KiB of uint64_t.
  OuterPtr<uint64_t> Array = allocOuterArray<uint64_t>(M, Count);
  for (uint32_t I = 0; I != Count; ++I)
    M.mainMemory().writeValue<uint64_t>(Array.addr() + uint64_t(I) * 8, I);
  offloadSync(M, [&](OffloadContext &Ctx) {
    ArrayAccessor<uint64_t> Local(Ctx, Array, Count);
    for (uint32_t I = 0; I < Count; I += 997)
      ASSERT_EQ(Local.get(I), I);
    Local.set(Count - 1, 0xFFFF);
  });
  EXPECT_EQ(M.mainMemory().readValue<uint64_t>(Array.addr() +
                                               uint64_t(Count - 1) * 8),
            0xFFFFu);
}
