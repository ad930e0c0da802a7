//===- tests/sim_memory_test.cpp - Main memory and local store tests ------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "sim/LocalStore.h"
#include "sim/Machine.h"
#include "sim/MainMemory.h"

#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

using namespace omm::sim;

namespace {

/// \returns whether the host page holding \p Ptr is resident, asked of
/// the kernel with mincore() (which touches nothing).
bool pageResident(const uint8_t *Ptr) {
  uintptr_t Page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
  uintptr_t Base = reinterpret_cast<uintptr_t>(Ptr) & ~(Page - 1);
  unsigned char Resident = 0;
  EXPECT_EQ(mincore(reinterpret_cast<void *>(Base), Page, &Resident), 0);
  return Resident & 1;
}

} // namespace

//===----------------------------------------------------------------------===//
// MainMemory
//===----------------------------------------------------------------------===//

TEST(MainMemory, AllocateReturnsAlignedNonNull) {
  MainMemory Mem(1 << 20);
  GlobalAddr A = Mem.allocate(100);
  EXPECT_FALSE(A.isNull());
  EXPECT_EQ(A.Value % 16, 0u);
  GlobalAddr B = Mem.allocate(1, 64);
  EXPECT_EQ(B.Value % 64, 0u);
  EXPECT_NE(A.Value, B.Value);
}

TEST(MainMemory, RoundsSizesSoAdjacentBlocksDontTouch) {
  MainMemory Mem(1 << 20);
  GlobalAddr A = Mem.allocate(1);
  GlobalAddr B = Mem.allocate(1);
  // A padded DMA of 16 bytes from A must not reach B.
  EXPECT_GE(B.Value - A.Value, 16u);
}

TEST(MainMemory, ReadWriteRoundTrip) {
  MainMemory Mem(1 << 20);
  GlobalAddr A = Mem.allocate(64);
  Mem.writeValue<uint64_t>(A, 0xDEADBEEFCAFEBABEull);
  EXPECT_EQ(Mem.readValue<uint64_t>(A), 0xDEADBEEFCAFEBABEull);
  double Pi = 3.14159;
  Mem.writeValue(A + 8, Pi);
  EXPECT_EQ(Mem.readValue<double>(A + 8), Pi);
}

TEST(MainMemory, DeallocateAllowsReuse) {
  MainMemory Mem(4096);
  GlobalAddr A = Mem.allocate(1024);
  GlobalAddr B = Mem.allocate(1024);
  GlobalAddr C = Mem.allocate(1024);
  EXPECT_EQ(Mem.bytesAllocated(), 3 * 1024u);
  Mem.deallocate(B);
  EXPECT_EQ(Mem.bytesAllocated(), 2 * 1024u);
  // B's hole is reusable.
  GlobalAddr D = Mem.allocate(1024);
  EXPECT_EQ(D.Value, B.Value);
  (void)A;
  (void)C;
}

TEST(MainMemory, CoalescesNeighbours) {
  MainMemory Mem(4096);
  GlobalAddr A = Mem.allocate(512);
  GlobalAddr B = Mem.allocate(512);
  GlobalAddr C = Mem.allocate(512);
  Mem.deallocate(A);
  Mem.deallocate(C);
  Mem.deallocate(B); // Coalesces with both neighbours.
  // The whole 1536-byte run must be allocatable as one block again.
  GlobalAddr D = Mem.allocate(1536);
  EXPECT_EQ(D.Value, A.Value);
}

TEST(MainMemory, NullDeallocateIsNoop) {
  MainMemory Mem(4096);
  Mem.deallocate(GlobalAddr());
  EXPECT_EQ(Mem.bytesAllocated(), 0u);
}

TEST(MainMemory, ContainsRejectsNullAndOverflow) {
  MainMemory Mem(4096);
  EXPECT_FALSE(Mem.contains(GlobalAddr(), 1));
  EXPECT_TRUE(Mem.contains(GlobalAddr(16), 16));
  EXPECT_FALSE(Mem.contains(GlobalAddr(4090), 16));
  EXPECT_FALSE(Mem.contains(GlobalAddr(UINT64_MAX - 4), 16));
}

TEST(MainMemoryDeath, OutOfBoundsReadAborts) {
  MainMemory Mem(4096);
  uint8_t Byte;
  EXPECT_DEATH(Mem.read(&Byte, GlobalAddr(5000), 1), "out-of-bounds");
}

TEST(MainMemoryDeath, OutOfBoundsWriteAborts) {
  MainMemory Mem(4096);
  uint32_t Word = 0;
  EXPECT_DEATH(Mem.write(GlobalAddr(4094), &Word, sizeof(Word)),
               "main memory: out-of-bounds write");
}

TEST(MainMemoryDeath, ExhaustionAborts) {
  MainMemory Mem(4096);
  EXPECT_DEATH(Mem.allocate(1 << 20), "out of memory");
}

TEST(MainMemoryDeath, DoubleFreeAborts) {
  MainMemory Mem(4096);
  GlobalAddr A = Mem.allocate(64);
  Mem.deallocate(A);
  EXPECT_DEATH(Mem.deallocate(A), "not live");
}

TEST(MainMemory, AllocationStressWithFragmentation) {
  MainMemory Mem(1 << 16);
  std::vector<GlobalAddr> Blocks;
  for (int I = 0; I != 100; ++I)
    Blocks.push_back(Mem.allocate(64 + (I % 7) * 16));
  // Free every other block, then refill.
  for (size_t I = 0; I < Blocks.size(); I += 2)
    Mem.deallocate(Blocks[I]);
  for (size_t I = 0; I < Blocks.size(); I += 2)
    Blocks[I] = Mem.allocate(32);
  for (GlobalAddr A : Blocks)
    Mem.deallocate(A);
  EXPECT_EQ(Mem.bytesAllocated(), 0u);
  // After everything is freed, the arena is one block again.
  GlobalAddr Big = Mem.allocate((1 << 16) - MainMemory::GuardBytes);
  EXPECT_FALSE(Big.isNull());
}

TEST(MainMemory, FreshMemoryReadsZero) {
  const uint64_t Size = MachineConfig::cellLike().MainMemorySize;
  const GlobalAddr Probes[] = {GlobalAddr(MainMemory::GuardBytes),
                               GlobalAddr(Size / 2), GlobalAddr(Size - 16)};
  auto ExpectZero = [&](const MainMemory &Mem) {
    for (GlobalAddr A : Probes) {
      uint8_t Bytes[16];
      Mem.read(Bytes, A, sizeof(Bytes));
      for (uint8_t B : Bytes)
        EXPECT_EQ(B, 0u) << "at address " << A.Value;
    }
  };

  MainMemory Mem(Size);
  ExpectZero(Mem);

  // A machine built after another one dirtied the same addresses and
  // was destroyed still starts from zeroed memory.
  {
    Machine First;
    ASSERT_EQ(First.mainMemory().size(), Size);
    ExpectZero(First.mainMemory());
    uint8_t Dirty[16];
    std::memset(Dirty, 0xA5, sizeof(Dirty));
    for (GlobalAddr A : Probes)
      First.mainMemory().write(A, Dirty, sizeof(Dirty));
  }
  Machine Second;
  ExpectZero(Second.mainMemory());
}

TEST(MainMemory, UntouchedPagesAreNotCommitted) {
  constexpr uint64_t Size = 8 << 20;
  const GlobalAddr Probe(Size / 2);
  // Dirty and destroy two memories of the same size first. A C library
  // allocator would serve the third from the heap they leave behind and
  // clear (so commit) all of it; the backing store must not.
  for (int I = 0; I != 2; ++I) {
    MainMemory Dirty(Size);
    Dirty.writeValue<uint64_t>(Probe, ~uint64_t(0));
    ASSERT_TRUE(pageResident(Dirty.rawPtr(Probe, 1)));
  }
  MainMemory Mem(Size);
  EXPECT_FALSE(pageResident(Mem.rawPtr(Probe, 1)));
  EXPECT_EQ(Mem.readValue<uint64_t>(Probe), 0u);
}

//===----------------------------------------------------------------------===//
// LocalStore
//===----------------------------------------------------------------------===//

TEST(LocalStore, StackAllocationAndReset) {
  LocalStore Store(4096);
  auto Mark = Store.mark();
  LocalAddr A = Store.alloc(100);
  LocalAddr B = Store.alloc(100);
  EXPECT_GT(B.Value, A.Value);
  Store.reset(Mark);
  // Reset makes the same space reusable.
  LocalAddr C = Store.alloc(100);
  EXPECT_EQ(C.Value, A.Value);
}

TEST(LocalStore, RespectsAlignment) {
  LocalStore Store(4096);
  Store.alloc(4);
  LocalAddr A = Store.alloc(16, 128);
  EXPECT_EQ(A.Value % 128, 0u);
}

TEST(LocalStore, ReadWriteRoundTrip) {
  LocalStore Store(4096);
  LocalAddr A = Store.alloc(64);
  Store.writeValue<float>(A, 2.5f);
  EXPECT_EQ(Store.readValue<float>(A), 2.5f);
}

TEST(LocalStore, TracksPeakUsage) {
  LocalStore Store(4096);
  auto Mark = Store.mark();
  Store.alloc(1024);
  uint32_t Peak = Store.peakUsage();
  Store.reset(Mark);
  EXPECT_EQ(Store.peakUsage(), Peak); // Peak survives reset.
  EXPECT_GE(Peak, 1024u);
}

TEST(LocalStore, BytesFreeDecreases) {
  LocalStore Store(4096);
  uint32_t Before = Store.bytesFree();
  Store.alloc(512);
  EXPECT_EQ(Store.bytesFree(), Before - 512);
}

TEST(LocalStore, UntouchedPagesAreNotCommitted) {
  LocalStore Store(MachineConfig::LocalStoreSize);
  const LocalAddr Probe(MachineConfig::LocalStoreSize / 2);
  EXPECT_FALSE(pageResident(Store.rawPtr(Probe, 1)));
  Store.writeValue<uint32_t>(Probe, 7);
  EXPECT_TRUE(pageResident(Store.rawPtr(Probe, 1)));
}

TEST(LocalStoreDeath, CapacityPressureAborts) {
  // The paper's local-store pressure: 256K is a hard limit.
  LocalStore Store(4096);
  Store.alloc(4000);
  EXPECT_DEATH(Store.alloc(256), "out of scratch-pad");
}

TEST(LocalStoreDeath, OutOfBoundsAccessAborts) {
  LocalStore Store(4096);
  uint8_t Byte = 0;
  EXPECT_DEATH(Store.write(LocalAddr(5000), &Byte, 1), "out-of-bounds");
}

TEST(LocalStoreDeath, OutOfBoundsReadAborts) {
  LocalStore Store(4096);
  uint32_t Word;
  EXPECT_DEATH(Store.read(&Word, LocalAddr(4094), sizeof(Word)),
               "local store: out-of-bounds read");
}
