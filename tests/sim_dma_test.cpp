//===- tests/sim_dma_test.cpp - MFC DMA engine tests -----------------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "sim/Machine.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

using namespace omm::sim;

namespace {

class DmaTest : public ::testing::Test {
protected:
  DmaTest() : M(MachineConfig::cellLike()) {}

  Machine M;
};

} // namespace

TEST_F(DmaTest, GetCopiesDataFunctionally) {
  Accelerator &A = M.accel(0);
  GlobalAddr Src = M.allocGlobal(64);
  for (int I = 0; I != 8; ++I)
    M.mainMemory().writeValue<uint64_t>(Src + I * 8, 0x1111111111111111ull * I);
  LocalAddr Dst = A.Store.alloc(64);
  A.Dma.get(Dst, Src, 64, 0);
  A.Dma.waitTag(0);
  for (int I = 0; I != 8; ++I)
    EXPECT_EQ(A.Store.readValue<uint64_t>(Dst + I * 8),
              0x1111111111111111ull * I);
}

TEST_F(DmaTest, PutCopiesDataFunctionally) {
  Accelerator &A = M.accel(0);
  GlobalAddr Dst = M.allocGlobal(32);
  LocalAddr Src = A.Store.alloc(32);
  A.Store.writeValue<uint32_t>(Src, 0xABCD1234u);
  A.Dma.put(Dst, Src, 32, 3);
  A.Dma.waitTag(3);
  EXPECT_EQ(M.mainMemory().readValue<uint32_t>(Dst), 0xABCD1234u);
}

TEST_F(DmaTest, SmallTransfersOfLegalSizesWork) {
  Accelerator &A = M.accel(0);
  GlobalAddr G = M.allocGlobal(16);
  LocalAddr L = A.Store.alloc(16);
  for (uint32_t Size : {1u, 2u, 4u, 8u}) {
    A.Store.writeValue<uint8_t>(L, static_cast<uint8_t>(Size));
    A.Dma.put(G, L, Size, 0);
    A.Dma.waitTag(0);
    EXPECT_EQ(M.mainMemory().readValue<uint8_t>(G), Size);
  }
}

TEST_F(DmaTest, OverlappedTagsSaveOneLatency) {
  // The Figure 1 idiom: two gets on one tag, one wait. Versus the
  // serialised get+wait+get+wait, the overlap saves a full startup
  // latency (the data phases still serialise on the engine).
  const MachineConfig &Cfg = M.config();
  GlobalAddr Src = M.allocGlobal(128);

  Accelerator &A = M.accel(0); // Overlapped.
  LocalAddr L0 = A.Store.alloc(64);
  LocalAddr L1 = A.Store.alloc(64);
  A.Dma.get(L0, Src, 64, 0);
  A.Dma.get(L1, Src + 64, 64, 0);
  A.Dma.waitTag(0);
  uint64_t Overlapped = A.Clock.now();

  Accelerator &B = M.accel(1); // Serialised.
  LocalAddr M0 = B.Store.alloc(64);
  LocalAddr M1 = B.Store.alloc(64);
  B.Dma.get(M0, Src, 64, 0);
  B.Dma.waitTag(0);
  B.Dma.get(M1, Src + 64, 64, 0);
  B.Dma.waitTag(0);
  uint64_t Serialised = B.Clock.now();

  // The overlap hides approximately one startup latency (exact value
  // shifts by issue/data cycles).
  uint64_t Saved = Serialised - Overlapped;
  EXPECT_GE(Saved, Cfg.DmaLatencyCycles - Cfg.DmaIssueCycles);
  EXPECT_LE(Saved, Cfg.DmaLatencyCycles + Cfg.DmaIssueCycles +
                       64 / Cfg.DmaBytesPerCycle);
}

TEST_F(DmaTest, ExactTimingModel) {
  const MachineConfig &Cfg = M.config();
  Accelerator &A = M.accel(0);
  GlobalAddr Src = M.allocGlobal(64);
  LocalAddr Dst = A.Store.alloc(64);
  A.Dma.get(Dst, Src, 64, 0);
  A.Dma.waitTag(0);
  uint64_t Data = 64 / Cfg.DmaBytesPerCycle;
  EXPECT_EQ(A.Clock.now(),
            Cfg.DmaIssueCycles + Cfg.DmaLatencyCycles + Data);
  EXPECT_EQ(A.Counters.DmaStallCycles, Cfg.DmaLatencyCycles + Data);
}

TEST_F(DmaTest, WaitOnIdleTagIsFree) {
  Accelerator &A = M.accel(0);
  A.Dma.waitTag(7);
  EXPECT_EQ(A.Clock.now(), 0u);
  EXPECT_EQ(A.Counters.DmaStallCycles, 0u);
}

TEST_F(DmaTest, WaitMaskOnlyWaitsSelectedTags) {
  Accelerator &A = M.accel(0);
  GlobalAddr Src = M.allocGlobal(256);
  LocalAddr L0 = A.Store.alloc(64);
  LocalAddr L1 = A.Store.alloc(64);
  A.Dma.get(L0, Src, 64, 0);
  A.Dma.get(L1, Src + 64, 64, 1);
  EXPECT_EQ(A.Dma.pendingTransfers(), 2u);
  A.Dma.waitTagMask(1u << 0);
  EXPECT_EQ(A.Dma.pendingTransfers(), 1u);
  A.Dma.waitTagMask(1u << 1);
  EXPECT_EQ(A.Dma.pendingTransfers(), 0u);
}

TEST_F(DmaTest, WaitAllDrainsEverything) {
  Accelerator &A = M.accel(0);
  GlobalAddr Src = M.allocGlobal(256);
  for (unsigned Tag = 0; Tag != 4; ++Tag) {
    LocalAddr L = A.Store.alloc(64);
    A.Dma.get(L, Src + Tag * 64, 64, Tag);
  }
  A.Dma.waitAll();
  EXPECT_EQ(A.Dma.pendingTransfers(), 0u);
}

TEST_F(DmaTest, FenceOrdersSameTagTransfers) {
  // A fenced get starts only after the earlier same-tag put completes.
  const MachineConfig &Cfg = M.config();
  Accelerator &A = M.accel(0);
  GlobalAddr G = M.allocGlobal(64);
  LocalAddr L = A.Store.alloc(64);

  A.Dma.put(G, L, 64, 2);
  uint64_t PutDone = A.Dma.lastCompletionForTag(2);
  A.Dma.getFenced(L, G, 64, 2);
  uint64_t GetDone = A.Dma.lastCompletionForTag(2);
  uint64_t Data = 64 / Cfg.DmaBytesPerCycle;
  EXPECT_EQ(GetDone, PutDone + Cfg.DmaLatencyCycles + Data);
  A.Dma.waitTag(2);
}

TEST_F(DmaTest, BarrierOrdersAcrossTags) {
  // A fenced transfer only orders within its tag; a barriered one
  // orders after everything on the engine.
  const MachineConfig &Cfg = M.config();
  GlobalAddr G = M.allocGlobal(256);
  uint64_t Data = 64 / Cfg.DmaBytesPerCycle;

  Accelerator &A = M.accel(0);
  LocalAddr LA = A.Store.alloc(192);
  A.Dma.put(G, LA, 64, 0);
  uint64_t PutDone = A.Dma.lastCompletionForTag(0);
  A.Dma.getBarrier(LA + 64, G + 64, 64, 1); // Different tag, ordered.
  EXPECT_EQ(A.Dma.lastCompletionForTag(1),
            PutDone + Cfg.DmaLatencyCycles + Data);
  A.Dma.waitAll();

  Accelerator &B = M.accel(1);
  LocalAddr LB = B.Store.alloc(192);
  B.Dma.put(G, LB, 64, 0);
  uint64_t OtherPutDone = B.Dma.lastCompletionForTag(0);
  B.Dma.getFenced(LB + 64, G + 64, 64, 1); // Fence on an idle tag:
  // starts as soon as the channel allows, well before the put is done.
  EXPECT_LT(B.Dma.lastCompletionForTag(1), OtherPutDone + Cfg.DmaLatencyCycles + Data);
  B.Dma.waitAll();
}

TEST_F(DmaTest, QueueDepthStallsIssuer) {
  MachineConfig Cfg = MachineConfig::cellLike();
  Cfg.DmaQueueDepth = 2;
  Machine Small(Cfg);
  Accelerator &A = Small.accel(0);
  GlobalAddr Src = Small.allocGlobal(1024);
  LocalAddr Dst = A.Store.alloc(1024);
  for (unsigned I = 0; I != 4; ++I)
    A.Dma.get(Dst + I * 256, Src + I * 256, 256, 0);
  EXPECT_GT(A.Counters.DmaQueueFullStallCycles, 0u);
  A.Dma.waitAll();
}

TEST_F(DmaTest, GetLargeSplitsIntoLegalChunks) {
  Accelerator &A = M.accel(0);
  uint64_t Big = uint64_t(M.config().MaxDmaTransferSize) * 2 + 4096;
  GlobalAddr Src = M.allocGlobal(Big);
  for (uint64_t I = 0; I != Big / 8; ++I)
    M.mainMemory().writeValue<uint64_t>(Src + I * 8, I * 0x9E3779B9ull);
  LocalAddr Dst = A.Store.alloc(static_cast<uint32_t>(Big));
  A.Dma.getLarge(Dst, Src, Big, 0);
  A.Dma.waitTag(0);
  EXPECT_EQ(A.Counters.DmaGetsIssued, 3u);
  for (uint64_t I = 0; I != Big / 8; ++I)
    ASSERT_EQ(A.Store.readValue<uint64_t>(Dst + static_cast<uint32_t>(I * 8)),
              I * 0x9E3779B9ull);
}

TEST_F(DmaTest, ListTransferCopiesEveryElement) {
  Accelerator &A = M.accel(0);
  GlobalAddr G = M.allocGlobal(1024);
  for (int I = 0; I != 128; ++I)
    M.mainMemory().writeValue<uint64_t>(G + I * 8, I * 11ull);
  LocalAddr L = A.Store.alloc(256);
  // Gather three scattered 64-byte records into contiguous local store.
  DmaEngine::ListElement Elements[3] = {
      {L, G + 0, 64}, {L + 64, G + 512, 64}, {L + 128, G + 256, 64}};
  A.Dma.getList(Elements, 3, 0);
  A.Dma.waitTag(0);
  EXPECT_EQ(A.Store.readValue<uint64_t>(L), 0u);
  EXPECT_EQ(A.Store.readValue<uint64_t>(L + 64), 64 * 11ull);
  EXPECT_EQ(A.Store.readValue<uint64_t>(L + 128), 32 * 11ull);
}

TEST_F(DmaTest, ListTransferPaysOneLatency) {
  const MachineConfig &Cfg = M.config();
  GlobalAddr G = M.allocGlobal(1024);

  // List form: one command, one latency.
  Accelerator &A = M.accel(0);
  LocalAddr LA = A.Store.alloc(128);
  DmaEngine::ListElement Elements[2] = {{LA, G, 64}, {LA + 64, G + 64, 64}};
  A.Dma.getList(Elements, 2, 0);
  A.Dma.waitTag(0);
  uint64_t Data = 128 / Cfg.DmaBytesPerCycle;
  EXPECT_EQ(A.Clock.now(),
            Cfg.DmaIssueCycles + Cfg.DmaLatencyCycles + Data);

  // Two independent gets: latencies pipeline but the second one's
  // startup still lands after the first data phase.
  Accelerator &B = M.accel(1);
  LocalAddr LB = B.Store.alloc(128);
  B.Dma.get(LB, G, 64, 0);
  B.Dma.get(LB + 64, G + 64, 64, 0);
  B.Dma.waitTag(0);
  EXPECT_GT(B.Clock.now(), A.Clock.now());
}

TEST_F(DmaTest, ListTransferIsOneQueueSlotAndOneIssueCounter) {
  Accelerator &A = M.accel(0);
  GlobalAddr G = M.allocGlobal(1024);
  LocalAddr L = A.Store.alloc(512);
  std::vector<DmaEngine::ListElement> Elements;
  for (uint32_t I = 0; I != 8; ++I)
    Elements.push_back({L + I * 64, G + I * 64, 64});
  A.Dma.getList(Elements.data(), 8, 0);
  EXPECT_EQ(A.Counters.DmaGetsIssued, 1u); // One MFC command.
  EXPECT_EQ(A.Counters.DmaBytesRead, 512u);
  A.Dma.waitTag(0);
}

TEST_F(DmaTest, PutListWritesBack) {
  Accelerator &A = M.accel(0);
  GlobalAddr G = M.allocGlobal(256);
  LocalAddr L = A.Store.alloc(128);
  A.Store.writeValue<uint32_t>(L, 0xAAAA);
  A.Store.writeValue<uint32_t>(L + 64, 0xBBBB);
  DmaEngine::ListElement Elements[2] = {{L, G + 64, 64},
                                        {L + 64, G + 128, 64}};
  A.Dma.putList(Elements, 2, 0);
  A.Dma.waitTag(0);
  EXPECT_EQ(M.mainMemory().readValue<uint32_t>(G + 64), 0xAAAAu);
  EXPECT_EQ(M.mainMemory().readValue<uint32_t>(G + 128), 0xBBBBu);
  EXPECT_EQ(A.Counters.DmaPutsIssued, 1u);
}

TEST_F(DmaTest, EmptyListIsNoop) {
  Accelerator &A = M.accel(0);
  A.Dma.getList(nullptr, 0, 0);
  EXPECT_EQ(A.Dma.pendingTransfers(), 0u);
  EXPECT_EQ(A.Clock.now(), 0u);
}

TEST_F(DmaTest, OneElementListIsAPlainGet) {
  // Every get/put form issues through one command routine, a plain get
  // as a one-element list. Both spellings must charge the same cycles
  // and counters and report the same transfer.
  struct LastIssue : DmaObserver {
    DmaTransfer Last;
    unsigned Issues = 0;
    void onIssue(const DmaTransfer &T) override {
      Last = T;
      ++Issues;
    }
  };
  auto Run = [](bool AsList, LastIssue &Obs) {
    Machine Fresh(MachineConfig::cellLike());
    Fresh.addObserver(&Obs);
    Accelerator &A = Fresh.accel(0);
    GlobalAddr G = Fresh.allocGlobal(256);
    LocalAddr L = A.Store.alloc(256);
    A.Dma.get(L, G, 64, 1); // Something in flight on the channel.
    if (AsList) {
      DmaEngine::ListElement E{L + 64, G + 64, 128};
      A.Dma.getList(&E, 1, 2);
    } else {
      A.Dma.get(L + 64, G + 64, 128, 2);
    }
    A.Dma.waitAll();
    Fresh.removeObserver(&Obs);
    return std::make_pair(A.Clock.now(), A.Counters);
  };
  LastIssue ListObs, GetObs;
  auto [ListClock, ListCounters] = Run(/*AsList=*/true, ListObs);
  auto [GetClock, GetCounters] = Run(/*AsList=*/false, GetObs);
  EXPECT_EQ(ListClock, GetClock);
  EXPECT_TRUE(ListCounters == GetCounters);
  EXPECT_EQ(ListCounters.DmaGetsIssued, 2u);
  ASSERT_EQ(ListObs.Issues, 2u);
  ASSERT_EQ(GetObs.Issues, 2u);
  const DmaTransfer &LT = ListObs.Last, &GT = GetObs.Last;
  EXPECT_EQ(LT.Dir, GT.Dir);
  EXPECT_EQ(LT.AccelId, GT.AccelId);
  EXPECT_EQ(LT.Local, GT.Local);
  EXPECT_EQ(LT.Global, GT.Global);
  EXPECT_EQ(LT.Size, GT.Size);
  EXPECT_EQ(LT.Tag, GT.Tag);
  EXPECT_EQ(LT.Fenced, GT.Fenced);
  EXPECT_EQ(LT.Barriered, GT.Barriered);
  EXPECT_EQ(LT.IssueCycle, GT.IssueCycle);
  EXPECT_EQ(LT.CompleteCycle, GT.CompleteCycle);
}

TEST_F(DmaTest, CountersTrackTraffic) {
  Accelerator &A = M.accel(0);
  GlobalAddr G = M.allocGlobal(128);
  LocalAddr L = A.Store.alloc(128);
  A.Dma.get(L, G, 128, 0);
  A.Dma.put(G, L, 64, 1);
  A.Dma.waitAll();
  EXPECT_EQ(A.Counters.DmaGetsIssued, 1u);
  EXPECT_EQ(A.Counters.DmaPutsIssued, 1u);
  EXPECT_EQ(A.Counters.DmaBytesRead, 128u);
  EXPECT_EQ(A.Counters.DmaBytesWritten, 64u);
}

TEST_F(DmaTest, SharedMemoryConfigIsMuchCheaper) {
  Machine Shared(MachineConfig::sharedMemoryLike());
  GlobalAddr SharedSrc = Shared.allocGlobal(4096);
  Accelerator &SA = Shared.accel(0);
  LocalAddr SDst = SA.Store.alloc(4096);
  SA.Dma.getLarge(SDst, SharedSrc, 4096, 0);
  SA.Dma.waitTag(0);

  GlobalAddr CellSrc = M.allocGlobal(4096);
  Accelerator &CA = M.accel(0);
  LocalAddr CDst = CA.Store.alloc(4096);
  CA.Dma.getLarge(CDst, CellSrc, 4096, 0);
  CA.Dma.waitTag(0);

  EXPECT_LT(SA.Clock.now() * 4, CA.Clock.now());
}

//===----------------------------------------------------------------------===//
// Hardware-fault conditions.
//===----------------------------------------------------------------------===//

using DmaDeathTest = DmaTest;

TEST_F(DmaDeathTest, IllegalSizeAborts) {
  Accelerator &A = M.accel(0);
  GlobalAddr G = M.allocGlobal(64);
  LocalAddr L = A.Store.alloc(64);
  EXPECT_DEATH(A.Dma.get(L, G, 3, 0), "illegal transfer size");
  EXPECT_DEATH(A.Dma.get(L, G, 24, 0), "illegal transfer size");
  EXPECT_DEATH(A.Dma.get(L, G, 0, 0), "illegal transfer size");
}

TEST_F(DmaDeathTest, MisalignmentAborts) {
  Accelerator &A = M.accel(0);
  GlobalAddr G = M.allocGlobal(64);
  LocalAddr L = A.Store.alloc(64);
  EXPECT_DEATH(A.Dma.get(L + 4, G, 16, 0), "misaligned");
  EXPECT_DEATH(A.Dma.get(L, G + 2, 4, 0), "misaligned");
}

TEST_F(DmaDeathTest, BadTagAborts) {
  Accelerator &A = M.accel(0);
  GlobalAddr G = M.allocGlobal(64);
  LocalAddr L = A.Store.alloc(64);
  EXPECT_DEATH(A.Dma.get(L, G, 16, 99), "tag out of range");
}

TEST_F(DmaDeathTest, OutOfBoundsTargetsAbort) {
  Accelerator &A = M.accel(0);
  GlobalAddr G = M.allocGlobal(64);
  LocalAddr L = A.Store.alloc(64);
  EXPECT_DEATH(A.Dma.get(LocalAddr(300000), G, 16, 0), "local address");
  EXPECT_DEATH(A.Dma.get(L, GlobalAddr(1ull << 40), 16, 0),
               "global address");
}
