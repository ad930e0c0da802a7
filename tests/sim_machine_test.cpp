//===- tests/sim_machine_test.cpp - Machine-level tests --------------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "sim/Machine.h"

#include "support/OStream.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>

using namespace omm::sim;

TEST(CycleClock, AdvanceAndStallAccounting) {
  CycleClock Clock;
  EXPECT_EQ(Clock.now(), 0u);
  Clock.advance(100);
  EXPECT_EQ(Clock.now(), 100u);
  EXPECT_EQ(Clock.advanceTo(50), 0u);  // The past costs nothing.
  EXPECT_EQ(Clock.now(), 100u);
  EXPECT_EQ(Clock.advanceTo(250), 150u); // Stall cycles reported.
  EXPECT_EQ(Clock.now(), 250u);
}

TEST(CycleClock, ResetToNeverGoesBackward) {
  CycleClock Clock;
  Clock.advance(500);
  Clock.mergeTo(200);
  EXPECT_EQ(Clock.now(), 500u);
  Clock.mergeTo(900);
  EXPECT_EQ(Clock.now(), 900u);
}

TEST(MachineConfig, CellLikeDefaults) {
  MachineConfig Cfg = MachineConfig::cellLike();
  EXPECT_EQ(Cfg.NumAccelerators, 6u);
  EXPECT_EQ(Cfg.LocalStoreSize, 256u * 1024u);
  EXPECT_EQ(Cfg.NumDmaTags, 32u);
}

TEST(MachineConfig, LegalDmaSizes) {
  MachineConfig Cfg;
  for (uint64_t Size : {1u, 2u, 4u, 8u, 16u, 32u, 16384u})
    EXPECT_TRUE(Cfg.isLegalDmaSize(Size)) << Size;
  for (uint64_t Size : {0u, 3u, 5u, 12u, 17u, 24u, 16400u, 1u << 20})
    EXPECT_FALSE(Cfg.isLegalDmaSize(Size)) << Size;
}

TEST(Machine, ConstructsAccelerators) {
  Machine M;
  EXPECT_EQ(M.numAccelerators(), 6u);
  for (unsigned I = 0; I != 6; ++I) {
    EXPECT_EQ(M.accel(I).id(), I);
    EXPECT_EQ(M.accel(I).Store.size(), 256u * 1024u);
  }
}

TEST(Machine, HostAccessChargesCycles) {
  Machine M;
  GlobalAddr A = M.allocGlobal(64);
  uint64_t Before = M.hostClock().now();
  M.hostWrite<uint64_t>(A, 42);
  uint64_t AfterWrite = M.hostClock().now();
  EXPECT_EQ(AfterWrite - Before, M.config().HostAccessCycles);
  EXPECT_EQ(M.hostRead<uint64_t>(A), 42u);
  EXPECT_GT(M.hostClock().now(), AfterWrite);
  EXPECT_EQ(M.hostCounters().HostLoads, 1u);
  EXPECT_EQ(M.hostCounters().HostStores, 1u);
}

TEST(Machine, HostAccessCostScalesWithSize) {
  Machine M;
  GlobalAddr A = M.allocGlobal(256);
  uint64_t Before = M.hostClock().now();
  uint8_t Buffer[256];
  M.hostReadBytes(Buffer, A, 256);
  uint64_t Cost = M.hostClock().now() - Before;
  EXPECT_EQ(Cost, 256 / M.config().HostAccessGranularity *
                      M.config().HostAccessCycles);
}

TEST(Machine, HostComputeAdvancesClockAndCounter) {
  Machine M;
  M.hostCompute(1234);
  EXPECT_EQ(M.hostClock().now(), 1234u);
  EXPECT_EQ(M.hostCounters().ComputeCycles, 1234u);
}

TEST(Machine, GlobalTimeIsMaxOverCores) {
  Machine M;
  M.hostCompute(100);
  M.accel(2).Clock.advance(500);
  EXPECT_EQ(M.globalTime(), 500u);
  M.hostCompute(1000);
  EXPECT_EQ(M.globalTime(), 1100u);
}

TEST(Machine, TotalCountersMerge) {
  Machine M;
  GlobalAddr G = M.allocGlobal(64);
  M.hostWrite<uint32_t>(G, 1);
  Accelerator &A = M.accel(0);
  LocalAddr L = A.Store.alloc(64);
  A.Dma.get(L, G, 64, 0);
  A.Dma.waitTag(0);
  PerfCounters Total = M.totalCounters();
  EXPECT_EQ(Total.HostStores, 1u);
  EXPECT_EQ(Total.DmaGetsIssued, 1u);
  EXPECT_EQ(Total.DmaBytesRead, 64u);
}

namespace {

/// The counter table expanded into (field, label) rows, in table order.
struct CounterRow {
  uint64_t PerfCounters::*Field;
  const char *Label;
};

const CounterRow CounterTable[] = {
#define OMM_PERF_COUNTER(Name, Label) {&PerfCounters::Name, Label},
#include "sim/PerfCounters.def"
};

} // namespace

TEST(PerfCounters, TableDrivesMergeSubtractAndPrint) {
  // Every field is a table entry: nothing is declared outside it.
  EXPECT_EQ(sizeof(PerfCounters), std::size(CounterTable) * sizeof(uint64_t));

  // Distinct values per counter, so a dropped or crossed field shows.
  PerfCounters A, B;
  uint64_t N = 1;
  for (const CounterRow &Row : CounterTable) {
    A.*Row.Field = N * 1000;
    B.*Row.Field = N++;
  }
  PerfCounters Sum = A;
  Sum.merge(B);
  for (const CounterRow &Row : CounterTable)
    EXPECT_EQ(Sum.*Row.Field, A.*Row.Field + B.*Row.Field) << Row.Label;
  Sum.subtract(B);
  EXPECT_EQ(Sum, A);

  // One "<value>  <label>" row per entry, in table order.
  std::FILE *F = std::tmpfile();
  ASSERT_NE(F, nullptr);
  omm::OStream OS(F);
  A.print(OS);
  OS.flush();
  std::rewind(F);
  char Line[128], Want[128];
  size_t Rows = 0;
  while (std::fgets(Line, sizeof(Line), F)) {
    ASSERT_LT(Rows, std::size(CounterTable)) << "extra row: " << Line;
    const CounterRow &Row = CounterTable[Rows++];
    std::snprintf(Want, sizeof(Want), "%14llu  %s\n",
                  static_cast<unsigned long long>(A.*Row.Field), Row.Label);
    EXPECT_STREQ(Line, Want);
  }
  std::fclose(F);
  EXPECT_EQ(Rows, std::size(CounterTable));
}

namespace {

/// Observer that counts callbacks, to verify installation and routing.
class CountingObserver : public DmaObserver {
public:
  void onIssue(const DmaTransfer &) override { ++Issues; }
  void onWait(unsigned, uint32_t, uint64_t, uint64_t) override { ++Waits; }
  void onHostAccess(GlobalAddr, uint64_t, bool, uint64_t) override {
    ++HostAccesses;
  }
  unsigned Issues = 0;
  unsigned Waits = 0;
  unsigned HostAccesses = 0;
};

} // namespace

TEST(Machine, ObserverSeesTraffic) {
  Machine M;
  CountingObserver Obs;
  M.addObserver(&Obs);
  GlobalAddr G = M.allocGlobal(64);
  M.hostWrite<uint32_t>(G, 7);
  Accelerator &A = M.accel(0);
  LocalAddr L = A.Store.alloc(64);
  A.Dma.get(L, G, 64, 0);
  A.Dma.waitTag(0);
  EXPECT_EQ(Obs.Issues, 1u);
  EXPECT_EQ(Obs.Waits, 1u);
  EXPECT_EQ(Obs.HostAccesses, 1u);
  M.removeObserver(&Obs);
  A.Dma.get(L, G, 64, 0);
  A.Dma.waitTag(0);
  EXPECT_EQ(Obs.Issues, 1u); // Detached observers see nothing.
}

TEST(Machine, ObserverMulticast) {
  Machine M;
  CountingObserver First, Second;
  M.addObserver(&First);
  M.addObserver(&Second);
  GlobalAddr G = M.allocGlobal(64);
  Accelerator &A = M.accel(0);
  LocalAddr L = A.Store.alloc(64);
  A.Dma.get(L, G, 64, 0);
  A.Dma.waitTag(0);
  EXPECT_EQ(First.Issues, 1u); // Both observers see every event.
  EXPECT_EQ(Second.Issues, 1u);
  EXPECT_EQ(First.Waits, 1u);
  EXPECT_EQ(Second.Waits, 1u);
  M.removeObserver(&First);
  A.Dma.put(G, L, 64, 1);
  A.Dma.waitTag(1);
  EXPECT_EQ(First.Issues, 1u); // Removal is per-observer...
  EXPECT_EQ(Second.Issues, 2u); // ...the rest keep observing.
}

TEST(MachineDomains, TopologyArithmetic) {
  MachineConfig Cfg = MachineConfig::cellLike();
  // Flat (the default): everything, host included, is domain 0.
  EXPECT_EQ(Cfg.AcceleratorsPerDomain, 0u);
  EXPECT_EQ(Cfg.numDomains(), 1u);
  EXPECT_EQ(Cfg.domainOf(5), 0u);
  EXPECT_TRUE(Cfg.sameDomain(0, 5));

  Cfg.AcceleratorsPerDomain = 2; // Six cores in three pairs.
  EXPECT_EQ(Cfg.numDomains(), 3u);
  EXPECT_EQ(Cfg.domainOf(0), 0u);
  EXPECT_EQ(Cfg.domainOf(1), 0u);
  EXPECT_EQ(Cfg.domainOf(2), 1u);
  EXPECT_EQ(Cfg.domainOf(5), 2u);
  EXPECT_TRUE(Cfg.sameDomain(4, 5));
  EXPECT_FALSE(Cfg.sameDomain(1, 2));

  Cfg.AcceleratorsPerDomain = 4; // Ragged split: 4 + 2.
  EXPECT_EQ(Cfg.numDomains(), 2u);
  EXPECT_EQ(Cfg.domainOf(3), 0u);
  EXPECT_EQ(Cfg.domainOf(4), 1u);

  Machine M(Cfg); // The Machine forwards the same arithmetic.
  EXPECT_EQ(M.numDomains(), 2u);
  EXPECT_EQ(M.domainOf(5), 1u);
  EXPECT_TRUE(M.sameDomain(4, 5));
}

TEST(MachineDomains, CostFormulasChargeThePremiumOnlyAcrossDomains) {
  MachineConfig Cfg = MachineConfig::cellLike();
  Cfg.AcceleratorsPerDomain = 2;
  Cfg.InterDomainDmaLatencyCycles = 111;
  Cfg.InterDomainDoorbellCycles = 222;
  Cfg.InterDomainDescriptorDmaCycles = 333;

  // Main memory and the host live in domain 0: accelerators there pay
  // no premium; remote-domain accelerators pay it on every formula.
  EXPECT_EQ(Cfg.interDomainDmaPremium(1), 0u);
  EXPECT_EQ(Cfg.interDomainDmaPremium(2), 111u);
  EXPECT_EQ(Cfg.hostDoorbellCycles(0), Cfg.MailboxDoorbellCycles);
  EXPECT_EQ(Cfg.hostDoorbellCycles(3),
            Cfg.MailboxDoorbellCycles + 222u);
  EXPECT_EQ(Cfg.parcelSendCycles(0, 1),
            Cfg.PeerDoorbellCycles + Cfg.PeerDescriptorDmaCycles);
  EXPECT_EQ(Cfg.parcelSendCycles(1, 2),
            Cfg.PeerDoorbellCycles + Cfg.PeerDescriptorDmaCycles +
                222u + 333u);
  EXPECT_EQ(Cfg.stealTransferCycles(4, 5),
            Cfg.StealGrantCycles + Cfg.MailboxDescriptorCycles);
  EXPECT_EQ(Cfg.stealTransferCycles(3, 4),
            Cfg.StealGrantCycles + Cfg.MailboxDescriptorCycles + 333u);

  // Flat config: the scrambled premiums are unreachable by definition.
  Cfg.AcceleratorsPerDomain = 0;
  EXPECT_EQ(Cfg.interDomainDmaPremium(5), 0u);
  EXPECT_EQ(Cfg.hostDoorbellCycles(5), Cfg.MailboxDoorbellCycles);
  EXPECT_EQ(Cfg.parcelSendCycles(0, 5),
            Cfg.PeerDoorbellCycles + Cfg.PeerDescriptorDmaCycles);
}

TEST(MachineDeath, BadAcceleratorIdAborts) {
  Machine M;
  EXPECT_DEATH(M.accel(99), "accelerator id out of range");
}

TEST(MachineDeath, HostReadPastMainMemoryAborts) {
  Machine M;
  GlobalAddr Last(M.mainMemory().size() - 2);
  EXPECT_DEATH(M.hostRead<uint32_t>(Last), "main memory: out-of-bounds read");
}

TEST(MachineDeath, NonZeroHostThreadsIsRejected) {
  MachineConfig Cfg;
  Cfg.HostThreads = 1;
  EXPECT_DEATH(Machine M(Cfg), "HostThreads must be 0");
}
