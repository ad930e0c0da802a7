//===- tests/fault_property_test.cpp - Recovery correctness property -------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// The recovery contract as a property over seeded fault schedules: for
// ANY (seed, rates) pair, frames computed under fault injection are
// bit-identical to fault-free frames, and replaying the same schedule
// reproduces the same cycle counts. Each TEST_P instance drives the full
// stack (GameWorld parallel-AI frames: DMA streaming, software caches,
// offload groups) through a different randomly-derived fault mix.
//
//===----------------------------------------------------------------------===//

#include "game/GameWorld.h"

#include "offload/OffloadContext.h"
#include "server/TenantServer.h"
#include "offload/Ptr.h"
#include "sim/FaultInjector.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace omm;
using namespace omm::game;
using namespace omm::sim;

namespace {

constexpr int NumFrames = 3;

GameWorldParams worldParams() {
  GameWorldParams P;
  P.NumEntities = 200;
  return P;
}

/// Derives a fault mix from \p Seed — every property instance exercises
/// a different blend of deaths, rejections and delays.
FaultInjectionConfig faultsFor(uint64_t Seed) {
  SplitMix64 Rng(Seed);
  FaultInjectionConfig F;
  F.Enabled = true;
  F.Seed = Rng.next();
  F.AccelDeathRate = Rng.nextFloat() * 0.15f;
  F.DmaFailRate = Rng.nextFloat() * 0.3f;
  F.DmaDelayRate = Rng.nextFloat() * 0.3f;
  F.DmaDelayCycles = 100 + Rng.nextBelow(2000);
  return F;
}

struct RunResult {
  uint64_t Checksum = 0;
  uint64_t HostCycles = 0;
  uint64_t LaunchFaults = 0;
  uint64_t AcceleratorsLost = 0;
};

RunResult collectResult(Machine &M, GameWorld &World) {
  RunResult R;
  R.Checksum = World.checksum();
  R.HostCycles = M.hostClock().now();
  R.LaunchFaults = M.hostCounters().LaunchFaults;
  for (unsigned I = 0; I != M.numAccelerators(); ++I)
    R.AcceleratorsLost += M.accel(I).Counters.AcceleratorsLost;
  return R;
}

RunResult runFrames(const MachineConfig &Cfg) {
  Machine M(Cfg);
  GameWorld World(M, worldParams());
  for (int F = 0; F != NumFrames; ++F)
    World.doFrameOffloadAiParallel();
  return collectResult(M, World);
}

/// As runFrames, on the persistent-worker schedule. \p KillSeed != 0
/// layers two scheduled deaths (one at a launch, one in the doorbell
/// loop) over the random rates, so every instance exercises the
/// mailbox-drain recovery path deterministically.
RunResult runResidentFrames(const MachineConfig &Cfg, uint64_t KillSeed = 0) {
  Machine M(Cfg);
  if (KillSeed != 0 && M.faults()) {
    SplitMix64 Rng(KillSeed);
    M.faults()->scheduleKill(Rng.nextBelow(M.numAccelerators()),
                             Rng.nextBelow(3));
    M.faults()->scheduleChunkKill(Rng.nextBelow(M.numAccelerators()),
                                  Rng.nextBelow(5));
  }
  GameWorld World(M, worldParams());
  for (int F = 0; F != NumFrames; ++F)
    World.doFrameOffloadAiResident();
  return collectResult(M, World);
}

} // namespace

class FaultRecoveryProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FaultRecoveryProperty, InjectedFramesMatchFaultFreeBitForBit) {
  MachineConfig Clean = MachineConfig::cellLike();
  MachineConfig Faulty = MachineConfig::cellLike();
  Faulty.Faults = faultsFor(GetParam());

  RunResult Reference = runFrames(Clean);
  RunResult Injected = runFrames(Faulty);

  // Recovery must never change what was computed — only when.
  EXPECT_EQ(Injected.Checksum, Reference.Checksum)
      << "seed " << GetParam();

  // Faults cost time, never save it.
  EXPECT_GE(Injected.HostCycles, Reference.HostCycles);
}

TEST_P(FaultRecoveryProperty, SameScheduleReplaysCycleForCycle) {
  MachineConfig Faulty = MachineConfig::cellLike();
  Faulty.Faults = faultsFor(GetParam());

  RunResult First = runFrames(Faulty);
  RunResult Second = runFrames(Faulty);
  EXPECT_EQ(First.Checksum, Second.Checksum);
  EXPECT_EQ(First.HostCycles, Second.HostCycles);
  EXPECT_EQ(First.LaunchFaults, Second.LaunchFaults);
  EXPECT_EQ(First.AcceleratorsLost, Second.AcceleratorsLost);
}

TEST_P(FaultRecoveryProperty, ResidentFramesMatchFaultFreeBitForBit) {
  MachineConfig Clean = MachineConfig::cellLike();
  MachineConfig Faulty = MachineConfig::cellLike();
  Faulty.Faults = faultsFor(GetParam());

  RunResult Reference = runResidentFrames(Clean);
  RunResult Injected = runResidentFrames(Faulty, GetParam());

  // Resident workers dying in their doorbell loops (including the
  // scheduled mid-queue kills) must not change what was computed.
  EXPECT_EQ(Injected.Checksum, Reference.Checksum)
      << "seed " << GetParam();
  EXPECT_GE(Injected.HostCycles, Reference.HostCycles);

  // The mailbox schedule computes the same world as the block-per-core
  // schedule it replaces.
  EXPECT_EQ(Reference.Checksum, runFrames(Clean).Checksum);
}

TEST_P(FaultRecoveryProperty, ResidentScheduleReplaysCycleForCycle) {
  MachineConfig Faulty = MachineConfig::cellLike();
  Faulty.Faults = faultsFor(GetParam());

  RunResult First = runResidentFrames(Faulty, GetParam());
  RunResult Second = runResidentFrames(Faulty, GetParam());
  EXPECT_EQ(First.Checksum, Second.Checksum);
  EXPECT_EQ(First.HostCycles, Second.HostCycles);
  EXPECT_EQ(First.LaunchFaults, Second.LaunchFaults);
  EXPECT_EQ(First.AcceleratorsLost, Second.AcceleratorsLost);
}

namespace {

/// Derives a timing-fault mix (hangs + stragglers) from \p Seed and
/// arms the chunk watchdog with the given recovery \p Policy. Hang
/// rates stay small — each hang permanently costs a core.
MachineConfig timingFaultConfig(uint64_t Seed, DeadlinePolicy Policy) {
  SplitMix64 Rng(Seed ^ 0xDEAD11E5);
  MachineConfig Cfg = MachineConfig::cellLike();
  Cfg.ChunkDeadlineCycles = 20000;
  Cfg.CancelPollCycles = 32;
  Cfg.DeadlineRecovery = Policy;
  Cfg.Faults.Enabled = true;
  Cfg.Faults.Seed = Rng.next();
  Cfg.Faults.HangRate = Rng.nextFloat() * 0.002f;
  Cfg.Faults.StragglerRate = Rng.nextFloat() * 0.05f;
  Cfg.Faults.StragglerSlowdownMin = 2.0f;
  Cfg.Faults.StragglerSlowdownMax =
      2.0f + Rng.nextFloat() * 14.0f;
  return Cfg;
}

} // namespace

TEST_P(FaultRecoveryProperty, TimingFaultsNeverChangeFrameResults) {
  RunResult Reference = runResidentFrames(MachineConfig::cellLike());
  // Hangs, stragglers, cancellation and re-dispatch under every
  // recovery policy: time-only — the computed world is untouchable.
  for (DeadlinePolicy Policy :
       {DeadlinePolicy::None, DeadlinePolicy::CancelRestart,
        DeadlinePolicy::Speculate}) {
    RunResult Injected =
        runResidentFrames(timingFaultConfig(GetParam(), Policy));
    EXPECT_EQ(Injected.Checksum, Reference.Checksum)
        << "seed " << GetParam() << " policy "
        << static_cast<int>(Policy);
    EXPECT_GE(Injected.HostCycles, Reference.HostCycles);
  }
}

TEST_P(FaultRecoveryProperty, TimingFaultScheduleReplaysCycleForCycle) {
  MachineConfig Cfg =
      timingFaultConfig(GetParam(), DeadlinePolicy::Speculate);
  RunResult First = runResidentFrames(Cfg);
  RunResult Second = runResidentFrames(Cfg);
  EXPECT_EQ(First.Checksum, Second.Checksum);
  EXPECT_EQ(First.HostCycles, Second.HostCycles);
  EXPECT_EQ(First.AcceleratorsLost, Second.AcceleratorsLost);
}

TEST_P(FaultRecoveryProperty, ZeroTimingRatesReproduceBaselineExactly) {
  // An armed injector whose timing rates are all zero must not perturb
  // the RNG stream or the clocks: cycle counts equal the
  // injector-disabled baseline EXACTLY, not just the checksum.
  RunResult Baseline = runResidentFrames(MachineConfig::cellLike());
  MachineConfig Cfg = MachineConfig::cellLike();
  Cfg.Faults.Enabled = true;
  Cfg.Faults.Seed = GetParam();
  Cfg.Faults.HangRate = 0.0f;
  Cfg.Faults.StragglerRate = 0.0f;
  RunResult Armed = runResidentFrames(Cfg);
  EXPECT_EQ(Armed.Checksum, Baseline.Checksum);
  EXPECT_EQ(Armed.HostCycles, Baseline.HostCycles);
  EXPECT_EQ(Armed.LaunchFaults, Baseline.LaunchFaults);
  EXPECT_EQ(Armed.AcceleratorsLost, Baseline.AcceleratorsLost);
}

TEST_P(FaultRecoveryProperty, StealingFramesMatchFaultFreeBitForBit) {
  // Work stealing moves descriptors between workers, never their
  // boundaries: frames computed under stealing — with deaths, DMA
  // faults and scheduled mid-queue kills layered on top — stay
  // bit-identical to the fault-free, steal-free world.
  RunResult Reference = runResidentFrames(MachineConfig::cellLike());
  for (StealPolicy Policy :
       {StealPolicy::Rotation, StealPolicy::LocalityAware,
        StealPolicy::DomainAware}) {
    MachineConfig Clean = MachineConfig::cellLike();
    Clean.WorkStealing = Policy;
    MachineConfig Faulty = Clean;
    Faulty.Faults = faultsFor(GetParam());
    RunResult StealClean = runResidentFrames(Clean);
    RunResult StealFaulty = runResidentFrames(Faulty, GetParam());
    EXPECT_EQ(StealClean.Checksum, Reference.Checksum)
        << "seed " << GetParam() << " policy "
        << static_cast<int>(Policy);
    EXPECT_EQ(StealFaulty.Checksum, Reference.Checksum)
        << "seed " << GetParam() << " policy "
        << static_cast<int>(Policy);
  }
}

TEST_P(FaultRecoveryProperty, StealingScheduleReplaysCycleForCycle) {
  MachineConfig Cfg = MachineConfig::cellLike();
  Cfg.WorkStealing = StealPolicy::LocalityAware;
  Cfg.Faults = faultsFor(GetParam());
  RunResult First = runResidentFrames(Cfg, GetParam());
  RunResult Second = runResidentFrames(Cfg, GetParam());
  EXPECT_EQ(First.Checksum, Second.Checksum);
  EXPECT_EQ(First.HostCycles, Second.HostCycles);
  EXPECT_EQ(First.LaunchFaults, Second.LaunchFaults);
  EXPECT_EQ(First.AcceleratorsLost, Second.AcceleratorsLost);
}

TEST_P(FaultRecoveryProperty, StealingWithTimingFaultsNeverChangesResults) {
  // Steals interleave with hangs, stragglers and deadline recovery; the
  // combination must still be time-only.
  RunResult Reference = runResidentFrames(MachineConfig::cellLike());
  for (DeadlinePolicy Policy :
       {DeadlinePolicy::None, DeadlinePolicy::CancelRestart,
        DeadlinePolicy::Speculate}) {
    MachineConfig Cfg = timingFaultConfig(GetParam(), Policy);
    Cfg.WorkStealing = StealPolicy::LocalityAware;
    RunResult Injected = runResidentFrames(Cfg);
    EXPECT_EQ(Injected.Checksum, Reference.Checksum)
        << "seed " << GetParam() << " policy "
        << static_cast<int>(Policy);
  }
}

TEST_P(FaultRecoveryProperty, ZeroedStealPolicyReproducesBaselineExactly) {
  // StealPolicy::None with every other steal knob scrambled must
  // reproduce the steal-free schedule cycle for cycle — None means the
  // pre-stealing dispatch path, untouched.
  RunResult Baseline = runResidentFrames(MachineConfig::cellLike());
  SplitMix64 Rng(GetParam() ^ 0x57EA1);
  MachineConfig Cfg = MachineConfig::cellLike();
  Cfg.WorkStealing = StealPolicy::None;
  Cfg.StealProbeCycles = Rng.nextBelow(10000);
  Cfg.StealGrantCycles = Rng.nextBelow(10000);
  Cfg.StealMinBacklog = static_cast<unsigned>(Rng.nextBelow(16));
  Cfg.StealSeed = Rng.next();
  Cfg.StealSliceChunks = 1 + static_cast<unsigned>(Rng.nextBelow(15));
  RunResult Scrambled = runResidentFrames(Cfg);
  EXPECT_EQ(Scrambled.Checksum, Baseline.Checksum);
  EXPECT_EQ(Scrambled.HostCycles, Baseline.HostCycles);
  EXPECT_EQ(Scrambled.LaunchFaults, Baseline.LaunchFaults);
  EXPECT_EQ(Scrambled.AcceleratorsLost, Baseline.AcceleratorsLost);
}

namespace {

/// A three-domain machine (cellLike's six cores in pairs) under
/// DomainAware stealing, every inter-domain premium and the lazy
/// remote-escalation threshold scrambled from \p Seed.
MachineConfig domainFaultConfig(uint64_t Seed) {
  SplitMix64 Rng(Seed ^ 0xD03A14);
  MachineConfig Cfg = MachineConfig::cellLike();
  Cfg.WorkStealing = StealPolicy::DomainAware;
  Cfg.AcceleratorsPerDomain = 2;
  Cfg.InterDomainDmaLatencyCycles = Rng.nextBelow(500);
  Cfg.InterDomainDoorbellCycles = Rng.nextBelow(2000);
  Cfg.InterDomainDescriptorDmaCycles = Rng.nextBelow(4000);
  Cfg.StealRemoteMinBacklog = static_cast<unsigned>(Rng.nextBelow(12));
  return Cfg;
}

} // namespace

TEST_P(FaultRecoveryProperty, FlatDomainConfigsReproduceFlatSchedulesExactly) {
  // AcceleratorsPerDomain == 0 with scrambled premiums, and a single
  // domain holding every accelerator, are both the flat machine: cycle
  // counts equal the premium-free baseline EXACTLY, whatever the steal
  // policy — the premiums only bite on an edge that crosses domains,
  // and these machines have no such edge.
  SplitMix64 Rng(GetParam() ^ 0xF1A7D0);
  for (StealPolicy Policy :
       {StealPolicy::None, StealPolicy::LocalityAware,
        StealPolicy::DomainAware}) {
    MachineConfig Base = MachineConfig::cellLike();
    Base.WorkStealing = Policy;
    RunResult Baseline = runResidentFrames(Base);
    MachineConfig Flat = Base;
    Flat.AcceleratorsPerDomain = 0;
    Flat.InterDomainDmaLatencyCycles = Rng.nextBelow(10000);
    Flat.InterDomainDoorbellCycles = Rng.nextBelow(10000);
    Flat.InterDomainDescriptorDmaCycles = Rng.nextBelow(10000);
    Flat.StealRemoteMinBacklog = static_cast<unsigned>(Rng.nextBelow(32));
    MachineConfig OneDomain = Flat;
    OneDomain.AcceleratorsPerDomain = OneDomain.NumAccelerators;
    for (const MachineConfig *Cfg : {&Flat, &OneDomain}) {
      RunResult R = runResidentFrames(*Cfg);
      EXPECT_EQ(R.Checksum, Baseline.Checksum)
          << "seed " << GetParam() << " policy "
          << static_cast<int>(Policy);
      EXPECT_EQ(R.HostCycles, Baseline.HostCycles)
          << "seed " << GetParam() << " policy "
          << static_cast<int>(Policy);
    }
  }
}

TEST_P(FaultRecoveryProperty, DomainAwareFramesMatchFaultFreeBitForBit) {
  // DomainAware stealing on a three-domain machine composes with every
  // injected fault: random deaths, DMA rejections and scheduled
  // mid-queue kills (dead victims are buried at probe time, live ones
  // keyed local-first) — the computed world stays bit-identical to the
  // flat fault-free reference.
  RunResult Reference = runResidentFrames(MachineConfig::cellLike());
  MachineConfig Clean = domainFaultConfig(GetParam());
  MachineConfig Faulty = Clean;
  Faulty.Faults = faultsFor(GetParam());
  RunResult CleanRun = runResidentFrames(Clean);
  RunResult FaultyRun = runResidentFrames(Faulty, GetParam());
  EXPECT_EQ(CleanRun.Checksum, Reference.Checksum) << "seed " << GetParam();
  EXPECT_EQ(FaultyRun.Checksum, Reference.Checksum)
      << "seed " << GetParam();
}

TEST_P(FaultRecoveryProperty, DomainAwareScheduleReplaysCycleForCycle) {
  MachineConfig Cfg = domainFaultConfig(GetParam());
  Cfg.Faults = faultsFor(GetParam());
  RunResult First = runResidentFrames(Cfg, GetParam());
  RunResult Second = runResidentFrames(Cfg, GetParam());
  EXPECT_EQ(First.Checksum, Second.Checksum);
  EXPECT_EQ(First.HostCycles, Second.HostCycles);
  EXPECT_EQ(First.LaunchFaults, Second.LaunchFaults);
  EXPECT_EQ(First.AcceleratorsLost, Second.AcceleratorsLost);
}

namespace {

/// As runResidentFrames, on the parcel dataflow schedule (staged shard
/// stages chained worker-to-worker). Its fault-free reference is the
/// host-staged schedule — the same shards joined through the host.
RunResult runDataflowFrames(const MachineConfig &Cfg, ParcelPolicy Policy,
                            uint64_t KillSeed = 0) {
  Machine M(Cfg);
  if (KillSeed != 0 && M.faults()) {
    SplitMix64 Rng(KillSeed);
    M.faults()->scheduleKill(Rng.nextBelow(M.numAccelerators()),
                             Rng.nextBelow(3));
    M.faults()->scheduleChunkKill(Rng.nextBelow(M.numAccelerators()),
                                  Rng.nextBelow(5));
  }
  GameWorld World(M, worldParams());
  for (int F = 0; F != NumFrames; ++F)
    World.doFrameDataflow(Policy);
  return collectResult(M, World);
}

RunResult runStagedFrames(const MachineConfig &Cfg) {
  Machine M(Cfg);
  GameWorld World(M, worldParams());
  for (int F = 0; F != NumFrames; ++F)
    World.doFrameStaged();
  return collectResult(M, World);
}

} // namespace

TEST_P(FaultRecoveryProperty, DataflowFramesMatchStagedBitForBit) {
  // Parcels compose with every injected fault: a dead recipient's
  // undelivered continuations drain through the ordinary recovery path
  // and run exactly once, so dataflow frames — faulted or not, under
  // every recipient policy — compute the host-staged world bit for bit.
  RunResult Reference = runStagedFrames(MachineConfig::cellLike());
  MachineConfig Faulty = MachineConfig::cellLike();
  Faulty.Faults = faultsFor(GetParam());
  for (ParcelPolicy Policy : {ParcelPolicy::Ring, ParcelPolicy::LeastLoaded}) {
    RunResult Clean =
        runDataflowFrames(MachineConfig::cellLike(), Policy);
    RunResult Injected = runDataflowFrames(Faulty, Policy, GetParam());
    EXPECT_EQ(Clean.Checksum, Reference.Checksum)
        << "seed " << GetParam() << " policy "
        << static_cast<int>(Policy);
    EXPECT_EQ(Injected.Checksum, Reference.Checksum)
        << "seed " << GetParam() << " policy "
        << static_cast<int>(Policy);
    EXPECT_GE(Injected.HostCycles, Clean.HostCycles);
  }
}

TEST_P(FaultRecoveryProperty, DataflowScheduleReplaysCycleForCycle) {
  MachineConfig Faulty = MachineConfig::cellLike();
  Faulty.Faults = faultsFor(GetParam());
  RunResult First =
      runDataflowFrames(Faulty, ParcelPolicy::Ring, GetParam());
  RunResult Second =
      runDataflowFrames(Faulty, ParcelPolicy::Ring, GetParam());
  EXPECT_EQ(First.Checksum, Second.Checksum);
  EXPECT_EQ(First.HostCycles, Second.HostCycles);
  EXPECT_EQ(First.LaunchFaults, Second.LaunchFaults);
  EXPECT_EQ(First.AcceleratorsLost, Second.AcceleratorsLost);
}

namespace {

/// 16-byte record for list-form gather/scatter (DMA-alignment sized).
struct ListRecord {
  uint64_t A = 0;
  uint64_t B = 0;
};

/// Gathers every other record of an outer array with one getList,
/// increments them locally, scatters them back with one putList.
/// \returns the final main-memory contents. \p Retries receives the
/// accelerator's DMA retry count.
std::vector<ListRecord> runListGatherScatter(const MachineConfig &Cfg,
                                             uint64_t *Retries = nullptr) {
  constexpr uint32_t NumRecords = 16;
  constexpr unsigned Gathered = NumRecords / 2;
  Machine M(Cfg);
  offload::OuterPtr<ListRecord> Data =
      offload::allocOuterArray<ListRecord>(M, NumRecords);
  for (uint32_t I = 0; I != NumRecords; ++I)
    M.mainMemory().writeValue((Data + I).addr(),
                              ListRecord{I * 31 + 7, I * 17 + 3});
  {
    offload::OffloadContext Ctx(M, 0);
    LocalAddr Local = Ctx.localAllocArray<ListRecord>(Gathered);
    DmaEngine::ListElement Elements[Gathered];
    for (unsigned E = 0; E != Gathered; ++E)
      Elements[E] = {Local + E * sizeof(ListRecord),
                     (Data + E * 2).addr(),
                     static_cast<uint32_t>(sizeof(ListRecord))};
    // One list-form command each way; a transient MFC rejection at the
    // gate re-issues the *whole* list after the backoff.
    Ctx.dmaGetList(Elements, Gathered, /*Tag=*/0);
    Ctx.dmaWait(0);
    for (unsigned E = 0; E != Gathered; ++E) {
      LocalAddr At = Local + E * sizeof(ListRecord);
      ListRecord R = Ctx.localRead<ListRecord>(At);
      ++R.A;
      R.B += 2;
      Ctx.localWrite(At, R);
    }
    Ctx.dmaPutList(Elements, Gathered, /*Tag=*/0);
    Ctx.dmaWait(0);
  }
  if (Retries)
    *Retries = M.accel(0).Counters.DmaRetries;
  std::vector<ListRecord> Out(NumRecords);
  for (uint32_t I = 0; I != NumRecords; ++I)
    Out[I] = M.mainMemory().readValue<ListRecord>((Data + I).addr());
  return Out;
}

bool sameRecords(const std::vector<ListRecord> &X,
                 const std::vector<ListRecord> &Y) {
  if (X.size() != Y.size())
    return false;
  for (size_t I = 0; I != X.size(); ++I)
    if (X[I].A != Y[I].A || X[I].B != Y[I].B)
      return false;
  return true;
}

} // namespace

TEST(ListDmaFaults, TransientRejectionRetriesTheWholeListExactlyOnce) {
  // DmaFailRate = 1 with MaxDmaRetries = 1 rejects every command
  // exactly once (the cap resets the burst), so each of the two list
  // commands is re-issued exactly once — and the data must come out
  // bit-identical to the fault-free run.
  MachineConfig Clean;
  MachineConfig Faulty;
  Faulty.Faults.Enabled = true;
  Faulty.Faults.Seed = 7;
  Faulty.Faults.DmaFailRate = 1.0f;
  Faulty.Faults.MaxDmaRetries = 1;
  uint64_t CleanRetries = 0, FaultyRetries = 0;
  std::vector<ListRecord> Reference = runListGatherScatter(Clean,
                                                           &CleanRetries);
  std::vector<ListRecord> Injected = runListGatherScatter(Faulty,
                                                          &FaultyRetries);
  EXPECT_TRUE(sameRecords(Injected, Reference));
  EXPECT_EQ(CleanRetries, 0u);
  // One getList + one putList, each rejected once: two retries total,
  // never one per list element.
  EXPECT_EQ(FaultyRetries, 2u);
}

TEST_P(FaultRecoveryProperty, ListDmaSurvivesRandomRejectionMixes) {
  // Property form: for ANY seeded mix of rejections and completion
  // delays, list-form gather/scatter results stay bit-identical and
  // the schedule replays cycle-for-cycle.
  MachineConfig Clean;
  MachineConfig Faulty;
  Faulty.Faults = faultsFor(GetParam());
  Faulty.Faults.AccelDeathRate = 0.0f; // Keep core 0 alive; DMA only.
  std::vector<ListRecord> Reference = runListGatherScatter(Clean);
  std::vector<ListRecord> First = runListGatherScatter(Faulty);
  std::vector<ListRecord> Second = runListGatherScatter(Faulty);
  EXPECT_TRUE(sameRecords(First, Reference)) << "seed " << GetParam();
  EXPECT_TRUE(sameRecords(First, Second)) << "seed " << GetParam();
}

namespace {

/// Seed-derived heavy-tailed tenant population for the serving rows.
std::vector<server::TenantParams> tenantsFor(uint64_t Seed) {
  SplitMix64 Rng(Seed ^ 0x7E4A47);
  unsigned Count = 2 + static_cast<unsigned>(Rng.nextBelow(3));
  return server::makeHeavyTailedTenants(Count, Rng.next(), 48);
}

struct ServedResult {
  std::vector<uint64_t> Checksums;
  std::vector<std::vector<uint64_t>> FrameCycles;
  uint64_t HostCycles = 0;
};

/// Serves NumFrames round-robin ticks over the seed's population; with
/// \p WithTenantFaults, layers one scheduled per-tenant hang or
/// straggler per tick on top of whatever rates \p Cfg carries.
ServedResult runServedTicks(const MachineConfig &Cfg, uint64_t Seed,
                            bool WithTenantFaults = false) {
  Machine M(Cfg);
  server::TenantServer Server(M, server::TenantServerParams());
  for (const server::TenantParams &T : tenantsFor(Seed))
    Server.addTenant(T);
  SplitMix64 Rng(Seed ^ 0x5E1F);
  for (int F = 0; F != NumFrames; ++F) {
    if (WithTenantFaults) {
      unsigned Victim =
          static_cast<unsigned>(Rng.nextBelow(Server.numTenants()));
      unsigned Accel =
          static_cast<unsigned>(Rng.nextBelow(M.numAccelerators()));
      if (Rng.nextBool())
        Server.scheduleTenantHang(Victim, Accel);
      else
        Server.scheduleTenantStraggler(Victim, Accel,
                                       2.0f + Rng.nextFloat() * 8.0f);
    }
    Server.serveTick();
  }
  ServedResult R;
  R.HostCycles = M.hostClock().now();
  for (unsigned T = 0; T != Server.numTenants(); ++T) {
    R.Checksums.push_back(Server.checksum(T));
    R.FrameCycles.push_back(Server.stats(T).FrameCycles);
  }
  return R;
}

/// The sequential reference: the same worlds on one machine, each run
/// to completion in registration order — no multiplexing at all.
ServedResult runSequentialFrames(const MachineConfig &Cfg, uint64_t Seed) {
  Machine M(Cfg);
  std::vector<std::unique_ptr<GameWorld>> Worlds;
  for (const server::TenantParams &T : tenantsFor(Seed))
    Worlds.push_back(std::make_unique<GameWorld>(M, T.World));
  ServedResult R;
  for (std::unique_ptr<GameWorld> &W : Worlds) {
    std::vector<uint64_t> Cycles;
    for (int F = 0; F != NumFrames; ++F)
      Cycles.push_back(W->doFrameOffloadAiResident().FrameCycles);
    R.Checksums.push_back(W->checksum());
    R.FrameCycles.push_back(Cycles);
  }
  R.HostCycles = M.hostClock().now();
  return R;
}

} // namespace

TEST_P(FaultRecoveryProperty, ZeroFaultServingMatchesSequentialBitForBit) {
  // The tenant server's determinism contract as a property over seeded
  // populations: at zero fault rate and unlimited budget, round-robin
  // serving leaves every tenant's state AND per-frame cycle counts
  // exactly as the unmultiplexed sequential run — interleaving slices
  // is invisible, not just harmless.
  ServedResult Served =
      runServedTicks(MachineConfig::cellLike(), GetParam());
  ServedResult Sequential =
      runSequentialFrames(MachineConfig::cellLike(), GetParam());
  EXPECT_EQ(Served.Checksums, Sequential.Checksums)
      << "seed " << GetParam();
  EXPECT_EQ(Served.FrameCycles, Sequential.FrameCycles)
      << "seed " << GetParam();
}

TEST_P(FaultRecoveryProperty, TenantFaultSchedulesNeverChangeAnyState) {
  // Per-tenant scheduled hangs and stragglers, layered over random
  // timing-fault rates under every recovery policy, are time-only for
  // EVERY tenant — including the victims.
  ServedResult Reference =
      runServedTicks(MachineConfig::cellLike(), GetParam());
  for (DeadlinePolicy Policy :
       {DeadlinePolicy::None, DeadlinePolicy::CancelRestart,
        DeadlinePolicy::Speculate}) {
    ServedResult Injected = runServedTicks(
        timingFaultConfig(GetParam(), Policy), GetParam(),
        /*WithTenantFaults=*/true);
    EXPECT_EQ(Injected.Checksums, Reference.Checksums)
        << "seed " << GetParam() << " policy "
        << static_cast<int>(Policy);
    EXPECT_GE(Injected.HostCycles, Reference.HostCycles);
  }
}

TEST_P(FaultRecoveryProperty, TenantServingReplaysCycleForCycle) {
  MachineConfig Cfg =
      timingFaultConfig(GetParam(), DeadlinePolicy::CancelRestart);
  ServedResult First =
      runServedTicks(Cfg, GetParam(), /*WithTenantFaults=*/true);
  ServedResult Second =
      runServedTicks(Cfg, GetParam(), /*WithTenantFaults=*/true);
  EXPECT_EQ(First.Checksums, Second.Checksums);
  EXPECT_EQ(First.FrameCycles, Second.FrameCycles);
  EXPECT_EQ(First.HostCycles, Second.HostCycles);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultRecoveryProperty,
                         ::testing::Range<uint64_t>(1, 17));
