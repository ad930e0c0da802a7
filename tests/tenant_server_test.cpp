//===- tests/tenant_server_test.cpp - Multi-tenant serving tests ----------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// The TenantServer's three robustness layers, pinned as unit tests:
// the determinism contract (zero faults + unlimited budget: round-robin
// serving is bit-identical — checksums, frame cycles AND counter deltas
// — to running the worlds sequentially), admission-control fairness,
// per-tenant fault isolation with core recycling, and the quarantine
// ladder. DESIGN.md §13 describes the model.
//
//===----------------------------------------------------------------------===//

#include "server/TenantServer.h"

#include "sim/FaultInjector.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <vector>

using namespace omm;
using namespace omm::game;
using namespace omm::server;
using namespace omm::sim;

namespace {

constexpr unsigned NumTenants = 3;
constexpr int NumTicks = 4;

std::vector<TenantParams> testTenants(uint64_t ChunkDeadlineCycles = 0) {
  return makeHeavyTailedTenants(NumTenants, 0xBEEF, 96,
                                ChunkDeadlineCycles);
}

/// Machine config for the fault-isolation tests: injector armed with
/// zero random rates (scheduled faults only), chunk recovery enabled.
MachineConfig faultReadyConfig() {
  MachineConfig Cfg = MachineConfig::cellLike();
  Cfg.Faults.Enabled = true;
  Cfg.Faults.Seed = 42;
  Cfg.CancelPollCycles = 32;
  return Cfg;
}

/// Smallest power-of-two-scaled per-tenant deadline whose armed fault-
/// free serving tick detects nothing on this population: the largest
/// tenant's natural chunks stay under it, so every detection in the
/// tests below is an injected fault, not a legitimate big chunk.
uint64_t quietDeadline() {
  static uint64_t Cached = [] {
    for (uint64_t D = 20000;; D *= 2) {
      Machine M(MachineConfig::cellLike());
      TenantServer Server(M, TenantServerParams{});
      for (const TenantParams &P : testTenants(D))
        Server.addTenant(P);
      Server.serveTick();
      uint64_t Detected = 0;
      for (unsigned T = 0; T != NumTenants; ++T)
        Detected += Server.stats(T).Counters.StragglersDetected +
                    Server.stats(T).Counters.HangsDetected;
      if (Detected == 0)
        return D;
      if (D > (uint64_t(1) << 40))
        std::abort();
    }
  }();
  return Cached;
}

} // namespace

TEST(TenantServerTest, RoundRobinZeroFaultMatchesSequentialBitForBit) {
  MachineConfig Cfg = MachineConfig::cellLike();

  // Served: N tenants interleaved round-robin, one frame each per tick.
  Machine Served(Cfg);
  TenantServer Server(Served, TenantServerParams{});
  for (const TenantParams &P : testTenants())
    Server.addTenant(P);
  for (int T = 0; T != NumTicks; ++T) {
    TickStats TS = Server.serveTick();
    EXPECT_EQ(TS.Admitted, NumTenants);
    EXPECT_EQ(TS.Deferred, 0u);
  }

  // Sequential: the same worlds on a fresh machine (same creation
  // order, so main-memory layout matches), each run to completion
  // before the next starts.
  Machine Seq(Cfg);
  std::vector<std::unique_ptr<GameWorld>> Worlds;
  for (const TenantParams &P : testTenants())
    Worlds.push_back(std::make_unique<GameWorld>(Seq, P.World));
  std::vector<std::vector<uint64_t>> SeqCycles(NumTenants);
  std::vector<PerfCounters> SeqDeltas(NumTenants);
  for (unsigned T = 0; T != NumTenants; ++T) {
    PerfCounters Before = Seq.totalCounters();
    for (int F = 0; F != NumTicks; ++F)
      SeqCycles[T].push_back(
          Worlds[T]->doFrameOffloadAiResident().FrameCycles);
    SeqDeltas[T] = Seq.countersSince(Before);
  }

  // The full contract: state, per-frame cycle counts, and the whole
  // per-tenant counter set — interleaving must be invisible.
  for (unsigned T = 0; T != NumTenants; ++T) {
    EXPECT_EQ(Server.checksum(T), Worlds[T]->checksum()) << "tenant " << T;
    EXPECT_EQ(Server.stats(T).FrameCycles, SeqCycles[T]) << "tenant " << T;
    EXPECT_TRUE(Server.stats(T).Counters == SeqDeltas[T]) << "tenant " << T;
    EXPECT_EQ(Server.stats(T).FramesServed,
              static_cast<uint64_t>(NumTicks));
  }
}

TEST(TenantServerTest, BatchedServingComputesIdenticalStateForLess) {
  MachineConfig Cfg = MachineConfig::cellLike();

  Machine RoundM(Cfg);
  TenantServerParams RoundP;
  RoundP.Mode = ServeMode::RoundRobin;
  TenantServer Round(RoundM, RoundP);

  Machine BatchM(Cfg);
  TenantServerParams BatchP;
  BatchP.Mode = ServeMode::Batched;
  TenantServer Batch(BatchM, BatchP);

  for (const TenantParams &P : testTenants()) {
    Round.addTenant(P);
    Batch.addTenant(P);
  }
  for (int T = 0; T != NumTicks; ++T) {
    Round.serveTick();
    Batch.serveTick();
  }

  // Same state (per-entity AI does not depend on chunk boundaries),
  // fewer cycles: one shared pool per tick instead of one per tenant
  // frame is the launch-amortisation win batching exists for.
  for (unsigned T = 0; T != NumTenants; ++T)
    EXPECT_EQ(Batch.checksum(T), Round.checksum(T)) << "tenant " << T;
  EXPECT_LT(BatchM.hostClock().now(), RoundM.hostClock().now());
}

TEST(TenantServerTest, AdmissionLedgerDefersOverBudgetAndNeverStarves) {
  constexpr unsigned Count = 4;
  constexpr int Ticks = 8;
  MachineConfig Cfg = MachineConfig::cellLike();
  Machine M(Cfg);

  TenantServerParams SP;
  SP.MaxDeferTicks = 2;
  TenantServer Server(M, SP);
  TenantParams P;
  P.World.NumEntities = 96;
  for (unsigned T = 0; T != Count; ++T) {
    P.World.Seed = 0x5EED + T;
    Server.addTenant(P);
  }

  // Calibrate the ledger from one unconstrained tick, then squeeze:
  // room for roughly half the tenants per tick.
  TickStats Full = Server.serveTick();
  EXPECT_EQ(Full.Admitted, Count);
  // (Reconfigure through a fresh server on a fresh machine so the
  // squeezed run is self-contained.)
  uint64_t PerTenant = Full.LedgerCycles / Count;
  Machine M2(Cfg);
  SP.TickBudgetCycles = PerTenant * 2 + PerTenant / 2;
  TenantServer Squeezed(M2, SP);
  for (unsigned T = 0; T != Count; ++T) {
    P.World.Seed = 0x5EED + T;
    Squeezed.addTenant(P);
  }

  uint64_t TotalDeferred = 0;
  for (int T = 0; T != Ticks; ++T) {
    TickStats TS = Squeezed.serveTick();
    EXPECT_EQ(TS.Admitted + TS.Deferred, Count);
    TotalDeferred += TS.Deferred;
  }
  EXPECT_GT(TotalDeferred, 0u);
  for (unsigned T = 0; T != Count; ++T) {
    const TenantStats &S = Squeezed.stats(T);
    // Every tick either serves or defers a tenant — and aging bounds
    // the deferrals: at most MaxDeferTicks out of every
    // MaxDeferTicks + 1 consecutive ticks are deferred.
    EXPECT_EQ(S.FramesServed + S.FramesDeferred,
              static_cast<uint64_t>(Ticks));
    EXPECT_GE(S.FramesServed,
              static_cast<uint64_t>(Ticks / (SP.MaxDeferTicks + 1)));
  }
}

TEST(TenantServerTest, InjectedHangIsBuriedRecycledAndInvisibleToOthers) {
  MachineConfig Cfg = faultReadyConfig();
  constexpr uint64_t TenantDeadline = 20000;

  auto Run = [&](bool InjectHang) {
    Machine M(Cfg);
    TenantServer Server(M, TenantServerParams{});
    for (const TenantParams &P : testTenants(TenantDeadline))
      Server.addTenant(P);
    std::vector<TickStats> Ticks;
    for (int T = 0; T != NumTicks; ++T) {
      if (InjectHang && T == 1)
        Server.scheduleTenantHang(/*Tenant=*/1, /*AccelId=*/0);
      Ticks.push_back(Server.serveTick());
    }
    struct Out {
      std::vector<uint64_t> Checksums;
      std::vector<TenantStats> Stats;
      std::vector<TickStats> Ticks;
      uint64_t Recycled;
      unsigned Alive, Cores;
    } O;
    for (unsigned T = 0; T != NumTenants; ++T) {
      O.Checksums.push_back(Server.checksum(T));
      O.Stats.push_back(Server.stats(T));
    }
    O.Ticks = std::move(Ticks);
    O.Recycled = M.totalCounters().AcceleratorsRecycled;
    O.Alive = M.numAliveAccelerators();
    O.Cores = M.numAccelerators();
    return O;
  };

  auto Clean = Run(false);
  auto Hung = Run(true);

  // The hang was detected, attributed to tenant 1 only, and the wedged
  // core was recycled at the slice boundary — the pool is whole again.
  EXPECT_GE(Hung.Stats[1].Counters.HangsDetected, 1u);
  EXPECT_GE(Hung.Stats[1].FaultScore, 1u);
  EXPECT_EQ(Hung.Stats[0].Counters.HangsDetected, 0u);
  EXPECT_EQ(Hung.Stats[2].Counters.HangsDetected, 0u);
  EXPECT_EQ(Hung.Stats[0].FaultScore, 0u);
  EXPECT_EQ(Hung.Stats[2].FaultScore, 0u);
  EXPECT_EQ(Hung.Recycled, 1u);
  EXPECT_EQ(Hung.Alive, Hung.Cores);
  EXPECT_EQ(Hung.Ticks[1].CoresRecycled, 1u);

  // Recovery is time-only for the faulted tenant (E11 machinery) and
  // invisible to everyone else: all state matches the fault-free run,
  // and the *unaffected* tenants' frame cycles match exactly — the
  // recycled core re-enters the pool with no timing residue.
  for (unsigned T = 0; T != NumTenants; ++T)
    EXPECT_EQ(Hung.Checksums[T], Clean.Checksums[T]) << "tenant " << T;
  EXPECT_EQ(Hung.Stats[0].FrameCycles, Clean.Stats[0].FrameCycles);
  EXPECT_EQ(Hung.Stats[2].FrameCycles, Clean.Stats[2].FrameCycles);
  // The faulted tenant paid for its recovery in time.
  EXPECT_GT(Hung.Stats[1].FrameCycles[1], Clean.Stats[1].FrameCycles[1]);
}

TEST(TenantServerTest, StragglerIsAttributedToItsTenantOnly) {
  MachineConfig Cfg = faultReadyConfig();
  Cfg.DeadlineRecovery = DeadlinePolicy::CancelRestart;

  Machine M(Cfg);
  TenantServer Server(M, TenantServerParams{});
  std::vector<TenantParams> Population = testTenants(quietDeadline());
  for (const TenantParams &P : Population)
    Server.addTenant(P);
  // Straggle the largest tenant: its chunks are the biggest, so a 32x
  // slowdown is guaranteed past the calibrated deadline.
  unsigned Whale = 0;
  for (unsigned T = 1; T != NumTenants; ++T)
    if (Population[T].World.NumEntities >
        Population[Whale].World.NumEntities)
      Whale = T;
  Server.scheduleTenantStraggler(Whale, /*AccelId=*/1,
                                 /*Slowdown=*/32.0f);
  Server.serveTick();

  EXPECT_GE(Server.stats(Whale).Counters.StragglersDetected, 1u);
  EXPECT_GE(Server.stats(Whale).FaultScore, 1u);
  for (unsigned T = 0; T != NumTenants; ++T) {
    if (T == Whale)
      continue;
    EXPECT_EQ(Server.stats(T).Counters.StragglersDetected, 0u)
        << "tenant " << T;
    EXPECT_EQ(Server.stats(T).FaultScore, 0u) << "tenant " << T;
  }
}

TEST(TenantServerTest, QuarantineDemotesToHostOnlyAndProbationRestores) {
  MachineConfig Cfg = faultReadyConfig();
  Machine M(Cfg);

  TenantServerParams SP;
  SP.QuarantineAfterFaults = 1;
  SP.ProbationTicks = 2;
  TenantServer Server(M, SP);
  for (const TenantParams &P : testTenants(quietDeadline()))
    Server.addTenant(P);

  Server.scheduleTenantHang(/*Tenant=*/0, /*AccelId=*/2);
  TickStats Faulted = Server.serveTick();
  EXPECT_EQ(Faulted.HostOnly, 0u);
  EXPECT_TRUE(Server.stats(0).Quarantined);
  EXPECT_EQ(Server.stats(0).Quarantines, 1u);

  // Two probation ticks served on the host, then back to the pool with
  // a clean fault score.
  TickStats P1 = Server.serveTick();
  EXPECT_EQ(P1.HostOnly, 1u);
  EXPECT_EQ(P1.Admitted, NumTenants - 1);
  TickStats P2 = Server.serveTick();
  EXPECT_EQ(P2.HostOnly, 1u);
  EXPECT_FALSE(Server.stats(0).Quarantined);
  EXPECT_EQ(Server.stats(0).FaultScore, 0u);
  EXPECT_EQ(Server.stats(0).HostOnlyFrames, 2u);

  TickStats Restored = Server.serveTick();
  EXPECT_EQ(Restored.Admitted, NumTenants);
  EXPECT_EQ(Restored.HostOnly, 0u);
  // Host-only frames still advanced the world: no tick skipped it.
  EXPECT_EQ(Server.stats(0).FramesServed, 4u);
}

TEST(TenantServerTest, HomeDomainPinningConfinesWorkAndKeepsResults) {
  // A tenant pinned to a home domain dispatches only to that domain's
  // accelerators, with the budget clamped to the domain width — and the
  // pin moves cycles, never results.
  auto Serve = [](unsigned HomeDomain) {
    MachineConfig Cfg = MachineConfig::cellLike();
    Cfg.NumAccelerators = 8;
    Cfg.AcceleratorsPerDomain = 4;
    Machine M(Cfg);
    TenantServer Server(M, TenantServerParams());
    TenantParams P = testTenants()[0];
    P.HomeDomain = HomeDomain;
    Server.addTenant(P);
    for (int T = 0; T != NumTicks; ++T)
      Server.serveTick();
    std::vector<uint64_t> Dispatched;
    for (unsigned A = 0; A != M.numAccelerators(); ++A)
      Dispatched.push_back(M.accel(A).Counters.DescriptorsDispatched);
    return std::pair(Server.checksum(0), Dispatched);
  };

  auto [UnpinnedSum, UnpinnedDispatch] = Serve(~0u);
  auto [PinnedSum, PinnedDispatch] = Serve(1);
  EXPECT_EQ(PinnedSum, UnpinnedSum);
  uint64_t AwayDispatch = 0, HomeDispatch = 0;
  for (unsigned A = 0; A != 4; ++A) {
    EXPECT_EQ(PinnedDispatch[A], 0u) << "accel " << A;
    AwayDispatch += UnpinnedDispatch[A];
    HomeDispatch += PinnedDispatch[A + 4];
  }
  EXPECT_GT(AwayDispatch, 0u); // Unpinned serving did use domain 0.
  EXPECT_GT(HomeDispatch, 0u);
}

TEST(TenantServerTest, HeavyTailedPopulationIsDeterministicAndTailed) {
  auto A = makeHeavyTailedTenants(64, 0x7A11, 100);
  auto B = makeHeavyTailedTenants(64, 0x7A11, 100);
  ASSERT_EQ(A.size(), 64u);
  uint32_t MinEnt = UINT32_MAX, MaxEnt = 0;
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].World.NumEntities, B[I].World.NumEntities);
    EXPECT_EQ(A[I].World.Seed, B[I].World.Seed);
    EXPECT_EQ(A[I].World.NumEntities % 100, 0u);
    MinEnt = std::min(MinEnt, A[I].World.NumEntities);
    MaxEnt = std::max(MaxEnt, A[I].World.NumEntities);
  }
  // The tail is real: the largest tenant dwarfs the smallest.
  EXPECT_EQ(MinEnt, 100u);
  EXPECT_GE(MaxEnt, 400u);
}

TEST(TenantServerTest, PercentileCyclesRoundsRankHalfUp) {
  std::vector<uint64_t> S{10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  EXPECT_EQ(percentileCycles(S, 50.0), 50u);
  EXPECT_EQ(percentileCycles(S, 99.0), 100u);
  EXPECT_EQ(percentileCycles(S, 100.0), 100u);
  EXPECT_EQ(percentileCycles({}, 99.0), 0u);
  EXPECT_EQ(percentileCycles({7}, 99.0), 7u);
  // Where half-up and nearest-rank part: p99 of 60 samples is rank 59.4,
  // which rounds to the 59th value (nearest-rank takes the 60th), and
  // p95 of 12 samples is rank 11.4, the 11th value (nearest-rank: 12th).
  std::vector<uint64_t> Sixty;
  for (uint64_t I = 1; I <= 60; ++I)
    Sixty.push_back(I);
  EXPECT_EQ(percentileCycles(Sixty, 99.0), 59u);
  std::vector<uint64_t> Twelve(Sixty.begin(), Sixty.begin() + 12);
  EXPECT_EQ(percentileCycles(Twelve, 95.0), 11u);
}
