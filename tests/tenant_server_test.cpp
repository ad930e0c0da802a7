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
// and per-tenant fault isolation with core recycling. DESIGN.md §13
// describes the model.
//
//===----------------------------------------------------------------------===//

#include "server/TenantServer.h"

#include "sim/FaultInjector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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
  return Cfg;
}

/// Hangs plus stragglers detected in \p Stats' slices.
uint64_t faultCount(const TenantStats &Stats) {
  return Stats.Counters.HangsDetected + Stats.Counters.StragglersDetected;
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
        Detected += faultCount(Server.stats(T));
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
  constexpr int Ticks = 12;
  constexpr unsigned MaxDefer = TenantServerParams::MaxDeferTicks;
  MachineConfig Cfg = MachineConfig::cellLike();
  Machine M(Cfg);

  TenantServerParams SP;
  TenantServer Server(M, SP);
  // Three small tenants and one whale eight times their size.
  auto AddTenants = [](TenantServer &S) {
    TenantParams P;
    for (unsigned T = 0; T != Count; ++T) {
      P.World.NumEntities = T + 1 == Count ? 96 * 8 : 96;
      P.World.Seed = 0x5EED + T;
      S.addTenant(P);
    }
  };
  AddTenants(Server);

  // Calibrate the ledger from one unconstrained tick, then squeeze:
  // room for two and a half small tenants per tick. The small tenants
  // share it in rotation; the whale never fits, so only aging gets it
  // served.
  TickStats Full = Server.serveTick();
  EXPECT_EQ(Full.Admitted, Count);
  // (Reconfigure through a fresh server on a fresh machine so the
  // squeezed run is self-contained.)
  uint64_t PerSmall = Server.stats(0).FrameCycles[0];
  Machine M2(Cfg);
  SP.TickBudgetCycles = PerSmall * 2 + PerSmall / 2;
  TenantServer Squeezed(M2, SP);
  AddTenants(Squeezed);

  // Each tenant's run of consecutive deferred ticks, read off its
  // FramesDeferred count tick by tick.
  std::vector<unsigned> Streak(Count, 0);
  std::vector<uint64_t> DeferredBefore(Count, 0);
  unsigned LongestStreak = 0;
  uint64_t TotalDeferred = 0;
  for (int Tick = 0; Tick != Ticks; ++Tick) {
    TickStats TS = Squeezed.serveTick();
    EXPECT_EQ(TS.Admitted + TS.Deferred, Count);
    TotalDeferred += TS.Deferred;
    for (unsigned T = 0; T != Count; ++T) {
      uint64_t Deferred = Squeezed.stats(T).FramesDeferred;
      Streak[T] = Deferred != DeferredBefore[T] ? Streak[T] + 1 : 0;
      DeferredBefore[T] = Deferred;
      // Aging: a tenant deferred MaxDeferTicks ticks in a row is
      // admitted on the next, whatever the ledger says.
      EXPECT_LE(Streak[T], MaxDefer) << "tick " << Tick << " tenant " << T;
      LongestStreak = std::max(LongestStreak, Streak[T]);
    }
  }
  EXPECT_GT(TotalDeferred, 0u);
  // A tenant (the whale) waited out the full streak: aging fired.
  EXPECT_EQ(LongestStreak, MaxDefer);
  for (unsigned T = 0; T != Count; ++T) {
    const TenantStats &S = Squeezed.stats(T);
    // Every tick either serves or defers a tenant — and aging bounds
    // the deferrals: at most MaxDeferTicks out of every
    // MaxDeferTicks + 1 consecutive ticks are deferred.
    EXPECT_EQ(S.FramesServed + S.FramesDeferred,
              static_cast<uint64_t>(Ticks));
    EXPECT_GE(S.FramesServed, static_cast<uint64_t>(Ticks / (MaxDefer + 1)));
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
  EXPECT_GE(faultCount(Hung.Stats[1]), 1u);
  EXPECT_EQ(Hung.Stats[0].Counters.HangsDetected, 0u);
  EXPECT_EQ(Hung.Stats[2].Counters.HangsDetected, 0u);
  EXPECT_EQ(faultCount(Hung.Stats[0]), 0u);
  EXPECT_EQ(faultCount(Hung.Stats[2]), 0u);
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
  EXPECT_GE(faultCount(Server.stats(Whale)), 1u);
  for (unsigned T = 0; T != NumTenants; ++T) {
    if (T == Whale)
      continue;
    EXPECT_EQ(Server.stats(T).Counters.StragglersDetected, 0u)
        << "tenant " << T;
    EXPECT_EQ(faultCount(Server.stats(T)), 0u) << "tenant " << T;
  }
}

TEST(TenantServerTest, BatchedTickArmsTheSmallestTenantDeadline) {
  // Two tenants with different chunk deadlines share one batched pool.
  // The pool must run under the smaller deadline, and the machine's own
  // deadline must be back in place once the tick is over.
  MachineConfig Cfg = faultReadyConfig();
  Cfg.DeadlineRecovery = DeadlinePolicy::CancelRestart;
  TenantServerParams SP;
  SP.Mode = ServeMode::Batched;

  // Stragglers detected in one batched tick; tenant 0 asks for
  // LargeDeadline, tenant 1 for SmallDeadline.
  auto Detections = [&](uint64_t SmallDeadline, uint64_t LargeDeadline,
                        bool Straggle) {
    Machine M(Cfg);
    TenantServer Server(M, SP);
    std::vector<TenantParams> Population = testTenants();
    Population.resize(2);
    Population[0].ChunkDeadlineCycles = LargeDeadline;
    Population[1].ChunkDeadlineCycles = SmallDeadline;
    for (const TenantParams &P : Population)
      Server.addTenant(P);
    if (Straggle)
      Server.scheduleTenantStraggler(/*Tenant=*/0, /*AccelId=*/1,
                                     /*Slowdown=*/32.0f);
    PerfCounters Before = M.totalCounters();
    Server.serveTick();
    EXPECT_EQ(M.watchdog().chunkDeadline(), Cfg.ChunkDeadlineCycles);
    return M.countersSince(Before).StragglersDetected;
  };
  // Smallest doubling deadline under which a fault-free batched tick
  // detects nothing, so every later detection is the injected straggler.
  uint64_t Small = 20000;
  while (Detections(Small, Small, /*Straggle=*/false) != 0) {
    Small *= 2;
    ASSERT_LT(Small, uint64_t(1) << 40);
  }
  // A 32x slowdown of a chunk that fits under Small stays under 64x
  // Small, so the straggler misses only the smaller deadline. The
  // machine's own deadline is larger still, and distinct from both.
  uint64_t Large = 64 * Small;
  Cfg.ChunkDeadlineCycles = 4 * Large;

  EXPECT_EQ(Detections(Small, Large, /*Straggle=*/false), 0u);
  EXPECT_EQ(Detections(Large, Large, /*Straggle=*/true), 0u);
  EXPECT_EQ(Detections(Small, Large, /*Straggle=*/true), 1u);
}

TEST(TenantServerTest, DeadlineMissesAreAttributedToTheTenantThatMissed) {
  // Every tenant gets one frame budget, halfway between the cheapest and
  // the dearest frame of an unbudgeted tick, so some frames miss it and
  // some do not. Each tenant's DeadlineMissedFrames counter must count
  // exactly its own frames over budget, whichever way the mode
  // schedules the tick.
  for (ServeMode Mode : {ServeMode::RoundRobin, ServeMode::Batched}) {
    const char *Name = Mode == ServeMode::RoundRobin ? "round-robin"
                                                     : "batched";
    TenantServerParams SP;
    SP.Mode = Mode;
    std::vector<TenantParams> Population = testTenants();

    uint64_t Budget = [&] {
      Machine M(MachineConfig::cellLike());
      TenantServer Server(M, SP);
      for (const TenantParams &P : Population)
        Server.addTenant(P);
      Server.serveTick();
      uint64_t Min = UINT64_MAX, Max = 0;
      for (unsigned T = 0; T != NumTenants; ++T) {
        Min = std::min(Min, Server.stats(T).FrameCycles[0]);
        Max = std::max(Max, Server.stats(T).FrameCycles[0]);
      }
      return Min + (Max - Min) / 2;
    }();

    Machine M(MachineConfig::cellLike());
    TenantServer Server(M, SP);
    for (TenantParams P : Population) {
      P.World.FrameBudgetCycles = Budget;
      Server.addTenant(P);
    }
    for (int T = 0; T != NumTicks; ++T)
      Server.serveTick();

    uint64_t Missed = 0, Frames = 0;
    for (unsigned T = 0; T != NumTenants; ++T) {
      const TenantStats &S = Server.stats(T);
      uint64_t OverBudget = static_cast<uint64_t>(
          std::count_if(S.FrameCycles.begin(), S.FrameCycles.end(),
                        [&](uint64_t Cycles) { return Cycles > Budget; }));
      EXPECT_EQ(S.Counters.DeadlineMissedFrames, OverBudget)
          << Name << " tenant " << T;
      Missed += OverBudget;
      Frames += S.FrameCycles.size();
    }
    EXPECT_EQ(M.totalCounters().DeadlineMissedFrames, Missed) << Name;
    EXPECT_GT(Missed, 0u) << Name;
    EXPECT_LT(Missed, Frames) << Name;
  }
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
