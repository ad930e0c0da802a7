//===- tests/tenant_soak_test.cpp - Multi-tenant fault endurance -----------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// Soak coverage for the tenant server: ~1000 seeded schedules, each a
// random tenant population (heavy-tailed entity counts) served for a few
// ticks over a machine with a seed-derived fault blend — random hangs,
// stragglers, accelerator deaths, DMA rejections — plus explicitly
// scheduled per-tenant hangs/stragglers, under random serve modes and
// admission budgets. Each run asserts the invariants that make
// multi-tenancy safe:
//   - every tenant's final state equals a clean single-tenant run of the
//     same world for the same number of frames (isolation: no fault or
//     scheduling decision ever leaks state across tenants);
//   - admission accounting balances (served + deferred == ticks);
//   - recycled cores leave the machine fully alive at the end;
//   - a replayed schedule reproduces the same per-tenant cycle counts.
//
// Labelled `soak` and excluded from the default ctest tier; ci.sh runs
// it under ASan+UBSan as a separate stage.
//
//===----------------------------------------------------------------------===//

#include "server/TenantServer.h"

#include "sim/FaultInjector.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace omm;
using namespace omm::game;
using namespace omm::server;
using namespace omm::sim;

namespace {

constexpr uint64_t TenantDeadline = 20000;

/// A machine tuned for hundreds of constructions: small main memory, a
/// random accelerator count, the chunk watchdog armed (so hangs are
/// recoverable), and a seed-derived blend of timing and fail-stop
/// faults.
MachineConfig soakConfig(uint64_t Seed) {
  SplitMix64 Rng(Seed * 0x9E3779B97F4A7C15ull + 1);
  MachineConfig Cfg = MachineConfig::cellLike();
  Cfg.MainMemorySize = 8ull << 20;
  Cfg.NumAccelerators = 1 + static_cast<unsigned>(Rng.nextBelow(6));
  Cfg.ChunkDeadlineCycles = TenantDeadline;
  constexpr DeadlinePolicy Policies[] = {DeadlinePolicy::None,
                                         DeadlinePolicy::CancelRestart,
                                         DeadlinePolicy::Speculate};
  Cfg.DeadlineRecovery = Policies[Rng.nextBelow(3)];
  Cfg.Faults.Enabled = true;
  Cfg.Faults.Seed = Rng.next();
  Cfg.Faults.HangRate = Rng.nextFloat() * 0.002f;
  Cfg.Faults.StragglerRate = Rng.nextFloat() * 0.03f;
  Cfg.Faults.StragglerSlowdownMin = 2.0f;
  Cfg.Faults.StragglerSlowdownMax = 2.0f + Rng.nextFloat() * 8.0f;
  Cfg.Faults.AccelDeathRate = Rng.nextFloat() * 0.02f;
  Cfg.Faults.DmaFailRate = Rng.nextFloat() * 0.2f;
  Cfg.Faults.DmaDelayRate = Rng.nextFloat() * 0.2f;
  Cfg.Faults.DmaDelayCycles = 50 + Rng.nextBelow(1000);
  return Cfg;
}

/// Seed-derived server policy: random mode and a finite admission
/// budget half the time.
TenantServerParams policyFor(SplitMix64 &Rng) {
  TenantServerParams P;
  P.Mode = Rng.nextBool() ? ServeMode::Batched : ServeMode::RoundRobin;
  if (Rng.nextBool())
    P.TickBudgetCycles = 200000 + Rng.nextBelow(2000000);
  return P;
}

struct SoakOutcome {
  std::vector<uint64_t> Checksums;
  std::vector<uint64_t> FramesServed;
  std::vector<uint64_t> HostCycles; ///< Per-tenant summed frame cycles.
  uint64_t Recycled = 0;
  uint64_t Deferred = 0;
};

/// One seeded serving schedule; asserts the accounting and liveness
/// invariants and returns state + timing for isolation/replay checks.
void runTenantSchedule(uint64_t Seed, SoakOutcome &Out) {
  SplitMix64 Rng(Seed);
  MachineConfig Cfg = soakConfig(Seed);
  Machine M(Cfg);

  unsigned NumTenants = 2 + static_cast<unsigned>(Rng.nextBelow(4));
  uint32_t BaseEntities = 24 + static_cast<uint32_t>(Rng.nextBelow(72));
  std::vector<TenantParams> Population = makeHeavyTailedTenants(
      NumTenants, Rng.next(), BaseEntities, TenantDeadline);

  TenantServer Server(M, policyFor(Rng));
  for (const TenantParams &T : Population)
    Server.addTenant(T);

  uint64_t NumTicks = 3 + Rng.nextBelow(2);
  for (uint64_t Tick = 0; Tick != NumTicks; ++Tick) {
    // Layer explicitly scheduled per-tenant faults over the random
    // rates on roughly half the ticks.
    if (Rng.nextBool()) {
      unsigned Victim = static_cast<unsigned>(Rng.nextBelow(NumTenants));
      unsigned Accel = static_cast<unsigned>(Rng.nextBelow(M.numAccelerators()));
      if (Rng.nextBool())
        Server.scheduleTenantHang(Victim, Accel);
      else
        Server.scheduleTenantStraggler(Victim, Accel,
                                       2.0f + Rng.nextFloat() * 10.0f);
    }
    TickStats TS = Server.serveTick();
    ASSERT_EQ(TS.Admitted + TS.Deferred, NumTenants)
        << "seed " << Seed << " tick " << Tick;
    Out.Recycled += TS.CoresRecycled;
    Out.Deferred += TS.Deferred;
  }

  // Supervisor recycling must leave no core dead at a tick boundary.
  for (unsigned A = 0; A != M.numAccelerators(); ++A)
    ASSERT_TRUE(M.accel(A).Alive) << "seed " << Seed << " accel " << A;

  for (unsigned T = 0; T != NumTenants; ++T) {
    const TenantStats &Stats = Server.stats(T);
    ASSERT_EQ(Stats.FramesServed + Stats.FramesDeferred, NumTicks)
        << "seed " << Seed << " tenant " << T;
    ASSERT_EQ(Stats.FrameCycles.size(), Stats.FramesServed)
        << "seed " << Seed << " tenant " << T;
    Out.Checksums.push_back(Server.checksum(T));
    Out.FramesServed.push_back(Stats.FramesServed);
    uint64_t Sum = 0;
    for (uint64_t C : Stats.FrameCycles)
      Sum += C;
    Out.HostCycles.push_back(Sum);
  }
}

/// Clean single-tenant reference: the same world served alone, host
/// only, fault free, for the same number of frames. Isolation says the
/// multi-tenant state must match this bit for bit.
uint64_t cleanChecksum(const TenantParams &T, uint64_t Frames) {
  MachineConfig Cfg = MachineConfig::cellLike();
  Cfg.MainMemorySize = 8ull << 20;
  Machine M(Cfg);
  GameWorld World(M, T.World);
  for (uint64_t F = 0; F != Frames; ++F)
    World.doFrameHostOnly();
  return World.checksum();
}

} // namespace

TEST(TenantSoak, ServingSurvivesFourHundredFaultSchedules) {
  uint64_t TotalRecycled = 0, TotalDeferred = 0;
  for (uint64_t Seed = 1; Seed <= 400; ++Seed) {
    SoakOutcome Out;
    runTenantSchedule(Seed, Out);
    if (::testing::Test::HasFatalFailure())
      return;
    TotalRecycled += Out.Recycled;
    TotalDeferred += Out.Deferred;
  }
  // The sweep must actually have wedged cores (recycled by the
  // supervisor) and deferred tenants over the ledger somewhere, or the
  // robustness paths went unexercised.
  EXPECT_GT(TotalRecycled, 0u);
  EXPECT_GT(TotalDeferred, 0u);
}

TEST(TenantSoak, EveryTenantMatchesItsCleanSoloRun) {
  // The full isolation property over 400 schedules: whatever mix of
  // hangs, stragglers, deaths and deferrals a run saw, each tenant's
  // state is exactly what a fault-free solo run of its world computes
  // in the same number of frames.
  for (uint64_t Seed = 401; Seed <= 800; ++Seed) {
    SoakOutcome Out;
    runTenantSchedule(Seed, Out);
    if (::testing::Test::HasFatalFailure())
      return;

    SplitMix64 Rng(Seed);
    unsigned NumTenants = 2 + static_cast<unsigned>(Rng.nextBelow(4));
    uint32_t BaseEntities = 24 + static_cast<uint32_t>(Rng.nextBelow(72));
    std::vector<TenantParams> Population = makeHeavyTailedTenants(
        NumTenants, Rng.next(), BaseEntities, TenantDeadline);
    for (unsigned T = 0; T != NumTenants; ++T)
      ASSERT_EQ(Out.Checksums[T],
                cleanChecksum(Population[T], Out.FramesServed[T]))
          << "seed " << Seed << " tenant " << T;
  }
}

TEST(TenantSoak, ReplayedSchedulesAreCycleIdentical) {
  for (uint64_t Seed = 7; Seed <= 400; Seed += 23) {
    SoakOutcome A, B;
    runTenantSchedule(Seed, A);
    runTenantSchedule(Seed, B);
    if (::testing::Test::HasFatalFailure())
      return;
    EXPECT_EQ(A.Checksums, B.Checksums) << "seed " << Seed;
    EXPECT_EQ(A.FramesServed, B.FramesServed) << "seed " << Seed;
    EXPECT_EQ(A.HostCycles, B.HostCycles) << "seed " << Seed;
    EXPECT_EQ(A.Recycled, B.Recycled) << "seed " << Seed;
  }
}
