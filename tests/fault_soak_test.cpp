//===- tests/fault_soak_test.cpp - Fault-injection endurance runs ----------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// Soak coverage for the self-healing offload runtime: ~1000 seeded
// schedules through distributeJobs and parallelForRange under randomly
// blended fault mixes (accelerator death, DMA rejection, delayed
// completion), on machines with 0..6 accelerators. Each run asserts the
// invariants that matter under failure:
//   - every index is processed exactly once (no lost or double-executed
//     chunks, whatever died);
//   - results in main memory are exactly the fault-free values;
//   - no local-store marks leak (each worker's arena is fully popped);
//   - a replayed (seed, rates) pair reproduces the same cycle counts.
//
// Labelled `soak` and excluded from the default ctest tier; ci.sh runs
// it under ASan+UBSan as a separate stage.
//
//===----------------------------------------------------------------------===//

#include "offload/JobQueue.h"

#include "offload/Parcel.h"
#include "offload/ParallelFor.h"
#include "offload/Ptr.h"
#include "sim/FaultInjector.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace omm;
using namespace omm::offload;
using namespace omm::sim;

namespace {

/// A machine tuned for thousands of constructions: a random accelerator
/// count (including none) and a seed-derived fault blend.
MachineConfig soakConfig(uint64_t Seed, bool AllowZeroAccels) {
  SplitMix64 Rng(Seed * 0x9E3779B97F4A7C15ull + 1);
  MachineConfig Cfg = MachineConfig::cellLike();
  Cfg.NumAccelerators =
      static_cast<unsigned>(Rng.nextBelow(AllowZeroAccels ? 7 : 6) +
                            (AllowZeroAccels ? 0 : 1));
  Cfg.Faults.Enabled = true;
  Cfg.Faults.Seed = Rng.next();
  Cfg.Faults.AccelDeathRate = Rng.nextFloat() * 0.1f;
  Cfg.Faults.DmaFailRate = Rng.nextFloat() * 0.3f;
  Cfg.Faults.DmaDelayRate = Rng.nextFloat() * 0.3f;
  Cfg.Faults.DmaDelayCycles = 50 + Rng.nextBelow(1000);
  Cfg.Faults.MaxDmaRetries = 1 + static_cast<unsigned>(Rng.nextBelow(6));
  return Cfg;
}

/// Local-store stack marks per accelerator, for leak checking.
std::vector<LocalStore::Mark> storeMarks(Machine &M) {
  std::vector<LocalStore::Mark> Marks;
  for (unsigned I = 0; I != M.numAccelerators(); ++I)
    Marks.push_back(M.accel(I).Store.mark());
  return Marks;
}

struct SoakOutcome {
  uint64_t Makespan = 0;
  uint32_t DeadWorkers = 0;
  uint32_t HostChunks = 0;
};

/// One seeded distributeJobs schedule; asserts the exactly-once and
/// leak-free invariants and returns timing for replay comparison.
void runJobSchedule(uint64_t Seed, SoakOutcome &Out) {
  SplitMix64 Rng(Seed);
  MachineConfig Cfg = soakConfig(Seed, /*AllowZeroAccels=*/true);
  Machine M(Cfg);

  uint32_t Count = 40 + static_cast<uint32_t>(Rng.nextBelow(200));
  uint32_t ChunkSize = 1 + static_cast<uint32_t>(Rng.nextBelow(16));
  OuterPtr<uint64_t> Data = allocOuterArray<uint64_t>(M, Count);

  std::vector<LocalStore::Mark> Before = storeMarks(M);
  std::vector<uint32_t> Visits(Count, 0);
  RegionStats Stats = distributeJobs(
      M, Count, {.ChunkSize = ChunkSize},
      [&](auto &Ctx, uint32_t Begin, uint32_t End) {
        Ctx.compute((End - Begin) * 64);
        for (uint32_t I = Begin; I != End; ++I) {
          ++Visits[I];
          Ctx.outerWrite((Data + I).addr(), uint64_t(I) * 7 + Seed);
        }
      });

  for (uint32_t I = 0; I != Count; ++I) {
    ASSERT_EQ(Visits[I], 1u) << "seed " << Seed << " index " << I;
    ASSERT_EQ(M.hostRead<uint64_t>((Data + I).addr()),
              uint64_t(I) * 7 + Seed)
        << "seed " << Seed << " index " << I;
  }
  std::vector<LocalStore::Mark> After = storeMarks(M);
  ASSERT_EQ(Before, After) << "leaked local-store marks, seed " << Seed;

  uint32_t Executed = Stats.HostChunks;
  for (uint32_t C : Stats.WorkerChunks)
    Executed += C;
  ASSERT_EQ(Executed, (Count + ChunkSize - 1) / ChunkSize)
      << "seed " << Seed;

  Out.Makespan = Stats.MakespanCycles;
  Out.DeadWorkers = Stats.DeadWorkers;
  Out.HostChunks = Stats.HostChunks;
}

/// One seeded parallelForRange schedule with the same invariants.
void runParallelForSchedule(uint64_t Seed, SoakOutcome &Out) {
  SplitMix64 Rng(Seed ^ 0xABCDEF);
  MachineConfig Cfg = soakConfig(Seed ^ 0xABCDEF, /*AllowZeroAccels=*/true);
  Machine M(Cfg);

  uint32_t Count = 20 + static_cast<uint32_t>(Rng.nextBelow(150));
  OuterPtr<uint64_t> Data = allocOuterArray<uint64_t>(M, Count);

  std::vector<LocalStore::Mark> Before = storeMarks(M);
  std::vector<uint32_t> Visits(Count, 0);
  RegionStats Stats = parallelForRange(
      M, Count, [&](auto &Ctx, uint32_t Begin, uint32_t End) {
        Ctx.compute((End - Begin) * 40);
        for (uint32_t I = Begin; I != End; ++I) {
          ++Visits[I];
          Ctx.outerWrite((Data + I).addr(), uint64_t(I) * 13 + Seed);
        }
      });

  for (uint32_t I = 0; I != Count; ++I) {
    ASSERT_EQ(Visits[I], 1u) << "seed " << Seed << " index " << I;
    ASSERT_EQ(M.hostRead<uint64_t>((Data + I).addr()),
              uint64_t(I) * 13 + Seed)
        << "seed " << Seed << " index " << I;
  }
  std::vector<LocalStore::Mark> After = storeMarks(M);
  ASSERT_EQ(Before, After) << "leaked local-store marks, seed " << Seed;

  Out.Makespan = M.hostClock().now();
  Out.DeadWorkers = Stats.FailedLaunches;
  Out.HostChunks = static_cast<uint32_t>(Stats.Counters.HostFallbackChunks);
}

/// One seeded staged-dataflow schedule: 1-4 stages chained through
/// worker-to-worker parcels under a seed-picked policy. The stages do
/// not commute per index, so any lost, duplicated or misordered parcel
/// shows up as a wrong final value.
void runDataflowSchedule(uint64_t Seed, SoakOutcome &Out) {
  SplitMix64 Rng(Seed ^ 0x9A4CE1);
  MachineConfig Cfg = soakConfig(Seed ^ 0x9A4CE1, /*AllowZeroAccels=*/true);
  Machine M(Cfg);

  uint32_t Count = 30 + static_cast<uint32_t>(Rng.nextBelow(120));
  DataflowOptions Opts;
  Opts.ChunkSize = 1 + static_cast<uint32_t>(Rng.nextBelow(12));
  Opts.NumStages = 1 + static_cast<uint16_t>(Rng.nextBelow(4));
  constexpr ParcelPolicy Policies[] = {ParcelPolicy::Ring,
                                       ParcelPolicy::LeastLoaded};
  Opts.Policy = Policies[Rng.nextBelow(2)];
  OuterPtr<uint64_t> Data = allocOuterArray<uint64_t>(M, Count);

  std::vector<LocalStore::Mark> Before = storeMarks(M);
  std::vector<uint32_t> Visits(Count * Opts.NumStages, 0);
  RegionStats Stats = runDataflow(
      M, Count, Opts, [&](auto &Ctx, const WorkDescriptor &Desc) {
        Ctx.compute((Desc.End - Desc.Begin) * 48);
        for (uint32_t I = Desc.Begin; I != Desc.End; ++I) {
          ++Visits[(Desc.Kernel - 1) * Count + I];
          GlobalAddr At = (Data + I).addr();
          uint64_t V = Ctx.template outerRead<uint64_t>(At);
          Ctx.outerWrite(At, Desc.Kernel == 1 ? uint64_t(I) * 11 + Seed
                                              : V * 3 + Desc.Kernel);
        }
      });

  for (uint32_t I = 0; I != Count; ++I) {
    uint64_t Want = uint64_t(I) * 11 + Seed;
    for (uint16_t K = 2; K <= Opts.NumStages; ++K)
      Want = Want * 3 + K;
    for (uint16_t K = 0; K != Opts.NumStages; ++K)
      ASSERT_EQ(Visits[K * Count + I], 1u)
          << "seed " << Seed << " stage " << (K + 1) << " index " << I;
    ASSERT_EQ(M.hostRead<uint64_t>((Data + I).addr()), Want)
        << "seed " << Seed << " index " << I;
  }
  std::vector<LocalStore::Mark> After = storeMarks(M);
  ASSERT_EQ(Before, After) << "leaked local-store marks, seed " << Seed;

  Out.Makespan = Stats.MakespanCycles;
  Out.DeadWorkers = Stats.DeadWorkers;
  Out.HostChunks = Stats.HostChunks;
}

} // namespace

TEST(FaultSoak, JobQueueSurvivesSixHundredFaultSchedules) {
  uint64_t TotalDead = 0, TotalHost = 0;
  for (uint64_t Seed = 1; Seed <= 600; ++Seed) {
    SoakOutcome Out;
    runJobSchedule(Seed, Out);
    if (::testing::Test::HasFatalFailure())
      return;
    TotalDead += Out.DeadWorkers;
    TotalHost += Out.HostChunks;
  }
  // With death rates up to 10% the sweep must actually have killed
  // workers and fallen back to the host somewhere, or the soak is not
  // exercising the recovery paths at all.
  EXPECT_GT(TotalDead, 0u);
  EXPECT_GT(TotalHost, 0u);
}

TEST(FaultSoak, ParallelForSurvivesFourHundredFaultSchedules) {
  uint64_t TotalFaults = 0, TotalHost = 0;
  for (uint64_t Seed = 1; Seed <= 400; ++Seed) {
    SoakOutcome Out;
    runParallelForSchedule(Seed, Out);
    if (::testing::Test::HasFatalFailure())
      return;
    TotalFaults += Out.DeadWorkers;
    TotalHost += Out.HostChunks;
  }
  EXPECT_GT(TotalFaults + TotalHost, 0u);
}

TEST(FaultSoak, DataflowSurvivesAThousandFaultSchedules) {
  uint64_t TotalDead = 0, TotalHost = 0;
  for (uint64_t Seed = 1; Seed <= 1000; ++Seed) {
    SoakOutcome Out;
    runDataflowSchedule(Seed, Out);
    if (::testing::Test::HasFatalFailure())
      return;
    TotalDead += Out.DeadWorkers;
    TotalHost += Out.HostChunks;
  }
  // The sweep must have killed workers mid-chain and re-homed chains to
  // the host somewhere, or the parcel recovery paths went unexercised.
  EXPECT_GT(TotalDead, 0u);
  EXPECT_GT(TotalHost, 0u);
}

TEST(FaultSoak, ReplayedDataflowSchedulesAreCycleIdentical) {
  for (uint64_t Seed = 3; Seed <= 400; Seed += 37) {
    SoakOutcome A, B;
    runDataflowSchedule(Seed, A);
    runDataflowSchedule(Seed, B);
    if (::testing::Test::HasFatalFailure())
      return;
    EXPECT_EQ(A.Makespan, B.Makespan) << "seed " << Seed;
    EXPECT_EQ(A.DeadWorkers, B.DeadWorkers) << "seed " << Seed;
    EXPECT_EQ(A.HostChunks, B.HostChunks) << "seed " << Seed;
  }
}

TEST(FaultSoak, ReplayedSchedulesAreCycleIdentical) {
  for (uint64_t Seed = 5; Seed <= 300; Seed += 25) {
    SoakOutcome A, B;
    runJobSchedule(Seed, A);
    runJobSchedule(Seed, B);
    if (::testing::Test::HasFatalFailure())
      return;
    EXPECT_EQ(A.Makespan, B.Makespan) << "seed " << Seed;
    EXPECT_EQ(A.DeadWorkers, B.DeadWorkers) << "seed " << Seed;
    EXPECT_EQ(A.HostChunks, B.HostChunks) << "seed " << Seed;
  }
}
