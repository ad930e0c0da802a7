//===- tests/jobqueue_test.cpp - Dynamic work distribution tests -----------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "offload/JobQueue.h"

#include "dmacheck/DmaRaceChecker.h"
#include "offload/ParallelFor.h"
#include "offload/Ptr.h"

#include <gtest/gtest.h>

using namespace omm;
using namespace omm::offload;
using namespace omm::sim;

namespace {

/// A deliberately skewed per-item cost: the last items are far heavier.
uint64_t skewedCost(uint32_t Index, uint32_t Count) {
  return Index > Count - Count / 8 ? 20000 : 200;
}

} // namespace

TEST(JobQueue, EveryIndexProcessedExactlyOnce) {
  Machine M;
  constexpr uint32_t Count = 500;
  std::vector<unsigned> Visits(Count, 0);
  distributeJobs(M, Count, {.ChunkSize = 16},
                 [&](OffloadContext &, uint32_t Begin, uint32_t End) {
                   for (uint32_t I = Begin; I != End; ++I)
                     ++Visits[I];
                 });
  for (uint32_t I = 0; I != Count; ++I)
    ASSERT_EQ(Visits[I], 1u) << I;
}

TEST(JobQueue, ZeroCountIsNoop) {
  Machine M;
  auto Stats = distributeJobs(M, 0, {.ChunkSize = 16},
                              [&](OffloadContext &, uint32_t, uint32_t) {
                                FAIL();
                              });
  EXPECT_EQ(Stats.MakespanCycles, 0u);
}

TEST(JobQueue, AllWorkersParticipateOnUniformWork) {
  Machine M;
  auto Stats = distributeJobs(
      M, 600, {.ChunkSize = 10},
      [&](OffloadContext &Ctx, uint32_t Begin, uint32_t End) {
        Ctx.compute((End - Begin) * 500);
      });
  ASSERT_EQ(Stats.WorkerChunks.size(), M.numAccelerators());
  for (unsigned W = 0; W != M.numAccelerators(); ++W)
    EXPECT_GT(Stats.WorkerChunks[W], 0u) << "worker " << W;
  EXPECT_LT(Stats.imbalance(), 1.3);
}

TEST(JobQueue, MaxWorkersRespected) {
  Machine M;
  auto Stats = distributeJobs(
      M, 100, {.ChunkSize = 10, .MaxWorkers = 2},
      [&](OffloadContext &Ctx, uint32_t, uint32_t) { Ctx.compute(100); });
  EXPECT_EQ(Stats.WorkerChunks.size(), 2u);
  for (unsigned W = 2; W != M.numAccelerators(); ++W)
    EXPECT_EQ(M.accel(W).Counters.ComputeCycles, 0u);
}

TEST(JobQueue, DynamicBeatsStaticSplitOnSkewedWork) {
  constexpr uint32_t Count = 960;

  uint64_t StaticMakespan;
  {
    Machine M;
    uint64_t Start = M.globalTime();
    parallelForRange(M, Count,
                     [&](OffloadContext &Ctx, uint32_t Begin, uint32_t End) {
                       for (uint32_t I = Begin; I != End; ++I)
                         Ctx.compute(skewedCost(I, Count));
                     });
    StaticMakespan = M.globalTime() - Start;
  }

  uint64_t DynamicMakespan;
  {
    Machine M;
    auto Stats = distributeJobs(
        M, Count, {.ChunkSize = 8},
        [&](OffloadContext &Ctx, uint32_t Begin, uint32_t End) {
          for (uint32_t I = Begin; I != End; ++I)
            Ctx.compute(skewedCost(I, Count));
        });
    DynamicMakespan = Stats.MakespanCycles;
    // The heavy tail is spread over all workers.
    EXPECT_LT(Stats.imbalance(), 1.5);
  }

  // The static split puts the whole heavy tail on the last worker.
  EXPECT_LT(DynamicMakespan * 2, StaticMakespan);
}

TEST(JobQueue, QueuePopCostDiscouragesTinyChunks) {
  // Each chunk pays an atomic queue-pop round trip: 1-element chunks of
  // cheap work are dominated by it.
  constexpr uint32_t Count = 600;
  uint64_t Fine, Coarse;
  {
    Machine M;
    Fine = distributeJobs(M, Count, {.ChunkSize = 1},
                          [&](OffloadContext &Ctx, uint32_t, uint32_t) {
                            Ctx.compute(50);
                          })
               .MakespanCycles;
  }
  {
    Machine M;
    Coarse = distributeJobs(
                 M, Count, {.ChunkSize = 25},
                 [&](OffloadContext &Ctx, uint32_t Begin, uint32_t End) {
                   Ctx.compute((End - Begin) * 50);
                 })
                 .MakespanCycles;
  }
  EXPECT_LT(Coarse * 3, Fine);
}

TEST(JobQueue, DisjointChunkWritesAreRaceCheckerClean) {
  Machine M;
  DiagSink Diags;
  dmacheck::DmaRaceChecker Checker(Diags);
  M.addObserver(&Checker);
  constexpr uint32_t Count = 256;
  OuterPtr<uint64_t> Data = allocOuterArray<uint64_t>(M, Count);
  distributeJobs(M, Count, {.ChunkSize = 16},
                 [&](OffloadContext &Ctx, uint32_t Begin, uint32_t End) {
                   for (uint32_t I = Begin; I != End; ++I)
                     (Data + I).write(Ctx, uint64_t(I) * 7);
                 });
  EXPECT_EQ(Checker.raceCount(), 0u);
  for (uint32_t I = 0; I != Count; ++I)
    ASSERT_EQ(M.mainMemory().readValue<uint64_t>((Data + I).addr()),
              uint64_t(I) * 7);
}

TEST(JobQueue, DeterministicAcrossRuns) {
  uint64_t Makespans[2];
  for (int Run = 0; Run != 2; ++Run) {
    Machine M;
    Makespans[Run] =
        distributeJobs(M, 300, {.ChunkSize = 7},
                       [&](OffloadContext &Ctx, uint32_t Begin,
                           uint32_t End) {
                         Ctx.compute((End - Begin) * 333);
                       })
            .MakespanCycles;
  }
  EXPECT_EQ(Makespans[0], Makespans[1]);
}
