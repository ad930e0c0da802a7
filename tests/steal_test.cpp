//===- tests/steal_test.cpp - Accelerator-side work stealing --------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// The work-stealing runtime's contract, asserted:
//   - a steal claims exactly the newest floor(size/2) of the victim's
//     backlog, order preserved, with the probe/grant/list-fetch cycle
//     costs on the thief and one bulk doorbell on the host;
//   - victim selection is deterministic: the seeded rotation replays
//     identically and spreads across victims, and LocalityAware picks
//     the victim whose backlog tail is range-closest to the thief;
//   - a thief that dies mid-drain hands its stolen backlog back with
//     boundaries intact — every index still runs exactly once — and
//     its orphans are placed home-first: stolen sub-slices return to
//     their live home worker, NoHome chunks go to pickWorker;
//   - StealPolicy::None ignores every other steal knob (bit-identical
//     schedules to a machine that never heard of stealing);
//   - stealing runs are deterministic end to end and actually shorten
//     the makespan of a skewed static split.
//
//===----------------------------------------------------------------------===//

#include "offload/ResidentWorker.h"

#include "offload/JobQueue.h"
#include "offload/ParallelFor.h"
#include "offload/Ptr.h"
#include "trace/TraceRecorder.h"

#include <gtest/gtest.h>

#include <vector>

using namespace omm;
using namespace omm::offload;
using namespace omm::sim;

namespace {

/// Unit-range descriptors [First, First + Count) for bulk placement.
std::vector<WorkDescriptor> unitChunks(uint32_t First, uint32_t Count,
                                       uint64_t FirstSeq) {
  std::vector<WorkDescriptor> Descs;
  for (uint32_t I = 0; I != Count; ++I)
    Descs.push_back({First + I, First + I + 1, FirstSeq + I,
                     WorkDescriptor::NoHome});
  return Descs;
}

} // namespace

TEST(WorkStealing, StealClaimsHalfTheTailInOrder) {
  MachineConfig Cfg;
  Cfg.NumAccelerators = 2;
  Cfg.WorkStealing = StealPolicy::Rotation;
  Machine M(Cfg);
  ResidentWorkerPool Pool(M, 2);
  ASSERT_EQ(Pool.liveCount(), 2u);
  unsigned W0 = Pool.findWorkerFor(0);
  unsigned W1 = Pool.findWorkerFor(1);
  ASSERT_NE(W0, ResidentWorkerPool::NoWorker);
  ASSERT_NE(W1, ResidentWorkerPool::NoWorker);

  // One bulk doorbell covers the whole region, however many descriptors.
  uint64_t DoorbellsBefore = M.hostCounters().DoorbellCycles;
  Pool.dispatchBulk(W0, unitChunks(0, 8, 0));
  EXPECT_EQ(M.hostCounters().DoorbellCycles,
            DoorbellsBefore + Cfg.MailboxDoorbellCycles);
  EXPECT_EQ(Pool.mailbox(W0).size(), 8u);

  EXPECT_EQ(Pool.trySteal(W1), 4u);
  EXPECT_EQ(Pool.mailbox(W0).size(), 4u);
  EXPECT_EQ(Pool.mailbox(W1).size(), 4u);
  EXPECT_EQ(M.accel(1).Counters.StealsAttempted, 1u);
  EXPECT_EQ(M.accel(1).Counters.StealsSucceeded, 1u);
  // Probe + grant + one list fetch for the whole stolen tail, all on
  // the thief's clock and steal counter.
  EXPECT_EQ(M.accel(1).Counters.StealCycles,
            Cfg.StealProbeCycles + Cfg.StealGrantCycles +
                Cfg.MailboxDescriptorCycles);
  EXPECT_EQ(M.accel(1).Counters.DescriptorsStolen, 4u);

  // The thief drains the stolen tail in its original order: the newest
  // half [4, 8), oldest of that half first. The victim keeps [0, 4).
  std::vector<uint32_t> ThiefOrder, VictimOrder;
  auto Note = [&](std::vector<uint32_t> &Into) {
    return [&Into](OffloadContext &, uint32_t Begin, uint32_t) {
      Into.push_back(Begin);
    };
  };
  std::vector<WorkDescriptor> Orphans;
  auto ThiefBody = Note(ThiefOrder);
  auto VictimBody = Note(VictimOrder);
  while (!Pool.mailbox(W1).empty())
    ASSERT_TRUE(Pool.executeNext(W1, ThiefBody, Orphans));
  while (!Pool.mailbox(W0).empty())
    ASSERT_TRUE(Pool.executeNext(W0, VictimBody, Orphans));
  EXPECT_EQ(ThiefOrder, (std::vector<uint32_t>{4, 5, 6, 7}));
  EXPECT_EQ(VictimOrder, (std::vector<uint32_t>{0, 1, 2, 3}));
  Pool.close();
}

TEST(WorkStealing, StolenDescriptorsPopWithoutTheFetchDma) {
  // A stolen descriptor already sits in the thief's local store (it
  // arrived on the steal's list-form gather), so its pop must not pay
  // MailboxDescriptorCycles again.
  MachineConfig Cfg;
  Cfg.NumAccelerators = 2;
  Cfg.WorkStealing = StealPolicy::Rotation;
  Machine M(Cfg);
  ResidentWorkerPool Pool(M, 2);
  unsigned W0 = Pool.findWorkerFor(0);
  unsigned W1 = Pool.findWorkerFor(1);
  Pool.dispatchBulk(W0, unitChunks(0, 8, 0));
  ASSERT_EQ(Pool.trySteal(W1), 4u);
  uint64_t Before = M.accel(1).Clock.now();
  std::vector<WorkDescriptor> Orphans;
  auto Empty = [](OffloadContext &, uint32_t, uint32_t) {};
  ASSERT_TRUE(Pool.executeNext(W1, Empty, Orphans));
  // Zero-cost body, local descriptor: the pop advances nothing.
  EXPECT_EQ(M.accel(1).Clock.now(), Before);
  // A bulk-placed (not stolen) descriptor still pays the fetch.
  uint64_t VictimBefore = M.accel(0).Clock.now();
  ASSERT_TRUE(Pool.executeNext(W0, Empty, Orphans));
  EXPECT_GE(M.accel(0).Clock.now(),
            VictimBefore + Cfg.MailboxDescriptorCycles);
  while (!Pool.mailbox(W0).empty())
    Pool.executeNext(W0, Empty, Orphans);
  while (!Pool.mailbox(W1).empty())
    Pool.executeNext(W1, Empty, Orphans);
  Pool.close();
}

namespace {

/// Runs a fixed steal scenario on a 4-core machine — three loaded
/// workers, one idle thief that repeatedly steals and drains — and
/// \returns the sequence of victim accelerator ids its probes chose
/// (DispatchEventKind::StealProbe's Detail payload).
std::vector<uint64_t> victimSequence(StealPolicy Policy, uint64_t Seed) {
  MachineConfig Cfg;
  Cfg.NumAccelerators = 4;
  Cfg.WorkStealing = Policy;
  Cfg.StealSeed = Seed;
  Machine M(Cfg);
  trace::TraceRecorder Rec(M);
  ResidentWorkerPool Pool(M, 4);
  for (unsigned A = 0; A != 3; ++A)
    Pool.dispatchBulk(Pool.findWorkerFor(A),
                      unitChunks(A * 100, 6, A * 100));
  unsigned Thief = Pool.findWorkerFor(3);
  std::vector<WorkDescriptor> Orphans;
  auto Empty = [](OffloadContext &, uint32_t, uint32_t) {};
  for (unsigned Round = 0; Round != 3; ++Round) {
    Pool.trySteal(Thief);
    while (!Pool.mailbox(Thief).empty())
      Pool.executeNext(Thief, Empty, Orphans);
  }
  // Retire the victims' leftovers so close() is legal.
  for (unsigned A = 0; A != 3; ++A) {
    unsigned W = Pool.findWorkerFor(A);
    while (!Pool.mailbox(W).empty())
      Pool.executeNext(W, Empty, Orphans);
  }
  Pool.close();
  std::vector<uint64_t> Victims;
  for (const DispatchEvent &E : Rec.mailboxEvents())
    if (E.Kind == DispatchEventKind::StealProbe)
      Victims.push_back(E.Detail);
  return Victims;
}

} // namespace

TEST(WorkStealing, VictimRotationIsSeededAndDeterministic) {
  std::vector<uint64_t> A = victimSequence(StealPolicy::Rotation, 42);
  std::vector<uint64_t> B = victimSequence(StealPolicy::Rotation, 42);
  // Same seed, same machine: the victim sequence replays exactly.
  EXPECT_EQ(A, B);
  ASSERT_EQ(A.size(), 3u);
  for (uint64_t V : A)
    EXPECT_LT(V, 3u) << "probe must pick a loaded victim";
  // The rotation must be a function of the seed, not a fixed order —
  // across a handful of seeds more than one first-victim shows up.
  bool SeedMatters = false;
  for (uint64_t Seed = 0; Seed != 8 && !SeedMatters; ++Seed)
    SeedMatters = victimSequence(StealPolicy::Rotation, Seed)[0] != A[0];
  EXPECT_TRUE(SeedMatters);
}

TEST(WorkStealing, LocalityAwarePrefersTheRangeAdjacentVictim) {
  MachineConfig Cfg;
  Cfg.NumAccelerators = 3;
  Cfg.WorkStealing = StealPolicy::LocalityAware;
  Machine M(Cfg);
  ResidentWorkerPool Pool(M, 3);
  unsigned W0 = Pool.findWorkerFor(0);
  unsigned W1 = Pool.findWorkerFor(1);
  unsigned W2 = Pool.findWorkerFor(2);
  // Worker 0's backlog sits at indices ~5000, worker 2's at ~100 —
  // right next to the chunk the thief (worker 1) just executed.
  Pool.dispatchBulk(W0, unitChunks(5000, 4, 0));
  Pool.dispatchBulk(W2, unitChunks(100, 4, 10));
  Pool.dispatch(W1, {90, 100, 20, WorkDescriptor::NoHome});
  std::vector<WorkDescriptor> Orphans;
  auto Empty = [](OffloadContext &, uint32_t, uint32_t) {};
  ASSERT_TRUE(Pool.executeNext(W1, Empty, Orphans));
  // Whatever the rotation draw says, distance dominates: the thief
  // must raid worker 2.
  ASSERT_EQ(Pool.trySteal(W1), 2u);
  EXPECT_EQ(Pool.mailbox(W2).size(), 2u);
  EXPECT_EQ(Pool.mailbox(W0).size(), 4u);
  while (!Pool.mailbox(W0).empty())
    Pool.executeNext(W0, Empty, Orphans);
  while (!Pool.mailbox(W1).empty())
    Pool.executeNext(W1, Empty, Orphans);
  while (!Pool.mailbox(W2).empty())
    Pool.executeNext(W2, Empty, Orphans);
  Pool.close();
}

TEST(WorkStealing, FailedProbeParksUntilNewWorkAppears) {
  MachineConfig Cfg;
  Cfg.NumAccelerators = 2;
  Cfg.WorkStealing = StealPolicy::Rotation;
  Machine M(Cfg);
  ResidentWorkerPool Pool(M, 2);
  unsigned W0 = Pool.findWorkerFor(0);
  unsigned W1 = Pool.findWorkerFor(1);
  // One pending descriptor is below StealMinBacklog: the probe fails,
  // costs StealProbeCycles, and parks the thief.
  Pool.dispatch(W0, {0, 1, 0, WorkDescriptor::NoHome});
  EXPECT_EQ(Pool.pickIdleThief(), W1);
  EXPECT_EQ(Pool.trySteal(W1), 0u);
  EXPECT_EQ(M.accel(1).Counters.StealCycles, Cfg.StealProbeCycles);
  EXPECT_EQ(M.accel(1).Counters.StealsAttempted, 1u);
  EXPECT_EQ(M.accel(1).Counters.StealsSucceeded, 0u);
  // Parked: the drain loop will not offer this worker as a thief again.
  EXPECT_EQ(Pool.pickIdleThief(), ResidentWorkerPool::NoWorker);
  // A dispatch unparks every worker (new work may now be stealable).
  Pool.dispatch(W0, {1, 2, 1, WorkDescriptor::NoHome});
  EXPECT_EQ(Pool.pickIdleThief(), W1);
  std::vector<WorkDescriptor> Orphans;
  auto Empty = [](OffloadContext &, uint32_t, uint32_t) {};
  while (!Pool.mailbox(W0).empty())
    Pool.executeNext(W0, Empty, Orphans);
  Pool.close();
}

TEST(WorkStealing, ThiefDeathRequeuesStolenBacklogExactlyOnce) {
  // The thief steals three chunks, executes none of them to completion:
  // it dies on its very next pop. The popped descriptor and the stolen
  // backlog must drain back with boundaries intact and run exactly once
  // on the survivor.
  MachineConfig Cfg;
  Cfg.NumAccelerators = 2;
  Cfg.WorkStealing = StealPolicy::Rotation;
  Cfg.Faults.Enabled = true; // Rates stay 0.0; only the scheduled kill.
  Machine M(Cfg);
  M.faults()->scheduleChunkKill(1, 1); // Thief dies on its second pop.
  std::vector<unsigned> Visits(40, 0);
  auto Body = [&](OffloadContext &, uint32_t Begin, uint32_t End) {
    for (uint32_t I = Begin; I != End; ++I)
      ++Visits[I];
  };
  ResidentWorkerPool Pool(M, 2);
  unsigned W0 = Pool.findWorkerFor(0);
  unsigned W1 = Pool.findWorkerFor(1);
  std::vector<WorkDescriptor> Orphans;
  // Warm the thief with one executed chunk [0, 4) (its first pop).
  Pool.dispatch(W1, {0, 4, 0, WorkDescriptor::NoHome});
  ASSERT_TRUE(Pool.executeNext(W1, Body, Orphans));
  // Six chunks of six cover [4, 40) on the victim; the thief takes 3.
  std::vector<WorkDescriptor> Region;
  for (uint32_t B = 4; B != 40; B += 6)
    Region.push_back({B, B + 6, (B - 4) / 6 + 1, WorkDescriptor::NoHome});
  Pool.dispatchBulk(W0, Region);
  ASSERT_EQ(Pool.trySteal(W1), 3u);
  // The fatal pop: descriptor [22, 28) plus stolen backlog [28, 40).
  ASSERT_FALSE(Pool.executeNext(W1, Body, Orphans));
  EXPECT_EQ(Pool.liveCount(), 1u);
  ASSERT_EQ(Orphans.size(), 3u);
  EXPECT_EQ(Orphans[0].Begin, 22u);
  EXPECT_EQ(Orphans[0].End, 28u);
  EXPECT_EQ(Orphans[1].Begin, 28u);
  EXPECT_EQ(Orphans[2].Begin, 34u);
  EXPECT_EQ(M.accel(1).Counters.DescriptorsStolen, 3u);
  EXPECT_EQ(Pool.stats().RequeuedDescriptors, 3u);
  // Survivor takes the orphans and its own backlog.
  for (const WorkDescriptor &Desc : Orphans) {
    Pool.dispatch(W0, Desc);
    ASSERT_TRUE(Pool.executeNext(W0, Body, Orphans));
  }
  while (!Pool.mailbox(W0).empty())
    ASSERT_TRUE(Pool.executeNext(W0, Body, Orphans));
  Pool.close();
  for (uint32_t I = 0; I != 40; ++I)
    EXPECT_EQ(Visits[I], 1u) << "index " << I;
}

namespace {

/// A skewed distributeJobs run; \returns the final host clock.
uint64_t skewedQueueCycles(const MachineConfig &Cfg) {
  Machine M(Cfg);
  JobQueueOptions Opts;
  Opts.ChunkSize = 8;
  auto Stats = distributeJobs(
      M, 256, Opts, [](OffloadContext &Ctx, uint32_t Begin, uint32_t End) {
        for (uint32_t I = Begin; I != End; ++I)
          Ctx.compute(I < 64 ? 900 : 60);
      });
  (void)Stats;
  return M.hostClock().now();
}

} // namespace

TEST(WorkStealing, NonePolicyIgnoresEveryOtherStealKnob) {
  // StealPolicy::None must reproduce the pre-stealing schedule down to
  // the cycle no matter how the other steal knobs are set — they gate
  // nothing unless stealing is on.
  MachineConfig Plain;
  MachineConfig Knobbed;
  Knobbed.StealProbeCycles = 9999;
  Knobbed.StealGrantCycles = 7777;
  Knobbed.StealMinBacklog = 5;
  Knobbed.StealSeed = 123456789;
  Knobbed.StealSliceChunks = 11;
  EXPECT_EQ(skewedQueueCycles(Plain), skewedQueueCycles(Knobbed));
}

TEST(WorkStealing, StealingRunsAreDeterministic) {
  MachineConfig Cfg;
  Cfg.WorkStealing = StealPolicy::LocalityAware;
  uint64_t A = skewedQueueCycles(Cfg);
  uint64_t B = skewedQueueCycles(Cfg);
  EXPECT_EQ(A, B);
}

namespace {

/// A skewed stealing distributeJobs region run after some unrelated
/// work; checks that the region's counters are exactly the machine's
/// delta across the call and \returns them.
PerfCounters stealingRegionCounters(const MachineConfig &Cfg) {
  Machine M(Cfg);
  auto Skewed = [](OffloadContext &Ctx, uint32_t Begin, uint32_t End) {
    for (uint32_t I = Begin; I != End; ++I)
      Ctx.compute(I < 64 ? 900 : 60);
  };
  // Earlier traffic the region must not be billed for.
  distributeJobs(M, 64, {.ChunkSize = 8}, Skewed);
  PerfCounters Before = M.totalCounters();
  RegionStats Stats = distributeJobs(M, 256, {.ChunkSize = 8}, Skewed);
  EXPECT_EQ(Stats.Counters, M.countersSince(Before));
  return Stats.Counters;
}

} // namespace

TEST(WorkStealing, RegionCountersAreTheMachineDeltaAndBillRemoteSteals) {
  MachineConfig Flat;
  Flat.WorkStealing = StealPolicy::LocalityAware;
  MachineConfig TwoDomains = Flat;
  TwoDomains.AcceleratorsPerDomain = TwoDomains.NumAccelerators / 2;
  PerfCounters FlatRun = stealingRegionCounters(Flat);
  PerfCounters SplitRun = stealingRegionCounters(TwoDomains);
  EXPECT_GT(FlatRun.StealsSucceeded, 0u);
  EXPECT_EQ(FlatRun.StealsRemoteDomain, 0u);
  EXPECT_GT(SplitRun.StealsRemoteDomain, 0u);
  EXPECT_LE(SplitRun.StealsRemoteDomain, SplitRun.StealsSucceeded);
}

TEST(WorkStealing, StealingShortensASkewedStaticSplit) {
  // The expensive items all sit in the first worker's slice of the
  // static split; without stealing its clock bounds the region, with
  // stealing the idle workers raid its backlog. Results are identical
  // either way — only the schedule moves.
  constexpr uint32_t Count = 240;
  auto Run = [&](StealPolicy Policy, uint64_t &Cycles,
                 uint64_t &Steals) -> std::vector<uint64_t> {
    MachineConfig Cfg;
    Cfg.WorkStealing = Policy;
    Machine M(Cfg);
    uint32_t Hot = Count / M.numAccelerators();
    OuterPtr<uint64_t> Data = allocOuterArray<uint64_t>(M, Count);
    RegionStats Stats = parallelForRange(
        M, Count, [&](auto &Ctx, uint32_t Begin, uint32_t End) {
          for (uint32_t I = Begin; I != End; ++I) {
            Ctx.compute(I < Hot ? 2000 : 100);
            Ctx.outerWrite((Data + I).addr(), uint64_t(I) * 17 + 3);
          }
        });
    Cycles = M.hostClock().now();
    Steals = Stats.Counters.StealsSucceeded;
    std::vector<uint64_t> Values(Count);
    for (uint32_t I = 0; I != Count; ++I)
      Values[I] = M.mainMemory().readValue<uint64_t>((Data + I).addr());
    return Values;
  };
  uint64_t NoneCycles = 0, NoneSteals = 0;
  uint64_t StealCyclesTotal = 0, Steals = 0;
  std::vector<uint64_t> NoneValues = Run(StealPolicy::None, NoneCycles,
                                         NoneSteals);
  std::vector<uint64_t> StealValues =
      Run(StealPolicy::LocalityAware, StealCyclesTotal, Steals);
  EXPECT_EQ(NoneValues, StealValues);
  EXPECT_EQ(NoneSteals, 0u);
  EXPECT_GT(Steals, 0u);
  EXPECT_LT(StealCyclesTotal, NoneCycles);
}

namespace {

/// Records the begin index of every descriptor a dying worker handed
/// back (FaultKind::ChunkRequeued).
struct RequeueLog : DmaObserver {
  std::vector<uint32_t> Begins;
  void onFault(const FaultEvent &Event) override {
    if (Event.Kind == FaultKind::ChunkRequeued)
      Begins.push_back(static_cast<uint32_t>(Event.Detail));
  }
};

constexpr uint32_t OrphanCount = 96;
/// Accelerator 0's slice (or bulk region) is hot, so its domain peer
/// raids it.
constexpr uint32_t OrphanHot = OrphanCount / 3;

/// One stealing region on three workers in two domains: accelerators 0
/// and 1 share domain 0, and accelerator 2 (domain 1) may never steal
/// across the interconnect, so it idles with the lowest clock once its
/// own third is done. Accelerator \p KilledAccel (when not ~0u) dies on
/// its \p KillIndex-th pop. \p Run invokes the driver with a body;
/// \p Runner receives the accelerator that ran each descriptor, keyed
/// by begin index. \returns the final array contents.
template <typename RunFn>
std::vector<uint64_t> runOrphanRegion(unsigned KilledAccel, uint64_t KillIndex,
                                      RequeueLog &Requeues,
                                      std::vector<unsigned> &Runner,
                                      RegionStats &Stats, RunFn &&Run) {
  MachineConfig Cfg;
  Cfg.NumAccelerators = 3;
  Cfg.AcceleratorsPerDomain = 2;
  Cfg.WorkStealing = StealPolicy::DomainAware;
  Cfg.StealRemoteMinBacklog = ~0u;
  Cfg.StealSliceChunks = 8;
  Cfg.Faults.Enabled = true; // Rates stay 0.0; only the scheduled kill.
  Machine M(Cfg);
  if (KilledAccel != ~0u)
    M.faults()->scheduleChunkKill(KilledAccel, KillIndex);
  M.addObserver(&Requeues);
  OuterPtr<uint64_t> Data = allocOuterArray<uint64_t>(M, OrphanCount);
  Runner.assign(OrphanCount, ~0u);
  Stats = Run(M, [&](OffloadContext &Ctx, uint32_t Begin, uint32_t End) {
    Runner[Begin] = Ctx.accelId();
    for (uint32_t I = Begin; I != End; ++I) {
      Ctx.compute(I < OrphanHot ? 2000 : 100);
      Ctx.outerWrite((Data + I).addr(), uint64_t(I) * 29 + 5);
    }
  });
  M.removeObserver(&Requeues);
  std::vector<uint64_t> Values(OrphanCount);
  for (uint32_t I = 0; I != OrphanCount; ++I)
    Values[I] = M.mainMemory().readValue<uint64_t>((Data + I).addr());
  return Values;
}

/// The fault-free run and the run where thief accelerator 1 dies on its
/// ninth pop — the first after its own eight descriptors, so it dies
/// holding only descriptors it stole from accelerator 0.
template <typename RunFn>
void runThiefDeath(RunFn &&Run, std::vector<uint64_t> &CleanValues,
                   std::vector<uint64_t> &Values, RequeueLog &Requeues,
                   std::vector<unsigned> &Runner, RegionStats &Stats) {
  RequeueLog NoRequeues;
  std::vector<unsigned> CleanRunner;
  RegionStats Clean;
  CleanValues = runOrphanRegion(~0u, 0, NoRequeues, CleanRunner, Clean, Run);
  Values = runOrphanRegion(/*KilledAccel=*/1, /*KillIndex=*/8, Requeues,
                           Runner, Stats, Run);
}

} // namespace

TEST(WorkStealing, StolenSliceOrphansGoBackToTheirLiveHome) {
  // parallelForRange: the sub-slices the dead thief held are homed on
  // accelerator 0, which is alive, so placement returns them there even
  // though accelerator 2 has the lower clock. No descriptor runs off
  // its home: the thief ran none of its loot and nobody else steals.
  std::vector<uint64_t> CleanValues, Values;
  RequeueLog Requeues;
  std::vector<unsigned> Runner;
  RegionStats Stats;
  runThiefDeath(
      [](Machine &M, auto &&Body) {
        return parallelForRange(M, OrphanCount, Body);
      },
      CleanValues, Values, Requeues, Runner, Stats);
  EXPECT_EQ(Values, CleanValues);
  EXPECT_EQ(Stats.DeadWorkers, 1u);
  EXPECT_GT(Stats.Counters.StealsSucceeded, 0u);
  ASSERT_FALSE(Requeues.Begins.empty());
  for (uint32_t Begin : Requeues.Begins) {
    EXPECT_LT(Begin, OrphanHot) << "not stolen from accelerator 0";
    EXPECT_EQ(Runner[Begin], 0u) << "begin " << Begin;
  }
  EXPECT_EQ(Stats.FailoverDescriptors, 0u);
}

TEST(WorkStealing, ChunkOrphansGoToTheLeastLoadedSurvivor) {
  // distributeJobs: the same death, but chunks carry NoHome, so the
  // orphans go to pickWorker's choice — the idle accelerator 2, not
  // the loaded victim they were stolen from — and nothing fails over.
  std::vector<uint64_t> CleanValues, Values;
  RequeueLog Requeues;
  std::vector<unsigned> Runner;
  RegionStats Stats;
  runThiefDeath(
      [](Machine &M, auto &&Body) {
        return distributeJobs(M, OrphanCount, {.ChunkSize = 4}, Body);
      },
      CleanValues, Values, Requeues, Runner, Stats);
  EXPECT_EQ(Values, CleanValues);
  EXPECT_EQ(Stats.DeadWorkers, 1u);
  EXPECT_GT(Stats.Counters.StealsSucceeded, 0u);
  ASSERT_FALSE(Requeues.Begins.empty());
  for (uint32_t Begin : Requeues.Begins) {
    EXPECT_LT(Begin, OrphanHot) << "not stolen from accelerator 0";
    EXPECT_EQ(Runner[Begin], 2u) << "begin " << Begin;
  }
  EXPECT_EQ(Stats.FailoverDescriptors, 0u);
}
