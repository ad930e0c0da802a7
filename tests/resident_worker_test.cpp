//===- tests/resident_worker_test.cpp - Persistent worker runtime ----------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// The persistent-worker runtime's contract, asserted:
//   - descriptors are dispatched deterministically, with clock ties
//     broken by descriptors-executed then accelerator id (so symmetric
//     workers round-robin instead of piling onto the first);
//   - N chunks cost one launch per worker plus N mailbox transactions,
//     and launchesSaved() reports the amortization;
//   - adaptive chunking cuts descriptor traffic without changing which
//     indices run;
//   - mailbox costs land on the right clocks and counters;
//   - a worker killed mid-drain hands its popped descriptor and its
//     mailbox backlog back intact: results stay bit-identical to the
//     fault-free run and the schedule replays cycle-for-cycle.
//
//===----------------------------------------------------------------------===//

#include "offload/ResidentWorker.h"

#include "offload/JobQueue.h"
#include "offload/ParallelFor.h"
#include "offload/Ptr.h"
#include "trace/TraceRecorder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace omm;
using namespace omm::offload;
using namespace omm::sim;

TEST(ResidentWorker, ClockTiesRoundRobinAcrossWorkers) {
  // Every descriptor fetch costs the same MailboxDescriptorCycles, so
  // worker clocks tie whenever workers have run equal work from a
  // common start. A tie goes to the worker that has executed fewer
  // descriptors, then to the lower accelerator id.
  auto Body = [](OffloadContext &, uint32_t, uint32_t) {};
  {
    Machine M;
    ResidentWorkerPool Pool(M, 2);
    ASSERT_EQ(Pool.liveCount(), 2u);
    auto TieClocks = [&] {
      uint64_t T = std::max(M.accel(0).Clock.now(), M.accel(1).Clock.now());
      M.accel(0).Clock.mergeTo(T);
      M.accel(1).Clock.mergeTo(T);
    };
    auto RunOne = [&](unsigned W, uint32_t I) {
      Pool.dispatch(W, {I, I + 1, I, WorkDescriptor::NoHome});
      EXPECT_TRUE(Pool.executeNext(W, Body));
    };
    TieClocks();
    unsigned First = Pool.pickWorker();
    EXPECT_EQ(Pool.accelId(First), 0u); // Equal counts: the lower id.
    RunOne(First, 0);
    TieClocks();
    unsigned Second = Pool.pickWorker();
    EXPECT_EQ(Pool.accelId(Second), 1u); // Fewer executed beats lower id.
    RunOne(Second, 1);
    TieClocks();
    EXPECT_EQ(Pool.accelId(Pool.pickWorker()), 0u);
  }
  // A whole region from tied start clocks (every worker far past the
  // staggered host launches) with bodies that charge nothing: the
  // clocks stay tied and the work spreads evenly instead of piling onto
  // the first worker.
  Machine M;
  for (unsigned A = 0; A != M.numAccelerators(); ++A)
    M.accel(A).Clock.mergeTo(100000);
  const uint32_t PerWorker = 10;
  const uint32_t Count = PerWorker * M.numAccelerators();
  auto Stats = distributeJobs(M, Count, {.ChunkSize = 1}, Body);
  ASSERT_EQ(Stats.WorkerChunks.size(), M.numAccelerators());
  for (unsigned W = 0; W != M.numAccelerators(); ++W)
    EXPECT_EQ(Stats.WorkerChunks[W], PerWorker) << "worker " << W;
}

TEST(ResidentWorker, ChunksCostOneLaunchPerWorkerPlusMailboxTraffic) {
  Machine M;
  auto Stats = distributeJobs(
      M, 600, {.ChunkSize = 10},
      [](OffloadContext &Ctx, uint32_t Begin, uint32_t End) {
        Ctx.compute((End - Begin) * 300);
      });
  EXPECT_EQ(Stats.Launches, M.numAccelerators());
  EXPECT_EQ(Stats.Counters.DescriptorsDispatched, 60u);
  EXPECT_EQ(Stats.launchesSaved(), 60u - M.numAccelerators());
  // The region's counter delta is the whole machine's: nothing else ran.
  EXPECT_EQ(Stats.Counters, M.totalCounters());
  EXPECT_EQ(M.hostCounters().DoorbellCycles,
            Stats.Counters.DescriptorsDispatched *
                M.config().MailboxDoorbellCycles);
}

TEST(ResidentWorker, StaticSplitIsTheDegenerateOneDescriptorCase) {
  Machine M;
  auto Stats = parallelForRange(
      M, 1200, [](OffloadContext &Ctx, uint32_t Begin, uint32_t End) {
        Ctx.compute((End - Begin) * 100);
      });
  // One slice per worker: nothing to amortize, and nothing failed.
  EXPECT_EQ(Stats.launchesSaved(), 0u);
  EXPECT_EQ(Stats.Counters.LaunchFaults, 0u);
  EXPECT_EQ(Stats.Counters.FailoverChunks, 0u);
  EXPECT_EQ(Stats.Counters.HostFallbackChunks, 0u);
  EXPECT_EQ(Stats.Counters.DescriptorsDispatched, M.numAccelerators());
}

TEST(ResidentWorker, AdaptiveChunkingCutsDescriptorsNotCoverage) {
  constexpr uint32_t Count = 960;
  constexpr uint32_t Floor = 4;
  uint64_t FixedDescriptors, AdaptiveDescriptors;
  std::vector<unsigned> Visits(Count, 0);
  {
    Machine M;
    FixedDescriptors =
        distributeJobs(M, Count, {.ChunkSize = Floor},
                       [](OffloadContext &Ctx, uint32_t Begin,
                          uint32_t End) {
                         Ctx.compute((End - Begin) * 120);
                       })
            .Counters.DescriptorsDispatched;
  }
  {
    Machine M;
    JobQueueOptions Opts;
    Opts.ChunkSize = Floor;
    Opts.Adaptive = true;
    auto Stats = distributeJobs(
        M, Count, Opts,
        [&](OffloadContext &Ctx, uint32_t Begin, uint32_t End) {
          for (uint32_t I = Begin; I != End; ++I)
            ++Visits[I];
          Ctx.compute((End - Begin) * 120);
        });
    AdaptiveDescriptors = Stats.Counters.DescriptorsDispatched;
  }
  for (uint32_t I = 0; I != Count; ++I)
    ASSERT_EQ(Visits[I], 1u) << I;
  // Guided self-scheduling starts at remaining/(target * workers) and
  // shrinks toward the floor: far fewer doorbells than the fixed split.
  EXPECT_EQ(FixedDescriptors, Count / Floor);
  EXPECT_LT(AdaptiveDescriptors * 2, FixedDescriptors);
}

TEST(ResidentWorker, DescriptorAndMailboxEventsAreObservable) {
  Machine M;
  trace::TraceRecorder Rec(M);
  distributeJobs(M, 40, {.ChunkSize = 8},
                 [](OffloadContext &Ctx, uint32_t, uint32_t) {
                   Ctx.compute(500);
                 });
  ASSERT_EQ(Rec.descriptors().size(), 5u);
  unsigned Doorbells = 0, Fetches = 0;
  for (const DispatchEvent &E : Rec.mailboxEvents()) {
    if (E.Kind == DispatchEventKind::DoorbellWrite)
      ++Doorbells;
    if (E.Kind == DispatchEventKind::DescriptorFetch)
      ++Fetches;
  }
  EXPECT_EQ(Doorbells, 5u);
  EXPECT_EQ(Fetches, 5u);
  // Every descriptor span sits inside its worker's block span.
  for (const trace::DescriptorSpan &D : Rec.descriptors()) {
    bool Inside = false;
    for (const trace::OffloadSpan &B : Rec.blocks())
      if (B.BlockId == D.BlockId && B.AccelId == D.AccelId &&
          B.BeginCycle <= D.BeginCycle && D.EndCycle <= B.EndCycle)
        Inside = true;
    EXPECT_TRUE(Inside) << "descriptor #" << D.Seq;
  }
}

namespace {

/// Runs the two-accelerator mid-drain kill schedule: worker 1's launch
/// is refused, so its slice lands in worker 0's mailbox behind worker
/// 0's own slice; worker 0 is then killed on its first pop while the
/// second descriptor is still queued. With \p Schedule false the same
/// machine runs fault-free. \returns the output array's values.
std::vector<uint64_t> runMidDrainSchedule(bool Schedule, uint32_t Count,
                                          RegionStats *Out = nullptr,
                                          uint64_t *HostCycles = nullptr) {
  MachineConfig Cfg;
  Cfg.NumAccelerators = 2;
  Cfg.Faults.Enabled = true; // Rates stay 0.0; only scheduled kills.
  Machine M(Cfg);
  if (Schedule) {
    M.faults()->scheduleKill(1, 0);      // Refuse worker 1's launch.
    M.faults()->scheduleChunkKill(0, 0); // Kill worker 0 on its 1st pop.
  }
  OuterPtr<uint64_t> Data = allocOuterArray<uint64_t>(M, Count);
  RegionStats Stats = parallelForRange(
      M, Count, [&](auto &Ctx, uint32_t Begin, uint32_t End) {
        for (uint32_t I = Begin; I != End; ++I) {
          Ctx.compute(150);
          Ctx.outerWrite((Data + I).addr(), uint64_t(I) * 31 + 7);
        }
      });
  if (Out)
    *Out = Stats;
  if (HostCycles)
    *HostCycles = M.hostClock().now();
  std::vector<uint64_t> Values(Count);
  for (uint32_t I = 0; I != Count; ++I)
    Values[I] = M.mainMemory().readValue<uint64_t>((Data + I).addr());
  return Values;
}

} // namespace

TEST(ResidentWorker, MidDrainKillRequeuesTheMailboxBacklogIntact) {
  constexpr uint32_t Count = 96;
  RegionStats Stats;
  std::vector<uint64_t> Faulted = runMidDrainSchedule(true, Count, &Stats);
  std::vector<uint64_t> Clean = runMidDrainSchedule(false, Count);
  // Both slices ended up on the host: worker 1 never opened, worker 0
  // died with slice 1 still in its mailbox.
  EXPECT_EQ(Stats.Counters.LaunchFaults, 1u);
  EXPECT_EQ(Stats.Counters.HostFallbackChunks, 2u);
  EXPECT_EQ(Stats.Counters.FailoverChunks, Stats.RequeuedDescriptors);
  // The drained descriptor kept its boundaries: bit-identical output.
  EXPECT_EQ(Faulted, Clean);
}

TEST(ResidentWorker, EveryRefusedLaunchIsARegionLaunchFault) {
  // Two cores are already dead and a third dies starting its worker:
  // the pool opens three workers short, and the region's counter delta
  // bills each refused launch once (nothing else in a region launches).
  MachineConfig Cfg;
  Cfg.Faults.Enabled = true; // Rates stay 0.0; only the scheduled kill.
  Machine M(Cfg);
  M.killAccelerator(1);
  M.killAccelerator(4);
  M.faults()->scheduleKill(2, 0);
  const unsigned Budget = M.numAccelerators();
  ResidentWorkerPool Pool(M, Budget);
  EXPECT_EQ(Pool.liveCount(), Budget - 3);
  Pool.close();
  EXPECT_EQ(Pool.stats().Counters.LaunchFaults, 3u);
  EXPECT_EQ(Pool.stats().Launches, Budget - 3);
  EXPECT_EQ(Pool.stats().WorkerChunks.size(), Budget - 3);
}

TEST(ResidentWorker, MidDrainKillEmitsTheDrainAndReplaysExactly) {
  constexpr uint32_t Count = 96;
  uint64_t HostA = 0, HostB = 0;
  {
    MachineConfig Cfg;
    Cfg.NumAccelerators = 2;
    Cfg.Faults.Enabled = true;
    Machine M(Cfg);
    M.faults()->scheduleKill(1, 0);
    M.faults()->scheduleChunkKill(0, 0);
    trace::TraceRecorder Rec(M);
    OuterPtr<uint64_t> Data = allocOuterArray<uint64_t>(M, Count);
    parallelForRange(M, Count, [&](auto &Ctx, uint32_t Begin,
                                   uint32_t End) {
      for (uint32_t I = Begin; I != End; ++I) {
        Ctx.compute(150);
        Ctx.outerWrite((Data + I).addr(), uint64_t(I));
      }
    });
    // Exactly one drain, of exactly one backlogged descriptor, on the
    // dead worker.
    unsigned Drains = 0;
    for (const DispatchEvent &E : Rec.mailboxEvents())
      if (E.Kind == DispatchEventKind::MailboxDrained) {
        ++Drains;
        EXPECT_EQ(E.AccelId, 0u);
        EXPECT_EQ(E.Seq, 1u); // Pending count, not a descriptor seq.
      }
    EXPECT_EQ(Drains, 1u);
    HostA = M.hostClock().now();
  }
  runMidDrainSchedule(true, Count, nullptr, &HostB);
  // Identical schedule, identical cycles (the recorder is passive, so
  // the traced run matches the untraced one too).
  EXPECT_EQ(HostA, HostB);
}

TEST(ResidentWorker, FullMailboxOfDyingWorkerDrainsBackIntact) {
  // Fill one worker's mailbox to capacity, refuse the overflow push,
  // then kill the worker on its first pop: the popped descriptor plus
  // the full backlog must drain back in order, boundaries intact, and
  // re-run elsewhere exactly once.
  MachineConfig Cfg;
  Cfg.NumAccelerators = 2;
  Cfg.Faults.Enabled = true; // Rates stay 0.0; only the scheduled kill.
  Machine M(Cfg);
  M.faults()->scheduleChunkKill(0, 0);
  std::vector<unsigned> Visits;
  auto Body = [&](OffloadContext &, uint32_t Begin, uint32_t End) {
    for (uint32_t I = Begin; I != End; ++I)
      ++Visits[I];
  };
  ResidentWorkerPool Pool(M, 2);
  ASSERT_EQ(Pool.liveCount(), 2u);
  unsigned W0 = Pool.findWorkerFor(0);
  ASSERT_NE(W0, ResidentWorkerPool::NoWorker);
  const unsigned Depth = Pool.mailbox(W0).capacity();
  Visits.assign(Depth + 1, 0);
  for (unsigned I = 0; I != Depth; ++I)
    Pool.dispatch(W0, {I, I + 1, I, WorkDescriptor::NoHome});
  ASSERT_TRUE(Pool.mailbox(W0).full());
  // The overflow push is refused without charging the doorbell or
  // corrupting the queue.
  uint64_t DoorbellsBefore = M.hostCounters().DoorbellCycles;
  EXPECT_FALSE(
      Pool.mailbox(W0).push({Depth, Depth + 1, Depth,
                             WorkDescriptor::NoHome}));
  EXPECT_EQ(M.hostCounters().DoorbellCycles, DoorbellsBefore);
  EXPECT_EQ(Pool.mailbox(W0).size(), Depth);

  std::vector<WorkDescriptor> Orphans;
  EXPECT_FALSE(Pool.executeNext(W0, Body, Orphans));
  // Popped descriptor first, then the backlog oldest-first: nothing
  // lost, nothing duplicated, boundaries untouched.
  ASSERT_EQ(Orphans.size(), Depth);
  for (unsigned I = 0; I != Depth; ++I) {
    EXPECT_EQ(Orphans[I].Begin, I);
    EXPECT_EQ(Orphans[I].End, I + 1);
  }
  EXPECT_EQ(Pool.liveCount(), 1u);
  EXPECT_EQ(Pool.findWorkerFor(0), ResidentWorkerPool::NoWorker);
  EXPECT_EQ(Pool.stats().DeadWorkers, 1u);
  EXPECT_EQ(Pool.stats().RequeuedDescriptors, Depth);

  for (const WorkDescriptor &Desc : Orphans) {
    unsigned W = Pool.pickWorker();
    Pool.dispatch(W, Desc);
    ASSERT_TRUE(Pool.executeNext(W, Body, Orphans));
  }
  Pool.close();
  for (unsigned I = 0; I != Depth; ++I)
    EXPECT_EQ(Visits[I], 1u) << "index " << I;
  EXPECT_EQ(Visits[Depth], 0u); // The refused push never ran.
}

TEST(ResidentWorker, DoorbellAfterKillAcceleratorDrainsTheBacklog) {
  // The host hard-kills a core while its mailbox holds a backlog, and
  // one more doorbell lands *after* the kill (the mailbox is host-side
  // state, so the push succeeds). The next pop's death verdict buries
  // the worker: every descriptor — pushed before or after the kill —
  // drains back exactly once.
  MachineConfig Cfg;
  Cfg.NumAccelerators = 2;
  Cfg.Faults.Enabled = true;
  Machine M(Cfg);
  M.faults()->scheduleChunkKill(0, 0);
  std::vector<unsigned> Visits(4, 0);
  auto Body = [&](OffloadContext &, uint32_t Begin, uint32_t End) {
    for (uint32_t I = Begin; I != End; ++I)
      ++Visits[I];
  };
  ResidentWorkerPool Pool(M, 2);
  ASSERT_EQ(Pool.liveCount(), 2u);
  unsigned W0 = Pool.findWorkerFor(0);
  ASSERT_NE(W0, ResidentWorkerPool::NoWorker);
  for (unsigned I = 0; I != 3; ++I)
    Pool.dispatch(W0, {I, I + 1, I, WorkDescriptor::NoHome});
  M.killAccelerator(0);
  EXPECT_FALSE(M.accel(0).Alive);
  // Late doorbell: the host had the descriptor in flight when the core
  // died. It must queue (and later drain), not vanish.
  Pool.dispatch(W0, {3, 4, 3, WorkDescriptor::NoHome});
  EXPECT_EQ(Pool.mailbox(W0).size(), 4u);

  std::vector<WorkDescriptor> Orphans;
  EXPECT_FALSE(Pool.executeNext(W0, Body, Orphans));
  ASSERT_EQ(Orphans.size(), 4u);
  for (unsigned I = 0; I != 4; ++I) {
    EXPECT_EQ(Orphans[I].Begin, I);
    EXPECT_EQ(Orphans[I].End, I + 1);
  }
  for (const WorkDescriptor &Desc : Orphans) {
    unsigned W = Pool.pickWorker();
    Pool.dispatch(W, Desc);
    ASSERT_TRUE(Pool.executeNext(W, Body, Orphans));
  }
  Pool.close();
  for (unsigned I = 0; I != 4; ++I)
    EXPECT_EQ(Visits[I], 1u) << "index " << I;
}

TEST(ResidentWorker, DeterministicAcrossRuns) {
  uint64_t Makespans[2];
  for (int Run = 0; Run != 2; ++Run) {
    Machine M;
    JobQueueOptions Opts;
    Opts.ChunkSize = 5;
    Opts.Adaptive = true;
    Makespans[Run] =
        distributeJobs(M, 430, Opts,
                       [](OffloadContext &Ctx, uint32_t Begin,
                          uint32_t End) {
                         Ctx.compute((End - Begin) * 211);
                       })
            .MakespanCycles;
  }
  EXPECT_EQ(Makespans[0], Makespans[1]);
}
