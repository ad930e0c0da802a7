//===- tests/deadline_test.cpp - Watchdog deadlines and cancellation -------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// The deadline-aware watchdog runtime's contract, asserted:
//   - WatchdogTimer quantizes detection to the check-interval grid and
//     arms only when a chunk deadline is nonzero;
//   - a wedged resident worker (injected kernel hang) is detected at
//     the sweep after its chunk deadline, cancelled, buried, and its
//     work re-dispatched — results bit-identical to fault-free;
//   - an injected straggler finishes late under DeadlinePolicy::None,
//     earlier under CancelRestart and Speculate, with identical results
//     under every policy;
//   - with no other worker to copy onto, CancelRestart escalates a
//     missed chunk to the host and trims the victim's clock;
//   - timing faults are drawn only at resident descriptor pops: a
//     launch is fail-stop, so a scheduled straggler or hang skips every
//     offloadBlock and fires at the next mailbox descriptor instead;
//   - the frame-budget degradation ladder sheds deterministically.
//
//===----------------------------------------------------------------------===//

#include "sim/WatchdogTimer.h"

#include "game/GameWorld.h"
#include "offload/JobQueue.h"
#include "offload/Offload.h"
#include "offload/Ptr.h"
#include "sim/FaultInjector.h"
#include "support/MathExtras.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace omm;
using namespace omm::offload;
using namespace omm::sim;

TEST(WatchdogTimer, DetectionSnapsToTheCheckGrid) {
  static_assert(MachineConfig::WatchdogCheckCycles == 200);
  MachineConfig Cfg;
  Cfg.ChunkDeadlineCycles = 1000;
  WatchdogTimer WD(Cfg);
  EXPECT_TRUE(WD.armsChunks());
  EXPECT_EQ(WD.detectionCycle(0), 0u);
  EXPECT_EQ(WD.detectionCycle(200), 200u);
  EXPECT_EQ(WD.detectionCycle(201), 400u);
  EXPECT_EQ(WD.detectionCycle(399), 400u);
}

namespace {

/// Machine with chunk deadlines armed and fault injection enabled but
/// all rates zero — only scheduled timing faults fire, so the RNG
/// stream is never drawn and fault-free runs stay bit-identical.
MachineConfig armedConfig(DeadlinePolicy Policy) {
  MachineConfig Cfg;
  Cfg.NumAccelerators = 2;
  Cfg.ChunkDeadlineCycles = 2000;
  Cfg.DeadlineRecovery = Policy;
  Cfg.Faults.Enabled = true;
  return Cfg;
}

struct QueueRun {
  uint64_t Makespan = 0;
  std::vector<uint64_t> Values;
  RegionStats Stats;
};

/// 8 chunks of 1000 cycles each over 2 workers, one value write per
/// index; \p Prepare schedules the run's timing faults.
template <typename PrepareFn>
QueueRun runQueue(DeadlinePolicy Policy, PrepareFn &&Prepare) {
  constexpr uint32_t Count = 8;
  Machine M(armedConfig(Policy));
  Prepare(M);
  OuterPtr<uint64_t> Data = allocOuterArray<uint64_t>(M, Count);
  QueueRun Run;
  Run.Stats = distributeJobs(
      M, Count, {.ChunkSize = 1}, [&](auto &Ctx, uint32_t Begin, uint32_t End) {
        for (uint32_t I = Begin; I != End; ++I) {
          Ctx.compute(1000);
          Ctx.outerWrite((Data + I).addr(), uint64_t(I) * 31 + 7);
        }
      });
  Run.Makespan = Run.Stats.MakespanCycles;
  for (uint32_t I = 0; I != Count; ++I)
    Run.Values.push_back(
        M.mainMemory().readValue<uint64_t>((Data + I).addr()));
  return Run;
}

} // namespace

TEST(Deadline, HungWorkerIsDetectedBuriedAndRequeued) {
  QueueRun Clean = runQueue(DeadlinePolicy::None, [](Machine &) {});
  QueueRun Hung = runQueue(DeadlinePolicy::None, [](Machine &M) {
    M.faults()->scheduleHang(0, 1); // Wedge on its second descriptor.
  });
  EXPECT_EQ(Hung.Stats.Counters.HangsDetected, 1u);
  EXPECT_EQ(Hung.Stats.DeadWorkers, 1u);
  EXPECT_GE(Hung.Stats.RequeuedDescriptors, 1u);
  EXPECT_EQ(Hung.Stats.Counters.CancelsIssued, 1u);
  // The wedged descriptor re-ran elsewhere: results bit-identical, at
  // a makespan cost of at least the missed deadline.
  EXPECT_EQ(Hung.Values, Clean.Values);
  EXPECT_GT(Hung.Makespan, Clean.Makespan);
}

TEST(Deadline, StragglerPoliciesTradeTimeNotResults) {
  QueueRun Clean = runQueue(DeadlinePolicy::None, [](Machine &) {});
  auto Straggle = [](Machine &M) {
    // 8x slowdown on worker 0's first descriptor: 1000 real cycles
    // plus a 7000-cycle stall, far past the 2000-cycle deadline.
    M.faults()->scheduleStraggler(0, 0, 8.0f);
  };
  QueueRun None = runQueue(DeadlinePolicy::None, Straggle);
  QueueRun Restart = runQueue(DeadlinePolicy::CancelRestart, Straggle);
  QueueRun Speculate = runQueue(DeadlinePolicy::Speculate, Straggle);

  // Every policy computes the same values — recovery is time-only.
  EXPECT_EQ(None.Values, Clean.Values);
  EXPECT_EQ(Restart.Values, Clean.Values);
  EXPECT_EQ(Speculate.Values, Clean.Values);

  // Detect-only rides out the whole stall; both recovery policies beat
  // it at this slowdown (the copy finishes long before the victim).
  EXPECT_EQ(None.Stats.Counters.StragglersDetected, 1u);
  EXPECT_EQ(None.Stats.Counters.CancelsIssued, 0u);
  EXPECT_GT(None.Makespan, Clean.Makespan);
  EXPECT_LT(Restart.Makespan, None.Makespan);
  EXPECT_LT(Speculate.Makespan, None.Makespan);

  EXPECT_EQ(Restart.Stats.Counters.StragglersDetected, 1u);
  EXPECT_EQ(Restart.Stats.Counters.CancelsIssued, 1u);
  EXPECT_EQ(Restart.Stats.Counters.SpeculativeRedispatches, 0u);

  EXPECT_EQ(Speculate.Stats.Counters.StragglersDetected, 1u);
  EXPECT_EQ(Speculate.Stats.Counters.SpeculativeRedispatches, 1u);
  EXPECT_EQ(Speculate.Stats.Counters.CancelsIssued, 1u);
}

TEST(Deadline, ZeroRateTimingFaultsAreInvisible) {
  // Armed injector, zero rates, unarmed watchdog: byte-for-byte the
  // baseline schedule (the injector draws nothing at rate zero).
  QueueRun Baseline = runQueue(DeadlinePolicy::None, [](Machine &) {});
  MachineConfig Cfg = armedConfig(DeadlinePolicy::None);
  Cfg.ChunkDeadlineCycles = 0; // Disarm the watchdog entirely.
  Cfg.Faults.HangRate = 0.0f;
  Cfg.Faults.StragglerRate = 0.0f;
  Machine M(Cfg);
  constexpr uint32_t Count = 8;
  OuterPtr<uint64_t> Data = allocOuterArray<uint64_t>(M, Count);
  auto Stats = distributeJobs(
      M, Count, {.ChunkSize = 1}, [&](auto &Ctx, uint32_t Begin, uint32_t End) {
        for (uint32_t I = Begin; I != End; ++I) {
          Ctx.compute(1000);
          Ctx.outerWrite((Data + I).addr(), uint64_t(I) * 31 + 7);
        }
      });
  EXPECT_EQ(Stats.MakespanCycles, Baseline.Makespan);
  EXPECT_EQ(Stats.Counters.StragglersDetected, 0u);
  EXPECT_EQ(Stats.Counters.HangsDetected, 0u);
}

TEST(Deadline, TimingFaultsFireOnlyAtDescriptorPops) {
  auto Block = [](OffloadContext &Ctx) { Ctx.compute(500); };
  uint64_t CleanComplete;
  {
    Machine Clean(armedConfig(DeadlinePolicy::None));
    OffloadHandle H = offloadBlock(Clean, 0, Block);
    CleanComplete = H.completeAt();
    offloadJoin(Clean, H);
  }
  // A straggler scheduled for core 0's next timing event: the launch is
  // fail-stop and draws no timing verdict, so it finishes on time...
  Machine M(armedConfig(DeadlinePolicy::None));
  M.faults()->scheduleStraggler(0, 0, 10.0f);
  OffloadHandle Handle = offloadBlock(M, 0, Block);
  EXPECT_EQ(Handle.completeAt(), CleanComplete);
  EXPECT_EQ(offloadJoin(M, Handle), OffloadStatus::Ok);
  // ...and the verdict lands on the first descriptor core 0 pops.
  OuterPtr<uint64_t> Data = allocOuterArray<uint64_t>(M, 8);
  RegionStats Stats = distributeJobs(
      M, 8, {.ChunkSize = 1}, [&](auto &Ctx, uint32_t Begin, uint32_t End) {
        for (uint32_t I = Begin; I != End; ++I) {
          Ctx.compute(1000);
          Ctx.outerWrite((Data + I).addr(), uint64_t(I));
        }
      });
  EXPECT_EQ(Stats.Counters.StragglersDetected, 1u);

  // A hang scheduled with no deadline armed used to be fatal on the
  // launch path; the AI frame's launches now never draw it.
  game::GameWorldParams Params;
  Params.NumEntities = 96;
  uint64_t CleanChecksum;
  {
    Machine Plain;
    game::GameWorld World(Plain, Params);
    World.doFrameOffloadAiParallel(1);
    CleanChecksum = World.checksum();
  }
  MachineConfig Cfg;
  Cfg.Faults.Enabled = true;
  Machine Hung(Cfg);
  Hung.faults()->scheduleHang(0, 0);
  game::GameWorld World(Hung, Params);
  World.doFrameOffloadAiParallel(1);
  EXPECT_TRUE(Hung.accel(0).Alive);
  EXPECT_EQ(Hung.totalCounters().HangsDetected, 0u);
  EXPECT_EQ(World.checksum(), CleanChecksum);
}

TEST(Deadline, FrameBudgetShedsDownTheDegradationLadder) {
  game::GameWorldParams Params;
  Params.NumEntities = 64;
  Params.FrameBudgetCycles = 1; // Every frame misses.
  Machine M;
  game::GameWorld World(M, Params);
  // Level climbs one step per missed frame and caps at 4; each level
  // sheds Count/8 more AI entities, animation joins from level 3.
  const uint32_t ExpectAiShed[] = {0, 8, 16, 24, 32, 32};
  const uint32_t ExpectAnimShed[] = {0, 0, 0, 8, 16, 16};
  for (int F = 0; F != 6; ++F) {
    PerfCounters Before = M.totalCounters();
    game::FrameStats S = World.doFrameHostOnly();
    EXPECT_EQ(M.countersSince(Before).DeadlineMissedFrames, 1u)
        << "frame " << F;
    EXPECT_EQ(S.AiEntitiesShed, ExpectAiShed[F]) << "frame " << F;
    EXPECT_EQ(S.AnimEntitiesShed, ExpectAnimShed[F]) << "frame " << F;
  }
  EXPECT_EQ(World.degradeLevel(), 4u);
  EXPECT_EQ(M.hostCounters().DeadlineMissedFrames, 6u);

  // Same ladder, same shed sets: the degraded world is deterministic.
  Machine M2;
  game::GameWorld World2(M2, Params);
  for (int F = 0; F != 6; ++F)
    World2.doFrameHostOnly();
  EXPECT_EQ(World2.checksum(), World.checksum());

  // A comfortable budget never sheds and never misses.
  game::GameWorldParams Relaxed = Params;
  Relaxed.FrameBudgetCycles = ~0ull;
  Machine M3;
  game::GameWorld World3(M3, Relaxed);
  for (int F = 0; F != 3; ++F) {
    PerfCounters Before = M3.totalCounters();
    game::FrameStats S = World3.doFrameHostOnly();
    EXPECT_EQ(M3.countersSince(Before).DeadlineMissedFrames, 0u);
    EXPECT_EQ(S.AiEntitiesShed, 0u);
  }
  EXPECT_EQ(World3.degradeLevel(), 0u);
}

namespace {

/// Keeps every fault event and every descriptor run a machine reports.
struct EventLog : DmaObserver {
  std::vector<FaultEvent> Faults;
  std::vector<DispatchEvent> Runs;
  void onFault(const FaultEvent &Event) override { Faults.push_back(Event); }
  void onDispatchEvent(const DispatchEvent &Event) override {
    if (Event.Kind == DispatchEventKind::DescriptorRun)
      Runs.push_back(Event);
  }
};

} // namespace

TEST(Deadline, LoneStragglerEscalatesToTheHost) {
  // One resident worker leaves CancelRestart no copy worker: a missed
  // deadline hands the chunk to the host and cancels the victim.
  game::GameWorldParams Params;
  Params.NumEntities = 256; // 4 shards of 64 in each of the 3 stages.
  uint64_t CleanChecksum;
  {
    Machine Plain;
    game::GameWorld World(Plain, Params);
    World.doFrameStaged(/*MaxAccelerators=*/1);
    CleanChecksum = World.checksum();
  }

  // Shards cost 7k-64k cycles, all inside the 100k deadline. The 16x
  // straggler lands on the frame's last shard (physics, ~7k real
  // cycles), so nothing runs on the core after its cancel.
  constexpr uint64_t Slowdown = 16;
  MachineConfig Cfg = armedConfig(DeadlinePolicy::CancelRestart);
  Cfg.ChunkDeadlineCycles = 100000;
  Machine M(Cfg);
  M.faults()->scheduleStraggler(0, 11, float(Slowdown));
  EventLog Log;
  M.addObserver(&Log);
  game::GameWorld World(M, Params);
  PerfCounters Before = M.totalCounters();
  World.doFrameStaged(/*MaxAccelerators=*/1);
  PerfCounters Delta = M.countersSince(Before);
  M.removeObserver(&Log);

  EXPECT_EQ(Delta.StragglersDetected, 1u);
  EXPECT_EQ(Delta.HostFallbackChunks, Delta.StragglersDetected);
  EXPECT_EQ(Delta.CancelsIssued, 1u);
  EXPECT_EQ(Delta.FailoverChunks, 0u);
  std::vector<FaultEvent> HostFallbacks;
  for (const FaultEvent &Event : Log.Faults)
    if (Event.Kind == FaultKind::HostFallback)
      HostFallbacks.push_back(Event);
  ASSERT_EQ(HostFallbacks.size(), Delta.HostFallbackChunks);
  EXPECT_EQ(World.checksum(), CleanChecksum);

  // The victim's clock is trimmed to the first cancel poll after
  // detection, never before its real work ends nor past its slowed end.
  ASSERT_EQ(Log.Runs.size(), 12u);
  const DispatchEvent &Victim = Log.Runs.back();
  uint64_t UnslowedEnd = Victim.EndCycle;
  uint64_t SlowEnd =
      UnslowedEnd + (Slowdown - 1) * (UnslowedEnd - Victim.Cycle);
  uint64_t DetectAt =
      M.watchdog().detectionCycle(Victim.Cycle + Cfg.ChunkDeadlineCycles);
  uint64_t VictimEnd = std::min(
      SlowEnd, std::max(UnslowedEnd,
                        roundUpToMultiple(DetectAt,
                                          MachineConfig::CancelPollCycles)));
  EXPECT_LT(UnslowedEnd, VictimEnd);
  EXPECT_LT(VictimEnd, SlowEnd);
  EXPECT_EQ(M.accel(Victim.AccelId).Clock.now(), VictimEnd);

  // The escalation follows the one host-fallback convention: no block,
  // stamped when the host takes the chunk over (at detection), with the
  // chunk's first index.
  const FaultEvent &Escalation = HostFallbacks.front();
  EXPECT_EQ(Escalation.AccelId, offload::NoAccelerator);
  EXPECT_EQ(Escalation.BlockId, 0u);
  EXPECT_EQ(Escalation.Cycle, DetectAt);
  EXPECT_EQ(Escalation.Detail, Victim.Begin);
}
