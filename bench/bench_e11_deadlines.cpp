//===- bench/bench_e11_deadlines.cpp - Experiment E11 ---------------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// E11: deadline-aware recovery from timing faults. A console frame is a
// hard real-time budget; a wedged SPE or a thermally throttled core
// must not take the frame down with it. This experiment injects
// stragglers (a chunk runs Nx slower than measured) and kernel hangs
// into the resident-worker AI schedule and sweeps the watchdog's
// recovery policy:
//
//   - straggler_pm x slowdown x policy: per-mille straggler probability,
//     exact slowdown factor, and DeadlinePolicy {0=none, 1=cancel+
//     restart, 2=speculative re-dispatch}. Reports p50/p95/p99 frame
//     cycles over the row's frames; speculate rows also report
//     p99_win_vs_restart (restart-policy p99 / speculate p99).
//   - hung_workers: K workers wedge on their second descriptor of the
//     run; the watchdog detects them, their mailboxes drain back, and
//     the frame completes on the survivors.
//   - budget_pct: graceful degradation under a frame budget of N% of
//     the fault-free median frame, with stragglers injected.
//   - lone straggler: the staged frame on one resident worker under
//     cancel+restart, with one 16x straggler past a 100k-cycle deadline.
//     No second worker can take the copy, so the host runs the chunk
//     (the escalation's price: host_chunks, recovery_cycles).
//
// Every row is checksum-asserted: timing faults and recovery must
// never change world state (bit-identical to the fault-free run);
// degradation rows, which shed work by design, are asserted
// reproducible (two runs, identical checksums). A divergence aborts.
//
// The chunk deadline is self-calibrated: doubled until a fault-free
// run with the watchdog armed detects zero stragglers and costs
// exactly the same cycles as an unarmed run.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "game/GameWorld.h"
#include "sim/FaultInjector.h"
#include "sim/Machine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

using namespace omm::bench;
using namespace omm::game;
using namespace omm::sim;

namespace {

constexpr uint32_t NumEntities = 512;
constexpr uint32_t FramesPerRow = 24;

/// Everything one row of the sweep needs from a run.
struct RunOut {
  uint64_t TotalCycles = 0;
  std::vector<uint64_t> FrameCycles;
  uint64_t Checksum = 0;
  uint64_t Hangs = 0;
  uint64_t Stragglers = 0;
  uint64_t Speculative = 0;
  uint64_t Cancels = 0;
  uint64_t Failover = 0;
  uint64_t MissedFrames = 0;
  uint64_t HostChunks = 0;
  uint64_t AiShed = 0;
  uint64_t AnimShed = 0;
  unsigned FinalDegradeLevel = 0;
};

GameWorldParams worldParams(uint64_t FrameBudget) {
  GameWorldParams Params;
  Params.NumEntities = NumEntities;
  Params.FrameBudgetCycles = FrameBudget;
  return Params;
}

/// Watchdog-armed machine with the given recovery policy and injected
/// timing-fault mix. Min == Max pins the slowdown so the sweep axis is
/// exact. Zero rates with Enabled draw nothing (scheduled faults only).
MachineConfig deadlineConfig(uint64_t ChunkDeadline, DeadlinePolicy Policy,
                             float StragglerRate, float Slowdown,
                             bool EnableFaults) {
  MachineConfig Cfg = MachineConfig::cellLike();
  Cfg.ChunkDeadlineCycles = ChunkDeadline;
  Cfg.DeadlineRecovery = Policy;
  if (EnableFaults) {
    Cfg.Faults.Enabled = true;
    Cfg.Faults.StragglerRate = StragglerRate;
    Cfg.Faults.StragglerSlowdownMin = Slowdown;
    Cfg.Faults.StragglerSlowdownMax = Slowdown;
  }
  return Cfg;
}

RunOut runFrames(const MachineConfig &Cfg, uint64_t FrameBudget,
                 unsigned HungWorkers = 0) {
  Machine M(Cfg);
  for (unsigned A = 0; A != HungWorkers; ++A)
    M.faults()->scheduleHang(A, 1);
  GameWorld World(M, worldParams(FrameBudget));
  RunOut Run;
  Run.FrameCycles.reserve(FramesPerRow);
  PerfCounters Before = M.totalCounters();
  for (uint32_t F = 0; F != FramesPerRow; ++F) {
    FrameStats S = World.doFrameOffloadAiResident();
    Run.FrameCycles.push_back(S.FrameCycles);
    Run.TotalCycles += S.FrameCycles;
    Run.Failover += S.FailoverSlices;
    Run.AiShed += S.AiEntitiesShed;
    Run.AnimShed += S.AnimEntitiesShed;
  }
  PerfCounters C = M.countersSince(Before);
  Run.MissedFrames = C.DeadlineMissedFrames;
  Run.Hangs = C.HangsDetected;
  Run.Stragglers = C.StragglersDetected;
  Run.Speculative = C.SpeculativeRedispatches;
  Run.Cancels = C.CancelsIssued;
  Run.FinalDegradeLevel = World.degradeLevel();
  Run.Checksum = World.checksum();
  return Run;
}

/// Fault-free, watchdog-unarmed reference: the checksum every timing-
/// fault row must reproduce bit-for-bit, and the frame-time floor the
/// degradation budgets are derived from.
const RunOut &cleanReference() {
  static RunOut Clean = runFrames(MachineConfig::cellLike(), 0);
  return Clean;
}

/// Smallest power-of-two-scaled deadline at which an armed watchdog is
/// invisible on a fault-free run (zero detections, identical cycles).
uint64_t calibratedChunkDeadline() {
  static uint64_t Deadline = [] {
    const RunOut &Clean = cleanReference();
    for (uint64_t D = 512;; D *= 2) {
      RunOut Armed = runFrames(
          deadlineConfig(D, DeadlinePolicy::None, 0.0f, 1.0f, false), 0);
      if (Armed.Stragglers == 0 && Armed.TotalCycles == Clean.TotalCycles)
        return D;
      if (D > (uint64_t(1) << 40)) {
        std::fprintf(stderr, "FATAL: chunk-deadline calibration diverged\n");
        std::abort();
      }
    }
  }();
  return Deadline;
}

void reportRecoveryCounters(benchmark::State &State, const RunOut &Run) {
  State.counters["stragglers"] = static_cast<double>(Run.Stragglers);
  State.counters["cancels"] = static_cast<double>(Run.Cancels);
  State.counters["spec_redispatches"] = static_cast<double>(Run.Speculative);
}

DeadlinePolicy policyFromArg(int64_t Arg) {
  switch (Arg) {
  case 1:
    return DeadlinePolicy::CancelRestart;
  case 2:
    return DeadlinePolicy::Speculate;
  default:
    return DeadlinePolicy::None;
  }
}

void BM_StragglerPolicy(benchmark::State &State) {
  float Rate = static_cast<float>(State.range(0)) / 1000.0f;
  float Slowdown = static_cast<float>(State.range(1));
  DeadlinePolicy Policy = policyFromArg(State.range(2));
  uint64_t Deadline = calibratedChunkDeadline();
  for (auto _ : State) {
    RunOut Run = runFrames(
        deadlineConfig(Deadline, Policy, Rate, Slowdown, Rate > 0.0f), 0);
    requireChecksum(Run.Checksum, cleanReference().Checksum, "straggler_policy",
                    State.range(0), "the fault-free run");
    reportSimCycles(State, Run.TotalCycles);
    reportCyclePercentiles(State, Run.FrameCycles);
    reportRecoveryCounters(State, Run);
    if (Policy == DeadlinePolicy::Speculate && Rate > 0.0f) {
      // The two recovery baselines this row must beat: detect-only
      // (None rides out the full slowdown) and cancel+restart (pays a
      // fresh copy even when the victim was nearly done).
      RunOut DetectOnly = runFrames(
          deadlineConfig(Deadline, DeadlinePolicy::None, Rate, Slowdown,
                         true),
          0);
      RunOut Restart = runFrames(
          deadlineConfig(Deadline, DeadlinePolicy::CancelRestart, Rate,
                         Slowdown, true),
          0);
      requireChecksum(DetectOnly.Checksum, cleanReference().Checksum,
                      "straggler_none", State.range(0), "the fault-free run");
      requireChecksum(Restart.Checksum, cleanReference().Checksum,
                      "straggler_restart", State.range(0),
                      "the fault-free run");
      State.counters["p99_win_vs_none"] =
          static_cast<double>(cyclePercentile(DetectOnly.FrameCycles, 99.0)) /
          static_cast<double>(cyclePercentile(Run.FrameCycles, 99.0));
      State.counters["p99_win_vs_restart"] =
          static_cast<double>(cyclePercentile(Restart.FrameCycles, 99.0)) /
          static_cast<double>(cyclePercentile(Run.FrameCycles, 99.0));
    }
  }
}

void BM_HungWorkers(benchmark::State &State) {
  unsigned Hung = static_cast<unsigned>(State.range(0));
  uint64_t Deadline = calibratedChunkDeadline();
  for (auto _ : State) {
    RunOut Run = runFrames(deadlineConfig(Deadline, DeadlinePolicy::None,
                                          0.0f, 1.0f, Hung != 0),
                           0, Hung);
    requireChecksum(Run.Checksum, cleanReference().Checksum, "hung_workers",
                    Hung, "the fault-free run");
    reportSimCycles(State, Run.TotalCycles);
    reportCyclePercentiles(State, Run.FrameCycles);
    State.counters["hangs"] = static_cast<double>(Run.Hangs);
    State.counters["cancels"] = static_cast<double>(Run.Cancels);
    State.counters["failover_chunks"] = static_cast<double>(Run.Failover);
  }
}

void BM_FrameBudget(benchmark::State &State) {
  uint64_t Pct = static_cast<uint64_t>(State.range(0));
  uint64_t Deadline = calibratedChunkDeadline();
  // Budget relative to the fault-free median frame; 0 disables it.
  uint64_t Median = cyclePercentile(cleanReference().FrameCycles, 50.0);
  uint64_t Budget = Median * Pct / 100;
  MachineConfig Cfg = deadlineConfig(Deadline, DeadlinePolicy::Speculate,
                                     0.05f, 8.0f, true);
  for (auto _ : State) {
    RunOut Run = runFrames(Cfg, Budget);
    if (Budget == 0) {
      requireChecksum(Run.Checksum, cleanReference().Checksum, "frame_budget",
                      State.range(0), "the fault-free run");
    } else {
      // Shedding changes world state by design; assert the degraded
      // run is at least deterministic.
      RunOut Again = runFrames(Cfg, Budget);
      if (Again.Checksum != Run.Checksum) {
        std::fprintf(stderr,
                     "FATAL: frame_budget arg %llu: degraded run is not "
                     "reproducible\n",
                     static_cast<unsigned long long>(Pct));
        std::abort();
      }
    }
    reportSimCycles(State, Run.TotalCycles);
    reportCyclePercentiles(State, Run.FrameCycles);
    reportRecoveryCounters(State, Run);
    State.counters["missed_frames"] = static_cast<double>(Run.MissedFrames);
    State.counters["ai_shed"] = static_cast<double>(Run.AiShed);
    State.counters["anim_shed"] = static_cast<double>(Run.AnimShed);
    State.counters["final_degrade_level"] =
        static_cast<double>(Run.FinalDegradeLevel);
  }
}

/// Frames of the staged schedule on one resident worker. A \p Slowdown
/// above 1 makes the worker's 12th descriptor pop a straggler: a shard
/// of the first frame's collision stage (8 shards in each of 3 stages),
/// and every shard runs well inside the lone-straggler deadline
/// fault-free.
RunOut runStagedFrames(const MachineConfig &Cfg, float Slowdown) {
  Machine M(Cfg);
  if (Slowdown > 1.0f)
    M.faults()->scheduleStraggler(0, /*Index=*/11, Slowdown);
  GameWorld World(M, worldParams(0));
  RunOut Run;
  Run.FrameCycles.reserve(FramesPerRow);
  PerfCounters Before = M.totalCounters();
  for (uint32_t F = 0; F != FramesPerRow; ++F) {
    FrameStats S = World.doFrameStaged(/*MaxAccelerators=*/1);
    Run.FrameCycles.push_back(S.FrameCycles);
    Run.TotalCycles += S.FrameCycles;
  }
  PerfCounters C = M.countersSince(Before);
  Run.Stragglers = C.StragglersDetected;
  Run.Cancels = C.CancelsIssued;
  Run.HostChunks = C.HostFallbackChunks;
  Run.Checksum = World.checksum();
  return Run;
}

void BM_LoneStraggler(benchmark::State &State) {
  float Slowdown = static_cast<float>(State.range(0));
  constexpr uint64_t Deadline = 100000;
  for (auto _ : State) {
    RunOut Clean = runStagedFrames(MachineConfig::cellLike(), 1.0f);
    RunOut Run = runStagedFrames(
        deadlineConfig(Deadline, DeadlinePolicy::CancelRestart, 0.0f,
                       Slowdown, true),
        Slowdown);
    requireChecksum(Run.Checksum, Clean.Checksum, "lone_straggler",
                    State.range(0), "the fault-free run");
    reportSimCycles(State, Run.TotalCycles);
    reportCyclePercentiles(State, Run.FrameCycles);
    reportRecoveryCounters(State, Run);
    State.counters["host_chunks"] = static_cast<double>(Run.HostChunks);
    State.counters["recovery_cycles"] =
        static_cast<double>(Run.TotalCycles - Clean.TotalCycles);
  }
}

} // namespace

BENCHMARK(BM_StragglerPolicy)
    ->ArgNames({"straggler_pm", "slowdown", "policy"})
    ->Args({0, 2, 0})
    ->Args({0, 2, 1})
    ->Args({0, 2, 2})
    ->Args({50, 2, 0})
    ->Args({50, 2, 1})
    ->Args({50, 2, 2})
    ->Args({100, 2, 0})
    ->Args({100, 2, 1})
    ->Args({100, 2, 2})
    ->Args({50, 4, 0})
    ->Args({50, 4, 1})
    ->Args({50, 4, 2})
    ->Args({100, 4, 0})
    ->Args({100, 4, 1})
    ->Args({100, 4, 2})
    ->Args({20, 16, 0})
    ->Args({20, 16, 1})
    ->Args({20, 16, 2})
    ->Args({50, 16, 0})
    ->Args({50, 16, 1})
    ->Args({50, 16, 2})
    ->Args({100, 16, 0})
    ->Args({100, 16, 1})
    ->Args({100, 16, 2})
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });

BENCHMARK(BM_HungWorkers)
    ->ArgName("hung_workers")
    ->DenseRange(0, 3, 1)
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });

BENCHMARK(BM_FrameBudget)
    ->ArgName("budget_pct")
    ->Arg(0)->Arg(100)->Arg(105)->Arg(115)
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });

BENCHMARK(BM_LoneStraggler)
    ->ArgName("slowdown")
    ->Arg(16)
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });
