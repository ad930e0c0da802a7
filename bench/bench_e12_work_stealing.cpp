//===- bench/bench_e12_work_stealing.cpp - Experiment E12 -----------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// E12: locality-aware work stealing between resident workers. The
// parallel-for static split is cheap to publish (one bulk doorbell per
// worker) but fragile: a skewed cost profile or a straggling core turns
// the tail of one slice into the frame's critical path while five other
// cores idle. With stealing enabled each slice is published as
// StealSliceChunks sub-descriptors and an idle worker whose clock
// trails the pack probes for a victim and takes half its backlog with a
// single list-form DMA.
//
// Sweeps (policy: 0=None, 1=Rotation, 2=LocalityAware):
//   - hot_mult x policy: a contiguous hot window (1/8 of the range,
//     rotating per frame) costs hot_mult times the base item. Stealing
//     rows report p99_win_vs_none, the headline gate of this
//     experiment (>= 1.3x at hot_mult >= 8).
//   - straggler_pm x slowdown x policy: timing faults instead of cost
//     skew — a chunk's compute runs slowdown-times slower with
//     per-mille probability straggler_pm.
//   - slice_chunks: steal granularity crossover at a fixed skew. One
//     sub-descriptor per slice leaves nothing to steal (a backlog of 1
//     is below StealMinBacklog); the win saturates once sub-slices are
//     comfortably finer than the hot window.
//   - killed_victims: K workers die on their first descriptor pop of
//     the run while stealing is live; their backlogs drain through the
//     recovery ladder and every item still lands exactly once.
//   - uniform overhead: balanced load, no faults — the price of the
//     steal machinery when there is nothing to steal.
//
// Every row is checksum-asserted against host-computed expected values;
// a divergence aborts the benchmark. Stealing relocates work, never
// results.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "offload/Offload.h"
#include "offload/ParallelFor.h"
#include "offload/Ptr.h"
#include "sim/FaultInjector.h"
#include "support/Random.h"

#include <algorithm>
#include <vector>

using namespace omm::bench;
using namespace omm::offload;
using namespace omm::sim;
using omm::splitMix64;

namespace {

constexpr uint32_t Count = 1536; // 256 items per slice on 6 workers.
constexpr uint32_t FramesPerRow = 24;
constexpr uint64_t BaseCost = 100;
constexpr uint32_t HotWindow = Count / 8;

constexpr uint64_t ItemSeed = 0xE12;

/// What every row's output array must checksum to, and its name.
constexpr uint64_t Expected = expectedChecksum(ItemSeed, Count);
constexpr const char *HostValues = "the host-computed values";

/// The hot window starts at a hash-picked position each frame and
/// wraps, so over a row it lands in every worker's static slice and
/// the p99 captures the unluckiest placements.
uint64_t itemCost(uint32_t I, uint32_t Frame, uint64_t HotMult) {
  uint32_t HotBegin =
      static_cast<uint32_t>(splitMix64(0xF00D ^ Frame) % Count);
  uint32_t Offset = (I + Count - HotBegin) % Count;
  return Offset < HotWindow ? BaseCost * HotMult : BaseCost;
}

struct RunOut {
  uint64_t TotalCycles = 0;
  std::vector<uint64_t> FrameCycles;
  uint64_t Checksum = 0;
  /// Every frame's region counters, merged.
  PerfCounters Counters;
  /// Descriptors that ran on a core other than their Home: steals and
  /// orphan re-runs alike (FailoverChunks minus the re-runs).
  uint64_t OffHomeSlices = 0;
};

StealPolicy policyFromArg(int64_t Arg) {
  switch (Arg) {
  case 1:
    return StealPolicy::Rotation;
  case 2:
    return StealPolicy::LocalityAware;
  default:
    return StealPolicy::None;
  }
}

MachineConfig stealConfig(StealPolicy Policy, float StragglerRate = 0.0f,
                          float Slowdown = 1.0f,
                          unsigned SliceChunks = 4,
                          bool EnableFaults = false) {
  MachineConfig Cfg = MachineConfig::cellLike();
  Cfg.WorkStealing = Policy;
  Cfg.StealSliceChunks = SliceChunks;
  if (EnableFaults || StragglerRate > 0.0f) {
    Cfg.Faults.Enabled = true;
    Cfg.Faults.StragglerRate = StragglerRate;
    Cfg.Faults.StragglerSlowdownMin = Slowdown;
    Cfg.Faults.StragglerSlowdownMax = Slowdown;
  }
  return Cfg;
}

/// FramesPerRow parallel-for frames over the same range. \p KilledWorkers
/// accelerators die on their first descriptor pop of the run.
RunOut runFrames(const MachineConfig &Cfg, uint64_t HotMult,
                 unsigned KilledWorkers = 0) {
  Machine M(Cfg);
  for (unsigned A = 0; A != KilledWorkers; ++A)
    M.faults()->scheduleChunkKill(A, 1);
  OuterPtr<uint64_t> Data = allocOuterArray<uint64_t>(M, Count);
  RunOut Run;
  Run.FrameCycles.reserve(FramesPerRow);
  for (uint32_t F = 0; F != FramesPerRow; ++F) {
    uint64_t Begin = M.globalTime();
    RegionStats S = parallelForRange(
        M, Count, [&](auto &Ctx, uint32_t B, uint32_t E) {
          for (uint32_t I = B; I != E; ++I) {
            Ctx.compute(itemCost(I, F, HotMult));
            Ctx.outerWrite((Data + I).addr(), itemValue(ItemSeed, I));
          }
        });
    uint64_t Cycles = M.globalTime() - Begin;
    Run.FrameCycles.push_back(Cycles);
    Run.TotalCycles += Cycles;
    Run.Counters.merge(S.Counters);
    Run.OffHomeSlices += S.Counters.FailoverChunks - S.RequeuedDescriptors;
  }
  Run.Checksum = readChecksum(M, Data, Count);
  return Run;
}

void reportStealCounters(benchmark::State &State, const RunOut &Run) {
  State.counters["steals_attempted"] =
      static_cast<double>(Run.Counters.StealsAttempted);
  State.counters["steals_succeeded"] =
      static_cast<double>(Run.Counters.StealsSucceeded);
  State.counters["descriptors_stolen"] =
      static_cast<double>(Run.Counters.DescriptorsStolen);
  State.counters["steal_cycles"] =
      static_cast<double>(Run.Counters.StealCycles);
}

void BM_SkewedChunks(benchmark::State &State) {
  uint64_t HotMult = static_cast<uint64_t>(State.range(0));
  StealPolicy Policy = policyFromArg(State.range(1));
  for (auto _ : State) {
    RunOut Run = runFrames(stealConfig(Policy), HotMult);
    requireChecksum(Run.Checksum, Expected, "skewed_chunks", State.range(0),
                    HostValues);
    reportSimCycles(State, Run.TotalCycles);
    reportCyclePercentiles(State, Run.FrameCycles);
    reportStealCounters(State, Run);
    if (Policy != StealPolicy::None) {
      RunOut None = runFrames(stealConfig(StealPolicy::None), HotMult);
      requireChecksum(None.Checksum, Expected, "skewed_chunks_none",
                      State.range(0), HostValues);
      reportP99Win(State, None.FrameCycles, Run.FrameCycles);
    }
  }
}

void BM_StragglerSteal(benchmark::State &State) {
  float Rate = static_cast<float>(State.range(0)) / 1000.0f;
  float Slowdown = static_cast<float>(State.range(1));
  StealPolicy Policy = policyFromArg(State.range(2));
  for (auto _ : State) {
    RunOut Run = runFrames(stealConfig(Policy, Rate, Slowdown), 1);
    requireChecksum(Run.Checksum, Expected, "straggler_steal", State.range(0),
                    HostValues);
    reportSimCycles(State, Run.TotalCycles);
    reportCyclePercentiles(State, Run.FrameCycles);
    reportStealCounters(State, Run);
    if (Policy != StealPolicy::None) {
      RunOut None =
          runFrames(stealConfig(StealPolicy::None, Rate, Slowdown), 1);
      requireChecksum(None.Checksum, Expected, "straggler_none", State.range(0),
                      HostValues);
      reportP99Win(State, None.FrameCycles, Run.FrameCycles);
    }
  }
}

void BM_SliceChunks(benchmark::State &State) {
  unsigned SliceChunks = static_cast<unsigned>(State.range(0));
  constexpr uint64_t HotMult = 16;
  for (auto _ : State) {
    RunOut Run = runFrames(
        stealConfig(StealPolicy::LocalityAware, 0.0f, 1.0f, SliceChunks),
        HotMult);
    requireChecksum(Run.Checksum, Expected, "slice_chunks", State.range(0),
                    HostValues);
    RunOut None = runFrames(stealConfig(StealPolicy::None), HotMult);
    requireChecksum(None.Checksum, Expected, "slice_chunks_none",
                    State.range(0), HostValues);
    reportSimCycles(State, Run.TotalCycles);
    reportCyclePercentiles(State, Run.FrameCycles);
    reportStealCounters(State, Run);
    reportP99Win(State, None.FrameCycles, Run.FrameCycles);
  }
}

void BM_KilledVictims(benchmark::State &State) {
  unsigned Killed = static_cast<unsigned>(State.range(0));
  constexpr uint64_t HotMult = 8;
  MachineConfig Cfg = stealConfig(StealPolicy::LocalityAware, 0.0f, 1.0f, 4,
                                  /*EnableFaults=*/Killed != 0);
  for (auto _ : State) {
    RunOut Clean = runFrames(stealConfig(StealPolicy::LocalityAware), HotMult);
    RunOut Run = runFrames(Cfg, HotMult, Killed);
    requireChecksum(Run.Checksum, Expected, "killed_victims", Killed,
                    HostValues);
    reportSimCycles(State, Run.TotalCycles);
    reportCyclePercentiles(State, Run.FrameCycles);
    reportStealCounters(State, Run);
    State.counters["off_home_slices"] =
        static_cast<double>(Run.OffHomeSlices);
    State.counters["overhead_pct"] =
        100.0 * (static_cast<double>(Run.TotalCycles) /
                     static_cast<double>(Clean.TotalCycles) -
                 1.0);
  }
}

void BM_UniformOverhead(benchmark::State &State) {
  StealPolicy Policy = policyFromArg(State.range(0));
  for (auto _ : State) {
    RunOut Run = runFrames(stealConfig(Policy), 1);
    requireChecksum(Run.Checksum, Expected, "uniform_overhead", State.range(0),
                    HostValues);
    reportSimCycles(State, Run.TotalCycles);
    reportCyclePercentiles(State, Run.FrameCycles);
    reportStealCounters(State, Run);
    if (Policy != StealPolicy::None) {
      RunOut None = runFrames(stealConfig(StealPolicy::None), 1);
      State.counters["overhead_pct"] =
          100.0 * (static_cast<double>(Run.TotalCycles) /
                       static_cast<double>(None.TotalCycles) -
                   1.0);
    }
  }
}

} // namespace

BENCHMARK(BM_SkewedChunks)
    ->ArgNames({"hot_mult", "policy"})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({1, 2})
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({8, 2})
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({16, 2})
    ->Args({32, 0})
    ->Args({32, 1})
    ->Args({32, 2})
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });

BENCHMARK(BM_StragglerSteal)
    ->ArgNames({"straggler_pm", "slowdown", "policy"})
    ->Args({50, 8, 0})
    ->Args({50, 8, 1})
    ->Args({50, 8, 2})
    ->Args({100, 8, 0})
    ->Args({100, 8, 1})
    ->Args({100, 8, 2})
    ->Args({50, 16, 0})
    ->Args({50, 16, 1})
    ->Args({50, 16, 2})
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });

BENCHMARK(BM_SliceChunks)
    ->ArgName("slice_chunks")
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });

BENCHMARK(BM_KilledVictims)
    ->ArgName("killed_victims")
    ->DenseRange(0, 3, 1)
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });

BENCHMARK(BM_UniformOverhead)
    ->ArgName("policy")
    ->DenseRange(0, 2, 1)
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });
