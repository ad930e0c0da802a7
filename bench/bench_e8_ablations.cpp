//===- bench/bench_e8_ablations.cpp - Experiment E8 -----------------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// E8: ablations over the architectural and design parameters the paper's
// discussion turns on (Sections 2 and 4):
//
//   dma-latency     — the offloaded AI frame under DMA startup latencies
//                     from near-SMP (10) to worse-than-Cell (1600): how
//                     strongly the techniques depend on transfer cost.
//   dma-bandwidth   — same frame under 1..32 bytes/cycle.
//   chunk-size      — double-buffer chunk sweep for the physics stream:
//                     too small re-pays latency per chunk, too large
//                     stops hiding transfers behind compute.
//   cache-geometry  — line size x capacity for the temporal AI-target
//                     pattern (the E6 cache, under the real workload).
//   lookup-overhead — software cache lookup cost sweep: where the
//                     paper's "typically outweighed" claim stops holding.
//
// Expected shape: monotone degradation with latency; diminishing returns
// past 8 bytes/cycle; a U-shaped chunk-size curve; larger lines help
// until capacity conflicts; the cache stops paying off when lookup
// overhead approaches the transfer cost it saves.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "game/GameWorld.h"
#include "game/Physics.h"
#include "offload/JobQueue.h"
#include "offload/Offload.h"
#include "offload/ParallelFor.h"
#include "offload/SetAssociativeCache.h"
#include "support/Random.h"

using namespace omm;
using namespace omm::bench;
using namespace omm::game;
using namespace omm::sim;

namespace {

GameWorldParams frameParams() {
  GameWorldParams Params;
  Params.NumEntities = 500;
  Params.Seed = 0xE8;
  Params.WorldHalfExtent = 30.0f;
  return Params;
}

void BM_DmaLatency(benchmark::State &State) {
  uint64_t Latency = static_cast<uint64_t>(State.range(0));
  for (auto _ : State) {
    MachineConfig Config = MachineConfig::cellLike();
    Config.DmaLatencyCycles = Latency;
    Machine M(Config);
    GameWorld World(M, frameParams());
    uint64_t Cycles = World.doFrameOffloadAiParallel(1).FrameCycles;
    reportSimCycles(State, Cycles);
  }
}

void BM_DmaLatencyNaive(benchmark::State &State) {
  // The contrast for BM_DmaLatency: a naive per-entity outer-access
  // loop (no batching, no cache, no overlap) under the same latency
  // sweep. This is what un-restructured code pays.
  uint64_t Latency = static_cast<uint64_t>(State.range(0));
  for (auto _ : State) {
    MachineConfig Config = MachineConfig::cellLike();
    Config.DmaLatencyCycles = Latency;
    Machine M(Config);
    EntityStore Entities(M, 500, 0xE8, 30.0f);
    uint64_t Cycles = 0;
    offload::offloadSync(M, [&](offload::OffloadContext &Ctx) {
      uint64_t Start = Ctx.clock().now();
      for (uint32_t I = 0; I != 500; ++I) {
        offload::OuterPtr<GameEntity> Ptr = Entities.entity(I);
        GameEntity E = Ptr.read(Ctx);
        integrateEntity(E, 0.033f, 30.0f, PhysicsParams());
        Ctx.compute(PhysicsParams().CyclesPerIntegrate);
        Ptr.write(Ctx, E);
      }
      Cycles = Ctx.clock().now() - Start;
    });
    reportSimCycles(State, Cycles);
    State.counters["cycles_per_entity"] =
        static_cast<double>(Cycles) / 500.0;
  }
}

void BM_DmaBandwidth(benchmark::State &State) {
  uint64_t BytesPerCycle = static_cast<uint64_t>(State.range(0));
  for (auto _ : State) {
    MachineConfig Config = MachineConfig::cellLike();
    Config.DmaBytesPerCycle = BytesPerCycle;
    Machine M(Config);
    GameWorld World(M, frameParams());
    uint64_t Cycles = World.doFrameOffloadAiParallel(1).FrameCycles;
    reportSimCycles(State, Cycles);
  }
}

void BM_DoubleBufferChunk(benchmark::State &State) {
  uint32_t ChunkElems = static_cast<uint32_t>(State.range(0));
  for (auto _ : State) {
    Machine M;
    EntityStore Entities(M, 2000, 0xE8, 50.0f);
    uint64_t Cycles = 0;
    offload::offloadSync(M, [&](offload::OffloadContext &Ctx) {
      uint64_t Start = Ctx.clock().now();
      physicsPassOffload(Ctx, Entities, 0.033f, PhysicsParams(),
                         ChunkElems);
      Cycles = Ctx.clock().now() - Start;
    });
    reportSimCycles(State, Cycles);
    State.counters["cycles_per_entity"] =
        static_cast<double>(Cycles) / 2000.0;
  }
}

void BM_CacheGeometry(benchmark::State &State) {
  uint32_t LineSize = static_cast<uint32_t>(State.range(0));
  uint32_t CapacityKiB = static_cast<uint32_t>(State.range(1));
  for (auto _ : State) {
    Machine M;
    constexpr uint32_t RegionBytes = 64 * 1024;
    GlobalAddr Region = M.allocGlobal(RegionBytes);
    uint64_t Cycles = 0;
    double HitRate = 0;
    offload::offloadSync(M, [&](offload::OffloadContext &Ctx) {
      uint32_t NumLines = CapacityKiB * 1024 / LineSize;
      offload::SetAssociativeCache Cache(
          Ctx, {LineSize, NumLines / 4, 4, 16});
      Ctx.bindCache(&Cache);
      SplitMix64 Rng(0xE8);
      uint64_t Start = Ctx.clock().now();
      uint64_t Acc = 0;
      for (uint32_t I = 0; I != 4096; ++I) {
        // The E6 temporal pattern: hot 2 KiB with cold excursions.
        uint64_t Offset = Rng.nextBool(0.9f)
                              ? Rng.nextBelow(2048 / 8) * 8
                              : Rng.nextBelow(RegionBytes / 8) * 8;
        Acc += Ctx.outerRead<uint64_t>(Region + Offset);
      }
      benchmark::DoNotOptimize(Acc);
      Cycles = Ctx.clock().now() - Start;
      HitRate = Cache.stats().hitRate();
      Ctx.bindCache(nullptr);
    });
    reportSimCycles(State, Cycles);
    State.counters["hit_rate"] = HitRate;
  }
}

void BM_WorkDistribution(benchmark::State &State) {
  // Static contiguous split (parallelForRange) vs dynamic job queue
  // (distributeJobs) under uniform and skewed per-item costs: the
  // scheduling decision behind "parallel, distinct tasks".
  bool Dynamic = State.range(0) != 0;
  bool Skewed = State.range(1) != 0;
  constexpr uint32_t Count = 1200;
  auto CostOf = [Skewed](uint32_t Index) -> uint64_t {
    if (!Skewed)
      return 600;
    return Index > Count - Count / 8 ? 12000 : 200;
  };
  for (auto _ : State) {
    Machine M;
    uint64_t Start = M.globalTime();
    if (Dynamic) {
      offload::distributeJobs(
          M, Count, {.ChunkSize = 8},
          [&](offload::OffloadContext &Ctx, uint32_t Begin, uint32_t End) {
            for (uint32_t I = Begin; I != End; ++I)
              Ctx.compute(CostOf(I));
          });
    } else {
      offload::parallelForRange(
          M, Count,
          [&](offload::OffloadContext &Ctx, uint32_t Begin, uint32_t End) {
            for (uint32_t I = Begin; I != End; ++I)
              Ctx.compute(CostOf(I));
          });
    }
    reportSimCycles(State, M.globalTime() - Start);
  }
}

void BM_AiTargetPrefetch(benchmark::State &State) {
  // The asynchronous-cache elaboration applied to the real AI pass:
  // prefetch the next entity's target snapshot while deciding for the
  // current one.
  bool Prefetch = State.range(0) != 0;
  for (auto _ : State) {
    Machine M;
    GameWorldParams Params = frameParams();
    Params.PrefetchAiTargets = Prefetch;
    GameWorld World(M, Params);
    FrameStats Stats = World.doFrameOffloadAiParallel(1);
    reportSimCycles(State, Stats.AiCycles);
    State.counters["frame_cycles"] =
        static_cast<double>(Stats.FrameCycles);
  }
}

void BM_LookupOverhead(benchmark::State &State) {
  uint64_t LookupCycles = static_cast<uint64_t>(State.range(0));
  for (auto _ : State) {
    Machine M;
    constexpr uint32_t RegionBytes = 16 * 1024;
    GlobalAddr Region = M.allocGlobal(RegionBytes);
    uint64_t Cached = 0, Uncached = 0;
    offload::offloadSync(M, [&](offload::OffloadContext &Ctx) {
      SplitMix64 Rng(0xE8);
      // Uncached baseline.
      uint64_t Start = Ctx.clock().now();
      uint64_t Acc = 0;
      for (uint32_t I = 0; I != 1024; ++I)
        Acc += Ctx.outerRead<uint64_t>(
            Region + Rng.nextBelow(RegionBytes / 8) * 8);
      Uncached = Ctx.clock().now() - Start;

      // Cached run with the swept lookup overhead.
      offload::SetAssociativeCache Cache(
          Ctx, {128, 32, 4, LookupCycles});
      Ctx.bindCache(&Cache);
      SplitMix64 Rng2(0xE8);
      Start = Ctx.clock().now();
      for (uint32_t I = 0; I != 1024; ++I)
        Acc += Ctx.outerRead<uint64_t>(
            Region + Rng2.nextBelow(RegionBytes / 8) * 8);
      Cached = Ctx.clock().now() - Start;
      benchmark::DoNotOptimize(Acc);
      Ctx.bindCache(nullptr);
    });
    reportSimCycles(State, Cached);
    State.counters["uncached_cycles"] = static_cast<double>(Uncached);
    State.counters["cache_wins"] = Cached < Uncached ? 1.0 : 0.0;
  }
}

} // namespace

BENCHMARK(BM_DmaLatency)
    ->ArgName("latency")
    ->Arg(10)
    ->Arg(50)
    ->Arg(200)
    ->Arg(800)
    ->Arg(1600)
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });

BENCHMARK(BM_DmaLatencyNaive)
    ->ArgName("latency")
    ->Arg(10)
    ->Arg(50)
    ->Arg(200)
    ->Arg(800)
    ->Arg(1600)
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });

BENCHMARK(BM_DmaBandwidth)
    ->ArgName("bytes_per_cycle")
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });

BENCHMARK(BM_DoubleBufferChunk)
    ->ArgName("chunk_elems")
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });

BENCHMARK(BM_CacheGeometry)
    ->ArgNames({"line_bytes", "capacity_kib"})
    ->Args({64, 8})
    ->Args({128, 8})
    ->Args({256, 8})
    ->Args({128, 2})
    ->Args({128, 32})
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });

BENCHMARK(BM_WorkDistribution)
    ->ArgNames({"dynamic", "skewed"})
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });

BENCHMARK(BM_AiTargetPrefetch)
    ->ArgName("prefetch")
    ->Arg(0)
    ->Arg(1)
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });

BENCHMARK(BM_LookupOverhead)
    ->ArgName("lookup_cycles")
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });
