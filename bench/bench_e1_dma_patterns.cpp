//===- bench/bench_e1_dma_patterns.cpp - Experiment E1 --------------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// E1 (Figure 1, Section 2): explicit tagged DMA for collision response.
// The paper's example issues both entity gets on one tag and waits once,
// overlapping the startup latencies; the naive translation waits after
// each get. This bench regenerates the comparison across DMA latencies,
// and reports what the race checker finds when the dma_wait is omitted.
//
// Expected shape: overlapped ~saves one full DMA latency per pair; the
// advantage grows linearly with latency; the missing-wait variant is
// flagged (2 reports per pair: e1 and e2 reads).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "dmacheck/DmaRaceChecker.h"
#include "game/Collision.h"
#include "offload/Offload.h"

using namespace omm;
using namespace omm::bench;
using namespace omm::game;
using namespace omm::sim;

namespace {

/// Builds a dense world, detects pairs, and runs the offloaded
/// narrowphase in the given style; \returns accelerator cycles spent.
uint64_t runNarrowphase(DmaStyle Style, uint64_t DmaLatency,
                        uint32_t NumEntities, uint64_t *PairsOut,
                        uint64_t *StallOut) {
  MachineConfig Config = MachineConfig::cellLike();
  Config.DmaLatencyCycles = DmaLatency;
  Machine M(Config);
  EntityStore Entities(M, NumEntities, /*Seed=*/0xE1, /*HalfExtent=*/20.0f);
  CollisionParams Params;
  auto Pairs = broadphaseHost(Entities, Params);
  GlobalAddr PairsAddr = materializePairs(M, Pairs);

  uint64_t Cycles = 0;
  offload::offloadSync(M, [&](offload::OffloadContext &Ctx) {
    uint64_t Start = Ctx.clock().now();
    narrowphaseOffload(Ctx, PairsAddr, static_cast<uint32_t>(Pairs.size()),
                       Style);
    Cycles = Ctx.clock().now() - Start;
    if (StallOut)
      *StallOut = Ctx.accel().Counters.DmaStallCycles;
  });
  if (PairsOut)
    *PairsOut = Pairs.size();
  return Cycles;
}

void BM_CollisionDma(benchmark::State &State) {
  auto Style = static_cast<DmaStyle>(State.range(0));
  uint64_t Latency = static_cast<uint64_t>(State.range(1));
  for (auto _ : State) {
    uint64_t Pairs = 0, Stall = 0;
    uint64_t Cycles = runNarrowphase(Style, Latency, 600, &Pairs, &Stall);
    reportSimCycles(State, Cycles);
    State.counters["pairs"] = static_cast<double>(Pairs);
    State.counters["cycles_per_pair"] =
        Pairs ? static_cast<double>(Cycles) / Pairs : 0.0;
    State.counters["dma_stall"] = static_cast<double>(Stall);
  }
}

void BM_MissingWaitRaceReports(benchmark::State &State) {
  for (auto _ : State) {
    MachineConfig Config = MachineConfig::cellLike();
    Machine M(Config);
    DiagSink Diags;
    dmacheck::DmaRaceChecker Checker(Diags);
    M.addObserver(&Checker);
    EntityStore Entities(M, 600, 0xE1, 20.0f);
    CollisionParams Params;
    auto Pairs = broadphaseHost(Entities, Params);
    GlobalAddr PairsAddr = materializePairs(M, Pairs);
    uint64_t Cycles = 0;
    offload::offloadSync(M, [&](offload::OffloadContext &Ctx) {
      uint64_t Start = Ctx.clock().now();
      narrowphaseOffload(Ctx, PairsAddr, static_cast<uint32_t>(Pairs.size()),
                         DmaStyle::MissingWait);
      Cycles = Ctx.clock().now() - Start;
    });
    reportSimCycles(State, Cycles);
    State.counters["pairs"] = static_cast<double>(Pairs.size());
    State.counters["race_reports"] =
        static_cast<double>(Checker.raceCount());
  }
}

} // namespace

// Rows: style x DMA latency (cycles). Style 3 is the getl list-command
// extension (one startup latency for both entities of a pair).
BENCHMARK(BM_CollisionDma)
    ->ArgNames({"style_ovl0_ser1_list3", "dma_latency"})
    ->Args({0, 50})
    ->Args({1, 50})
    ->Args({3, 50})
    ->Args({0, 200})
    ->Args({1, 200})
    ->Args({3, 200})
    ->Args({0, 800})
    ->Args({1, 800})
    ->Args({3, 800})
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });

BENCHMARK(BM_MissingWaitRaceReports)
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });
