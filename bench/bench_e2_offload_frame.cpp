//===- bench/bench_e2_offload_frame.cpp - Experiment E2 -------------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// E2 (Figure 2, Section 4.1): the frame schedule with strategy
// calculation offloaded beside host collision detection. The paper's
// claim: offloading the very complex AI of a AAA game took one developer
// two months and ~200 additional lines for a ~50% performance increase.
//
// Expected shape: when the AI stage is comparable in cost to the rest of
// the frame, the offloaded schedule improves frame time by roughly 1.5x;
// the gain shrinks as the AI fraction of the frame shrinks (sweep over
// entity count and AI cost).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "game/GameWorld.h"
#include "trace/ChromeTrace.h"
#include "trace/TraceRecorder.h"

#include <memory>

using namespace omm::bench;
using namespace omm::game;
using namespace omm::sim;

namespace {

/// With --trace=PATH (or OMM_TRACE=PATH), the headline configuration
/// (Figure 2 schedule, 1000 entities, 60-cycle AI nodes) records its
/// offload-machine timeline and writes it as a Chrome trace.
bool wantsTrace(int Mode, uint32_t Entities, uint64_t AiNodeCost) {
  return !traceOutputPath().empty() && Mode == 1 && Entities == 1000 &&
         AiNodeCost == 60;
}

GameWorldParams paramsFor(uint32_t Entities, uint64_t CyclesPerAiNode) {
  GameWorldParams Params;
  Params.NumEntities = Entities;
  Params.Seed = 0xE2;
  Params.WorldHalfExtent = 12.0f * std::cbrt(Entities / 100.0f) * 2.0f;
  Params.Ai.CyclesPerNode = CyclesPerAiNode;
  // Calibrated to the paper's stage mix: in the AAA title, strategy
  // calculation and collision detection were each a large slice of the
  // frame (that is what made Figure 2's overlap pay ~50%). The defaults
  // above favour lighter collision; scale its costs so that, at the
  // headline configuration (1000 entities, 60-cycle AI nodes), the
  // collision stage roughly matches the AI stage.
  Params.Collision.CyclesPerPairTest = 80;
  Params.Collision.CyclesPerHash = 30;
  Params.RenderCyclesPerEntity = 80;
  Params.Physics.CyclesPerIntegrate = 50;
  Params.Animation.CyclesPerJoint = 16;
  return Params;
}

/// Runs \p Frames frames under both schedules on fresh machines and
/// reports frame time and stage breakdown for the requested schedule.
void BM_Frame(benchmark::State &State) {
  // Mode 0: host-only; 1: Figure 2 (the AI pass capped at one
  // accelerator, doFrameOffloadAiParallel(1)); 2: AI spread over all
  // six accelerators.
  int Mode = static_cast<int>(State.range(0));
  uint32_t Entities = static_cast<uint32_t>(State.range(1));
  uint64_t AiNodeCost = static_cast<uint64_t>(State.range(2));
  constexpr int Frames = 3;

  for (auto _ : State) {
    Machine MHost, MOffl;
    GameWorld HostWorld(MHost, paramsFor(Entities, AiNodeCost));
    GameWorld OfflWorld(MOffl, paramsFor(Entities, AiNodeCost));

    // Attaching the recorder never changes a cycle (observers are
    // passive), so the traced measurement stays the measurement.
    std::unique_ptr<omm::trace::TraceRecorder> Recorder;
    if (wantsTrace(Mode, Entities, AiNodeCost))
      Recorder = std::make_unique<omm::trace::TraceRecorder>(MOffl);

    uint64_t HostCycles = 0, OfflCycles = 0;
    uint64_t AiCycles = 0, CollisionCycles = 0;
    for (int I = 0; I != Frames; ++I) {
      FrameStats HostStats = HostWorld.doFrameHostOnly();
      FrameStats OfflStats =
          OfflWorld.doFrameOffloadAiParallel(Mode == 2 ? ~0u : 1u);
      HostCycles += HostStats.FrameCycles;
      OfflCycles += OfflStats.FrameCycles;
      const FrameStats &Mine = Mode != 0 ? OfflStats : HostStats;
      AiCycles += Mine.AiCycles;
      CollisionCycles += Mine.CollisionCycles;
    }

    reportSimCycles(State, (Mode != 0 ? OfflCycles : HostCycles) / Frames);
    State.counters["ai_cycles"] = static_cast<double>(AiCycles) / Frames;
    State.counters["collision_cycles"] =
        static_cast<double>(CollisionCycles) / Frames;
    State.counters["speedup_vs_host"] =
        static_cast<double>(HostCycles) /
        static_cast<double>(OfflCycles ? OfflCycles : 1);

    if (Recorder) {
      if (omm::trace::writeChromeTraceFile(traceOutputPath(), *Recorder))
        std::fprintf(stderr,
                     "wrote Chrome trace to %s (open in chrome://tracing "
                     "or ui.perfetto.dev)\n",
                     traceOutputPath().c_str());
      else
        std::fprintf(stderr, "error: could not write trace to %s\n",
                     traceOutputPath().c_str());
    }
  }
}

} // namespace

// Rows: schedule x entity count x AI node cost. The paper's ~50% gain
// corresponds to the configurations where AI dominates about half the
// frame (the 60-cycle node cost at 1000 entities).
BENCHMARK(BM_Frame)
    ->ArgNames({"mode_host0_fig2_1_par6_2", "entities", "ai_node_cost"})
    ->Args({0, 250, 60})
    ->Args({1, 250, 60})
    ->Args({0, 500, 60})
    ->Args({1, 500, 60})
    ->Args({0, 1000, 60})
    ->Args({1, 1000, 60})
    ->Args({2, 1000, 60})
    ->Args({0, 2000, 60})
    ->Args({1, 2000, 60})
    ->Args({2, 2000, 60})
    ->Args({0, 1000, 15}) // AI is a small slice: little to gain.
    ->Args({1, 1000, 15})
    ->Args({0, 1000, 240}) // AI dominates: accelerator becomes critical.
    ->Args({1, 1000, 240})
    ->Args({2, 1000, 240}) // ...unless it is spread over six of them.
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });
