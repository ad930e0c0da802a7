//===- examples/game_frame.cpp - The Figure 2 frame schedule --------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// Runs the paper's Figure 2 game loop both ways — doFrameHostOnly
// against doFrameOffloadAiParallel(1), the AI pass in one offload block
// on one accelerator — and prints a per-frame comparison:
//
//   void GameWorld::doFrame(...) {
//     __offload_handle_t h = __offload { this->calculateStrategy(...); };
//     this->detectCollisions();  // Executed in parallel by host
//     __offload_join(h);         // Wait for accelerator to complete
//     this->updateEntities();
//     this->renderFrame();
//   }
//
//   $ ./game_frame [num_entities] [frames]
//
// With OMM_TRACE=out.json in the environment, the offload machine's
// timeline is recorded and written as a Chrome trace (open in
// chrome://tracing or ui.perfetto.dev), and a textual timeline summary
// is printed after the comparison table.
//
//===----------------------------------------------------------------------===//

#include "game/GameWorld.h"
#include "support/OStream.h"
#include "trace/ChromeTrace.h"
#include "trace/TimelineReport.h"
#include "trace/TraceRecorder.h"

#include <cstdlib>
#include <memory>

using namespace omm;
using namespace omm::game;
using namespace omm::sim;

int main(int Argc, char **Argv) {
  uint32_t NumEntities = Argc > 1 ? std::atoi(Argv[1]) : 1000;
  int Frames = Argc > 2 ? std::atoi(Argv[2]) : 5;
  const char *TracePath = std::getenv("OMM_TRACE");

  GameWorldParams Params;
  Params.NumEntities = NumEntities;
  Params.Seed = 0xF1C2;
  Params.WorldHalfExtent = 24.0f * std::cbrt(NumEntities / 100.0f);
  // Match the paper's stage mix: collision detection comparable to AI.
  Params.Collision.CyclesPerPairTest = 80;
  Params.Collision.CyclesPerHash = 30;
  Params.RenderCyclesPerEntity = 80;
  Params.Physics.CyclesPerIntegrate = 50;
  Params.Animation.CyclesPerJoint = 16;

  Machine MHost, MOffl;
  GameWorld HostWorld(MHost, Params);
  GameWorld OfflWorld(MOffl, Params);

  // Passive recording: attaching it changes no cycle of the run.
  std::unique_ptr<trace::TraceRecorder> Recorder;
  if (TracePath && *TracePath)
    Recorder = std::make_unique<trace::TraceRecorder>(MOffl);

  OStream &OS = outs();
  OS << "Figure 2 frame schedule, " << NumEntities << " entities, "
     << Frames << " frames\n";
  OS << "(all numbers are simulated cycles)\n\n";
  OS.padded("frame", 7);
  OS.padded("host-only", 12);
  OS.padded("offload-AI", 12);
  OS.padded("speedup", 9);
  OS.padded("ai", 10);
  OS.padded("collision", 11);
  OS.padded("contacts", 9);
  OS << "state-match\n";

  uint64_t HostTotal = 0, OfflTotal = 0;
  for (int Frame = 0; Frame != Frames; ++Frame) {
    FrameStats HostStats = HostWorld.doFrameHostOnly();
    FrameStats OfflStats = OfflWorld.doFrameOffloadAiParallel(1);
    HostTotal += HostStats.FrameCycles;
    OfflTotal += OfflStats.FrameCycles;
    bool Match = HostWorld.checksum() == OfflWorld.checksum();

    OS.paddedInt(Frame, 5);
    OS << "  ";
    OS.paddedInt(static_cast<int64_t>(HostStats.FrameCycles), 10);
    OS << "  ";
    OS.paddedInt(static_cast<int64_t>(OfflStats.FrameCycles), 10);
    OS << "  ";
    OS.paddedFixed(static_cast<double>(HostStats.FrameCycles) /
                       OfflStats.FrameCycles,
                   7, 3);
    OS << "  ";
    OS.paddedInt(static_cast<int64_t>(OfflStats.AiCycles), 8);
    OS << "  ";
    OS.paddedInt(static_cast<int64_t>(OfflStats.CollisionCycles), 9);
    OS << "  ";
    OS.paddedInt(OfflStats.Contacts, 7);
    OS << "  " << (Match ? "yes" : "NO!") << '\n';
  }

  OS << "\ntotal: host-only " << HostTotal << ", offload-AI " << OfflTotal
     << "\nframe rate improvement: ";
  OS.fixed(100.0 * (static_cast<double>(HostTotal) / OfflTotal - 1.0), 1);
  OS << "% (the paper reports a ~50% performance increase for\n"
        "offloading the AI of a shipping AAA title)\n\n";

  OS << "offload machine, accelerator 0 counters:\n";
  MOffl.accel(0).Counters.print(OS);

  if (Recorder) {
    OS << '\n';
    trace::printTimelineReport(OS, *Recorder);
    if (trace::writeChromeTraceFile(TracePath, *Recorder))
      OS << "\nwrote Chrome trace to " << TracePath
         << " (open in chrome://tracing or ui.perfetto.dev)\n";
    else
      errs() << "error: could not write trace to " << TracePath << '\n';
  }
  return 0;
}
