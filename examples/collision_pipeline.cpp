//===- examples/collision_pipeline.cpp - Figure 1 explicit DMA ------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// The paper's Figure 1 workload: pull pairs of colliding game entities
// into local store by explicit DMA, resolve the contact, write them
// back. Demonstrates:
//   - the overlapped-tags idiom vs the naive serialised translation;
//   - what the dynamic race checker (src/dmacheck) reports when the
//     dma_wait is forgotten — the bug class that motivated the analysis
//     tools the paper cites.
//
//   $ ./collision_pipeline [num_entities]
//
//===----------------------------------------------------------------------===//

#include "dmacheck/DmaRaceChecker.h"
#include "game/Collision.h"
#include "offload/Offload.h"
#include "support/OStream.h"

#include <cstdlib>

using namespace omm;
using namespace omm::game;
using namespace omm::sim;

namespace {

uint64_t runStyle(DmaStyle Style, uint32_t NumEntities, uint32_t *Contacts,
                  DiagSink *Diags) {
  Machine M;
  dmacheck::DmaRaceChecker Checker(*Diags);
  M.addObserver(&Checker);

  EntityStore Entities(M, NumEntities, 0xC011, 18.0f);
  CollisionParams Params;
  auto Pairs = broadphaseHost(Entities, Params);
  GlobalAddr PairsAddr = materializePairs(M, Pairs);

  uint64_t Cycles = 0;
  offload::offloadSync(M, [&](offload::OffloadContext &Ctx) {
    uint64_t Start = Ctx.clock().now();
    *Contacts = narrowphaseOffload(
        Ctx, PairsAddr, static_cast<uint32_t>(Pairs.size()), Style);
    Cycles = Ctx.clock().now() - Start;
  });
  return Cycles;
}

} // namespace

int main(int Argc, char **Argv) {
  uint32_t NumEntities = Argc > 1 ? std::atoi(Argv[1]) : 400;
  OStream &OS = outs();

  OS << "Figure 1: explicit DMA collision response, " << NumEntities
     << " entities\n\n";

  struct Row {
    DmaStyle Style;
    const char *Name;
  };
  const Row Rows[] = {
      {DmaStyle::OverlappedTags,
       "overlapped tags (the Figure 1 idiom)"},
      {DmaStyle::Serialised, "serialised get+wait per entity"},
      {DmaStyle::MissingWait, "missing dma_wait (seeded bug)"},
  };

  for (const Row &R : Rows) {
    uint32_t Contacts = 0;
    DiagSink Diags;
    uint64_t Cycles = runStyle(R.Style, NumEntities, &Contacts, &Diags);
    OS << R.Name << ":\n";
    OS << "  " << Cycles << " cycles, " << Contacts
       << " contacts resolved, " << Diags.errorCount()
       << " race reports\n";
    if (Diags.errorCount() != 0) {
      OS << "  first two reports from the race checker:\n";
      unsigned Shown = 0;
      for (const Diag &D : Diags.diags()) {
        OS << "    error: " << D.Message << '\n';
        if (++Shown == 2)
          break;
      }
    }
    OS << '\n';
  }

  OS << "Note: the simulator's eager functional copy keeps the racy "
        "variant's\nresults deterministic; on real hardware the missing "
        "wait reads stale\nbytes nondeterministically — which is exactly "
        "why the checker exists.\n";
  return 0;
}
