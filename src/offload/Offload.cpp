//===- offload/Offload.cpp - Offload blocks and joins ---------------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "offload/Offload.h"

#include "support/OStream.h"

using namespace omm;
using namespace omm::sim;

void offload::detail::reportLeakedHandle(unsigned AccelId, uint64_t BlockId) {
  errs() << "warning: offload handle for block #" << BlockId << " (accel "
         << AccelId
         << ") destroyed without offloadJoin; the host never synchronised "
            "with this block (lost parallelism)\n";
}

const char *offload::toString(OffloadStatus Status) {
  switch (Status) {
  case OffloadStatus::Ok:
    return "ok";
  case OffloadStatus::AcceleratorDead:
    return "accelerator_dead";
  case OffloadStatus::NoAcceleratorAvailable:
    return "no_accelerator_available";
  }
  return "unknown";
}

offload::OffloadStatus offload::detail::openBlock(Machine &M,
                                                  unsigned AccelId,
                                                  BlockSpan &Span) {
  const MachineConfig &Cfg = M.config();
  M.hostClock().advance(Cfg.HostLaunchCycles);
  uint64_t Now = M.hostClock().now();
  Span.AccelId = AccelId;
  Span.BlockId = M.takeBlockId();
  if (AccelId == NoAccelerator) {
    ++M.hostCounters().LaunchFaults;
    M.emitFault({FaultKind::NoAcceleratorAvailable, AccelId, Span.BlockId,
                 Now, /*Detail=*/0});
    return OffloadStatus::NoAcceleratorAvailable;
  }

  Accelerator &Accel = M.accel(AccelId); // Out-of-range ids stay fatal.
  if (!Accel.Alive) {
    ++M.hostCounters().LaunchFaults;
    M.emitFault({FaultKind::LaunchOnDeadAccelerator, AccelId, Span.BlockId,
                 Now, /*Detail=*/0});
    return OffloadStatus::AcceleratorDead;
  }

  uint64_t Start = std::max(Accel.FreeAt, Now) + Cfg.OffloadLaunchCycles;
  FaultInjector *FI = M.faults();
  if (FI && FI->launchFails(AccelId)) {
    // The core accepts the launch, burns some cycles, and dies before
    // the body's first instruction — mid-block from the machine's view,
    // but before any side effect, so recovery can simply re-run the
    // block elsewhere.
    Accel.Clock.mergeTo(Start + FI->killWastedCycles(AccelId));
    Accel.FreeAt = Accel.Clock.now();
    ++M.hostCounters().LaunchFaults;
    M.killAccelerator(AccelId, Span.BlockId);
    return OffloadStatus::AcceleratorDead;
  }

  Accel.Clock.mergeTo(Start);
  Span.Mark = Accel.Store.mark();
  if (DmaObserver *Obs = M.observer())
    Obs->onBlockBegin(AccelId, Span.BlockId, Accel.Clock.now());
  return OffloadStatus::Ok;
}

uint64_t offload::detail::closeBlock(Machine &M, const BlockSpan &Span) {
  Accelerator &Accel = M.accel(Span.AccelId);
  if (DmaObserver *Obs = M.observer())
    Obs->onBlockEnd(Span.AccelId, Span.BlockId, Accel.Clock.now());
  Accel.Dma.waitAll();
  Accel.Store.reset(Span.Mark);
  Accel.FreeAt = Accel.Clock.now();
  return Accel.FreeAt;
}
