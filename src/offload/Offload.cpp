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
  case OffloadStatus::DeadlineExceeded:
    return "deadline_exceeded";
  }
  return "unknown";
}

offload::OffloadStatus offload::detail::classifyLaunch(Machine &M,
                                                       unsigned AccelId,
                                                       uint64_t BlockId) {
  uint64_t Now = M.hostClock().now();
  if (AccelId == NoAccelerator) {
    ++M.hostCounters().LaunchFaults;
    M.emitFault({FaultKind::NoAcceleratorAvailable, AccelId, BlockId, Now,
                 /*Detail=*/0});
    return OffloadStatus::NoAcceleratorAvailable;
  }

  Accelerator &Accel = M.accel(AccelId); // Out-of-range ids stay fatal.
  if (!Accel.Alive) {
    ++M.hostCounters().LaunchFaults;
    M.emitFault({FaultKind::LaunchOnDeadAccelerator, AccelId, BlockId, Now,
                 /*Detail=*/0});
    return OffloadStatus::AcceleratorDead;
  }

  FaultInjector *FI = M.faults();
  if (!FI)
    return OffloadStatus::Ok;
  switch (FI->classifyLaunch(AccelId)) {
  case LaunchFault::None:
    return OffloadStatus::Ok;
  case LaunchFault::AcceleratorDeath: {
    // The core accepts the launch, burns some cycles, and dies before
    // the body's first instruction — mid-block from the machine's view,
    // but before any side effect, so recovery can simply re-run the
    // block elsewhere.
    uint64_t Wasted = FI->killWastedCycles(AccelId);
    Accel.Clock.mergeTo(std::max(Accel.FreeAt, Now) +
                        M.config().OffloadLaunchCycles + Wasted);
    Accel.FreeAt = Accel.Clock.now();
    ++M.hostCounters().LaunchFaults;
    M.killAccelerator(AccelId, BlockId);
    return OffloadStatus::AcceleratorDead;
  }
  }
  return OffloadStatus::Ok;
}

offload::OffloadHandle offload::detail::failedHandle(Machine &M,
                                                     unsigned AccelId,
                                                     uint64_t BlockId,
                                                     OffloadStatus Status) {
  uint64_t DetectAt =
      M.hostClock().now() + M.config().Faults.FaultDetectCycles;
  return OffloadHandle(AccelId, BlockId, DetectAt, Status);
}

offload::OffloadHandle offload::detail::hungLaunch(Machine &M,
                                                   unsigned AccelId,
                                                   uint64_t BlockId) {
  const WatchdogTimer &WD = M.watchdog();
  if (!WD.armsLaunches())
    reportFatalError("offload: kernel hang injected with no launch "
                     "deadline armed; nothing can ever complete the work "
                     "(set MachineConfig::LaunchDeadlineCycles)");
  Accelerator &Accel = M.accel(AccelId);
  uint64_t Start = std::max(Accel.FreeAt, M.hostClock().now()) +
                   M.config().OffloadLaunchCycles;
  // The watchdog's sweep sees the miss at the first check after the
  // deadline. The cancel it raises is never observed — the core is
  // wedged — so the core is abandoned like a died one; the body never
  // ran, and the caller's re-issue loop recovers the work.
  uint64_t DetectAt = WD.detectionCycle(Start + WD.launchDeadline());
  Accel.Clock.mergeTo(DetectAt);
  Accel.FreeAt = DetectAt;
  ++M.hostCounters().LaunchFaults;
  ++M.hostCounters().HangsDetected;
  ++M.hostCounters().CancelsIssued;
  M.emitFault({FaultKind::KernelHang, AccelId, BlockId, DetectAt,
               /*Detail=*/WD.launchDeadline()});
  M.emitFault({FaultKind::CancelIssued, AccelId, BlockId, DetectAt,
               /*Detail=*/DetectAt});
  M.killAccelerator(AccelId, BlockId);
  return OffloadHandle(AccelId, BlockId, DetectAt,
                       OffloadStatus::DeadlineExceeded);
}

uint64_t offload::detail::finishLaunchTiming(Machine &M, unsigned AccelId,
                                             uint64_t BlockId,
                                             uint64_t BodyStart,
                                             uint64_t BodyEnd,
                                             float Slowdown) {
  uint64_t SlowEnd = BodyEnd + stragglerStall(BodyEnd - BodyStart, Slowdown);
  const WatchdogTimer &WD = M.watchdog();
  if (WD.armsLaunches() && SlowEnd - BodyStart > WD.launchDeadline()) {
    ++M.hostCounters().StragglersDetected;
    M.emitFault({FaultKind::StragglerDetected, AccelId, BlockId,
                 WD.detectionCycle(BodyStart + WD.launchDeadline()),
                 /*Detail=*/SlowEnd - BodyStart});
  }
  return SlowEnd;
}
