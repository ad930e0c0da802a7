//===- sim/WatchdogTimer.h - Deadline-sweep watchdog device ----*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resident runtime's watchdog for timing faults: a polling device
/// that sweeps outstanding mailbox descriptors every WatchdogCheckCycles
/// and flags any past its chunk deadline. Launches need no deadline —
/// they are fail-stop (Offload.h) and never hang or straggle. The sweep
/// quantization matters for determinism — a miss is detected at the
/// next absolute multiple of the check period, never at the deadline
/// itself, so detection cycles are exact functions of the config rather
/// than of who happened to poll first.
///
/// The watchdog cannot tell an injected straggler from genuinely slow
/// work: when armed, the deadline applies to every descriptor.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_SIM_WATCHDOGTIMER_H
#define OMM_SIM_WATCHDOGTIMER_H

#include "sim/MachineConfig.h"

#include <cstdint>

namespace omm::sim {

/// Per-machine deadline watchdog. Pure arithmetic over MachineConfig —
/// the offload runtime asks it *when* a miss is seen and applies the
/// recovery policy itself.
class WatchdogTimer {
public:
  explicit WatchdogTimer(const MachineConfig &Config)
      : CheckCycles(Config.WatchdogCheckCycles),
        ChunkDeadline(Config.ChunkDeadlineCycles) {}

  /// \returns true if mailbox descriptors carry a deadline.
  bool armsChunks() const { return CheckCycles != 0 && ChunkDeadline != 0; }

  uint64_t chunkDeadline() const { return ChunkDeadline; }
  uint64_t checkCycles() const { return CheckCycles; }

  /// Re-arms (or disarms, with 0) the per-descriptor deadline. The
  /// tenant server uses this to give each tenant its own deadline while
  /// serving its slice; the check grid itself never moves, so detection
  /// cycles stay absolute functions of the config.
  void setChunkDeadline(uint64_t Cycles) { ChunkDeadline = Cycles; }

  /// \returns the cycle at which the watchdog's sweep first observes a
  /// deadline expiring at \p Cycle: the next absolute multiple of the
  /// check period at or after it.
  uint64_t detectionCycle(uint64_t Cycle) const {
    if (CheckCycles == 0)
      return Cycle;
    uint64_t Rem = Cycle % CheckCycles;
    return Rem == 0 ? Cycle : Cycle + (CheckCycles - Rem);
  }

private:
  uint64_t CheckCycles;
  uint64_t ChunkDeadline;
};

} // namespace omm::sim

#endif // OMM_SIM_WATCHDOGTIMER_H
