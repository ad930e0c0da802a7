//===- sim/CycleClock.h - Per-core simulated time --------------*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each simulated core (the host and every accelerator) advances its own
/// cycle counter. Offload blocks execute sequentially in the simulator but
/// in *parallel simulated time*: a block launched at host time T starts at
/// accelerator time max(T, accelerator-free), and join sets the host clock
/// to max(host, block-completion). This reproduces the concurrency of the
/// paper's Figure 2 deterministically, with no host threads.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_SIM_CYCLECLOCK_H
#define OMM_SIM_CYCLECLOCK_H

#include <algorithm>
#include <cstdint>

namespace omm::sim {

/// Monotonic per-core cycle counter.
class CycleClock {
public:
  /// \returns the current simulated cycle.
  uint64_t now() const { return Now; }

  /// Advances the clock by \p Cycles.
  void advance(uint64_t Cycles) { Now += Cycles; }

  /// Moves the clock forward to \p Cycle if it is in the future;
  /// \returns the number of cycles spent waiting (stall), zero otherwise.
  uint64_t advanceTo(uint64_t Cycle) {
    if (Cycle <= Now)
      return 0;
    uint64_t Stall = Cycle - Now;
    Now = Cycle;
    return Stall;
  }

  /// Max-merges \p Cycle into the clock: moves it forward to \p Cycle
  /// if that is in the future and never backwards (used when an
  /// accelerator picks up work issued at a later host time than its
  /// previous idle point).
  void mergeTo(uint64_t Cycle) { Now = std::max(Now, Cycle); }

private:
  uint64_t Now = 0;
};

} // namespace omm::sim

#endif // OMM_SIM_CYCLECLOCK_H
