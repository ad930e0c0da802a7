//===- sim/FaultInjector.h - Seeded deterministic fault schedule -*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The machine's fault oracle: a seeded source of accelerator deaths,
/// transient DMA command rejections, delayed transfer completions, kernel
/// hangs and stragglers, configured via MachineConfig::Faults. Launches
/// are fail-stop: classifyLaunch only ever kills a core. Hangs and
/// stragglers (classifyTiming) are drawn only when a resident worker
/// pops a mailbox descriptor. The
/// paper's premise (Section 2) is that explicit DMA and private stores
/// make failure handling a first-class programming concern; this is the
/// subsystem that lets the offload runtime's recovery paths be exercised
/// deterministically.
///
/// Design rules:
///   - Every draw comes from a per-accelerator SplitMix64 stream, so one
///     core's fault schedule is independent of activity on the others
///     and a (seed, rates) pair replays cycle for cycle.
///   - A rate of zero draws nothing: an attached-but-idle injector
///     consumes no randomness and perturbs no timing, so cycle counts
///     are bit-identical to a machine without one (asserted by
///     tests/fault_injector_test.cpp, the observer-layer standard).
///   - The injector only *decides*; clocks, counters and liveness are
///     mutated by the machine, the DMA engine and the offload runtime at
///     the decision sites, keeping this class free of simulation state.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_SIM_FAULTINJECTOR_H
#define OMM_SIM_FAULTINJECTOR_H

#include "sim/MachineConfig.h"
#include "support/Random.h"

#include <cstdint>
#include <vector>

namespace omm::sim {

/// What the injector decided about one offload launch.
enum class LaunchFault : uint8_t {
  None,                ///< The launch proceeds normally.
  AcceleratorDeath,    ///< The core dies starting the block.
};

/// What the injector decided about one popped mailbox descriptor's
/// timing: it either wedges forever or runs slow by a cycle-cost
/// multiplier (1.0 = on time). Launches never draw one; they get only
/// the fail-stop LaunchFault verdicts.
struct TimingFault {
  bool Hangs = false;
  float Slowdown = 1.0f;
};

/// Seeded, deterministic fault oracle for one machine.
class FaultInjector {
public:
  FaultInjector(const FaultInjectionConfig &Config, unsigned NumAccelerators);

  const FaultInjectionConfig &config() const { return Config; }

  /// Classifies the next offload launch on \p AccelId. Scheduled kills
  /// (scheduleKill) take precedence over the random rates.
  LaunchFault classifyLaunch(unsigned AccelId);

  /// \returns true if \p AccelId dies popping its next job-queue chunk
  /// (mid-block death of a resident worker). Scheduled chunk kills
  /// (scheduleChunkKill) take precedence over AccelDeathRate.
  bool chunkFails(unsigned AccelId);

  /// \returns true if the MFC transiently rejects the next DMA command
  /// on \p AccelId. The only caller is DmaEngine's command path, which
  /// draws once per command and retries until this says no.
  /// Consecutive rejections are capped at MaxDmaRetries, so that retry
  /// loop is bounded by construction.
  bool dmaCommandFails(unsigned AccelId);

  /// \returns the extra completion latency injected into the next
  /// transfer on \p AccelId (0 for an on-time transfer).
  uint64_t transferDelay(unsigned AccelId);

  /// \returns how many cycles a dying core burns before the fault is
  /// declared, uniform in [0, KillWastedCyclesMax].
  uint64_t killWastedCycles(unsigned AccelId);

  /// Forces \p AccelId to die at its \p LaunchIndex-th classified launch
  /// (0 = the next one). Tests and benches use this to kill K of N
  /// accelerators at a precise point mid-frame.
  void scheduleKill(unsigned AccelId, uint64_t LaunchIndex);

  /// Forces \p AccelId to die popping its \p ChunkIndex-th job-queue
  /// chunk (0 = the next one).
  void scheduleChunkKill(unsigned AccelId, uint64_t ChunkIndex);

  /// Classifies the timing of the next descriptor \p AccelId's resident
  /// worker pops: hang, straggle (with a drawn slowdown), or run on
  /// time. The only caller is ResidentWorkerPool::executeNext, so the
  /// timing index counts descriptor pops. Scheduled timing faults take
  /// precedence over the random rates without consuming a draw.
  TimingFault classifyTiming(unsigned AccelId);

  /// Forces \p AccelId's \p Index-th descriptor pop (0 = the next one)
  /// to hang.
  void scheduleHang(unsigned AccelId, uint64_t Index);

  /// Forces \p AccelId's \p Index-th descriptor pop to run \p Slowdown
  /// times slower.
  void scheduleStraggler(unsigned AccelId, uint64_t Index, float Slowdown);

private:
  /// Per-accelerator independent fault stream.
  struct AccelStream {
    SplitMix64 Rng;
    uint64_t LaunchIndex = 0;
    uint64_t ChunkIndex = 0;
    uint64_t TimingIndex = 0;
    uint64_t KillAtLaunch = NoKill;
    uint64_t KillAtChunk = NoKill;
    uint64_t HangAt = NoKill;
    uint64_t StraggleAt = NoKill;
    float StraggleSlowdown = 1.0f;
    unsigned ConsecutiveDmaFails = 0;

    AccelStream() : Rng(0) {}
  };

  static constexpr uint64_t NoKill = UINT64_MAX;

  AccelStream &stream(unsigned AccelId);

  FaultInjectionConfig Config;
  std::vector<AccelStream> Streams;
};

} // namespace omm::sim

#endif // OMM_SIM_FAULTINJECTOR_H
