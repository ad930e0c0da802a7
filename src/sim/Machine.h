//===- sim/Machine.h - The simulated heterogeneous machine -----*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The whole simulated machine: one host core with direct access to a
/// large main memory, plus N accelerator cores, each with a private
/// 256 KB local store and an MFC-style DMA engine — the Cell BE shape the
/// paper's Offload C++ targets ("a host core and a number of accelerators
/// ... each accelerator is equipped with its own private, scratch-pad
/// memory", Section 3).
///
/// The machine is purely deterministic: cores advance private cycle
/// clocks, and the offload layer (src/offload) composes them into
/// parallel simulated time.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_SIM_MACHINE_H
#define OMM_SIM_MACHINE_H

#include "sim/CycleClock.h"
#include "sim/DmaEngine.h"
#include "sim/FaultInjector.h"
#include "sim/LocalStore.h"
#include "sim/MachineConfig.h"
#include "sim/MainMemory.h"
#include "sim/PerfCounters.h"
#include "sim/WatchdogTimer.h"

#include <memory>
#include <vector>

namespace omm::sim {

/// One accelerator core: private store, DMA engine, clock and counters.
/// FreeAt tracks when the core finishes its last offload block, so
/// successive blocks scheduled to the same core serialise.
class Accelerator {
public:
  Accelerator(unsigned Id, const MachineConfig &Config, MainMemory &Main)
      : Id(Id), Store(Config.LocalStoreSize),
        Dma(Id, Config, Main, Store, Clock, Counters) {}

  Accelerator(const Accelerator &) = delete;
  Accelerator &operator=(const Accelerator &) = delete;

  unsigned id() const { return Id; }

  unsigned Id;
  LocalStore Store;
  CycleClock Clock;
  PerfCounters Counters;
  DmaEngine Dma;
  uint64_t FreeAt = 0;
  /// False once the core has died (fault injection or an explicit
  /// Machine::killAccelerator); dead cores accept no further launches.
  bool Alive = true;
};

/// The complete simulated machine.
class Machine {
public:
  explicit Machine(const MachineConfig &Config = MachineConfig::cellLike());

  Machine(const Machine &) = delete;
  Machine &operator=(const Machine &) = delete;

  const MachineConfig &config() const { return Cfg; }
  MainMemory &mainMemory() { return Main; }
  const MainMemory &mainMemory() const { return Main; }

  unsigned numAccelerators() const {
    return static_cast<unsigned>(Accels.size());
  }
  Accelerator &accel(unsigned Id);

  /// Domain (cluster/NUMA node) of accelerator \p Id; the host and main
  /// memory are always in domain 0. On a flat machine
  /// (AcceleratorsPerDomain == 0) every core is in domain 0.
  unsigned domainOf(unsigned Id) const { return Cfg.domainOf(Id); }

  /// Number of domains the machine's accelerators span (>= 1).
  unsigned numDomains() const { return Cfg.numDomains(); }

  /// \returns true when accelerators \p A and \p B share a domain.
  bool sameDomain(unsigned A, unsigned B) const {
    return Cfg.sameDomain(A, B);
  }

  /// \returns how many accelerators are still alive.
  unsigned numAliveAccelerators() const;

  /// Marks \p Id dead (no further launches are accepted) and reports the
  /// death to the observers. Idempotent. \p BlockId names the block the
  /// core died in, or 0 outside any block.
  void killAccelerator(unsigned Id, uint64_t BlockId = 0);

  /// Restarts a dead core: models a supervisor (the tenant server)
  /// recycling a worker process between serving slices. The core's clock
  /// and FreeAt advance to at least the host clock plus \p RestartCycles
  /// — a revived core never resumes in the past — and its local-store
  /// state was already reset by the burial path. Reviving a live core is
  /// a no-op. Idempotent per death; bumps AcceleratorsRecycled and
  /// reports FaultKind::AcceleratorRecycled.
  void reviveAccelerator(unsigned Id, uint64_t RestartCycles = 0);

  /// \returns the fault injector, or nullptr when fault injection is
  /// disabled (the common case: event sites pay one null test, the same
  /// discipline as observer()).
  FaultInjector *faults() { return Faults.get(); }

  /// The deadline watchdog (always present; unarmed unless the config
  /// sets a launch or chunk deadline).
  const WatchdogTimer &watchdog() const { return Watchdog; }

  /// Mutable watchdog access: the tenant server re-arms the chunk
  /// deadline per tenant slice. Pools cache armsChunks() at
  /// construction, so re-arming only affects pools opened afterwards.
  WatchdogTimer &watchdog() { return Watchdog; }

  /// Reports \p Event to the observers, if any are attached.
  void emitFault(const FaultEvent &Event) {
    if (DmaObserver *Obs = observer())
      Obs->onFault(Event);
  }

  CycleClock &hostClock() { return HostClock; }
  PerfCounters &hostCounters() { return HostCounters; }

  /// Attaches an observer that sees all DMA and direct memory traffic;
  /// used by the race checker and the trace recorder, which can both be
  /// attached at once. Callbacks fan out in attachment order.
  void addObserver(DmaObserver *Obs);

  /// Detaches a previously attached observer. Detaching an observer that
  /// is not attached is a no-op.
  void removeObserver(DmaObserver *Obs);

  /// \returns the fan-out point for observer callbacks, or nullptr when
  /// no observer is attached (so unobserved event sites pay one test).
  DmaObserver *observer() { return Observers.empty() ? nullptr : &Observers; }

  /// \returns the next monotonic offload-block id. The offload runtime
  /// stamps every block (and resident worker context) with one so
  /// observers can pair onBlockBegin/onBlockEnd across accelerators.
  uint64_t takeBlockId() { return NextBlockId++; }

  /// Host-side allocation in main memory.
  GlobalAddr allocGlobal(uint64_t Size, uint64_t Align = 16) {
    return Main.allocate(Size, Align);
  }
  void freeGlobal(GlobalAddr Addr) { Main.deallocate(Addr); }

  /// Host typed load from main memory, charging host access cost.
  template <typename T> T hostRead(GlobalAddr Addr) {
    chargeHostAccess(sizeof(T), /*IsWrite=*/false, Addr);
    return Main.readValue<T>(Addr);
  }

  /// Host typed store to main memory, charging host access cost.
  template <typename T> void hostWrite(GlobalAddr Addr, const T &Value) {
    chargeHostAccess(sizeof(T), /*IsWrite=*/true, Addr);
    Main.writeValue(Addr, Value);
  }

  /// Host bulk copy out of / into main memory.
  void hostReadBytes(void *Dst, GlobalAddr Src, uint64_t Size);
  void hostWriteBytes(GlobalAddr Dst, const void *Src, uint64_t Size);

  /// Charges \p Cycles of computation to the host clock.
  void hostCompute(uint64_t Cycles) {
    HostClock.advance(Cycles);
    HostCounters.ComputeCycles += Cycles;
  }

  /// Counters summed over the host and every accelerator.
  PerfCounters totalCounters() const;

  /// Counters billed since \p Before, an earlier totalCounters()
  /// snapshot: how a region of work (a resident pool, a frame, a tenant
  /// slice) attributes its events.
  PerfCounters countersSince(const PerfCounters &Before) const;

  /// Latest simulated time across all cores (frame-end time once all
  /// offloads are joined).
  uint64_t globalTime() const;

private:
  void chargeHostAccess(uint64_t Size, bool IsWrite, GlobalAddr Addr);

  MachineConfig Cfg;
  MainMemory Main;
  std::vector<std::unique_ptr<Accelerator>> Accels;
  CycleClock HostClock;
  PerfCounters HostCounters;
  ObserverMux Observers;
  std::unique_ptr<FaultInjector> Faults; ///< Null unless Faults.Enabled.
  WatchdogTimer Watchdog{Cfg};
  uint64_t NextBlockId = 1;
};

} // namespace omm::sim

#endif // OMM_SIM_MACHINE_H
