//===- sim/Machine.cpp - The simulated heterogeneous machine -------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "sim/Machine.h"

#include "support/Diag.h"
#include "support/MathExtras.h"

#include <algorithm>

using namespace omm;
using namespace omm::sim;

Machine::Machine(const MachineConfig &Config)
    : Cfg(Config), Main(Config.MainMemorySize) {
  if (Config.HostThreads != 0)
    reportFatalError("machine: MachineConfig::HostThreads must be 0; the "
                     "simulator runs on one host thread");
  // NumAccelerators == 0 is legal: it models a host-only machine, and
  // the offload runtime's host-fallback paths must cope (JobQueue.h).
  if (Cfg.Faults.Enabled)
    Faults = std::make_unique<FaultInjector>(Cfg.Faults,
                                             Config.NumAccelerators);
  for (unsigned I = 0; I != Config.NumAccelerators; ++I) {
    Accels.push_back(std::make_unique<Accelerator>(I, Cfg, Main));
    if (Faults)
      Accels.back()->Dma.setFaultInjector(Faults.get());
  }
}

Accelerator &Machine::accel(unsigned Id) {
  if (Id >= Accels.size())
    reportFatalError("machine: accelerator id out of range");
  return *Accels[Id];
}

unsigned Machine::numAliveAccelerators() const {
  unsigned Alive = 0;
  for (const auto &Accel : Accels)
    Alive += Accel->Alive ? 1 : 0;
  return Alive;
}

void Machine::killAccelerator(unsigned Id, uint64_t BlockId) {
  Accelerator &Accel = accel(Id);
  if (!Accel.Alive)
    return;
  Accel.Alive = false;
  ++Accel.Counters.AcceleratorsLost;
  emitFault({FaultKind::AcceleratorDeath, Id, BlockId, Accel.Clock.now(),
             /*Detail=*/0});
}

void Machine::reviveAccelerator(unsigned Id) {
  Accelerator &Accel = accel(Id);
  if (Accel.Alive)
    return;
  Accel.Alive = true;
  // The burial path (ResidentWorkerPool::buryWorker -> closeWorker)
  // already drained the DMA engine and reset the local-store mark; all
  // that is left is to move the core's notion of time forward so the
  // restart cannot execute in the simulated past.
  uint64_t ResumeAt = std::max(Accel.Clock.now(), HostClock.now());
  Accel.Clock.mergeTo(ResumeAt);
  Accel.FreeAt = std::max(Accel.FreeAt, ResumeAt);
  ++Accel.Counters.AcceleratorsRecycled;
  emitFault({FaultKind::AcceleratorRecycled, Id, /*BlockId=*/0,
             Accel.Clock.now(), /*Detail=*/0});
}

void Machine::addObserver(DmaObserver *Obs) {
  Observers.add(Obs);
  // Engines point at the mux only while someone is listening, keeping
  // the unobserved fast path a single null test.
  for (auto &Accel : Accels)
    Accel->Dma.setObserver(&Observers);
}

void Machine::removeObserver(DmaObserver *Obs) {
  Observers.remove(Obs);
  if (Observers.empty())
    for (auto &Accel : Accels)
      Accel->Dma.setObserver(nullptr);
}

void Machine::hostReadBytes(void *Dst, GlobalAddr Src, uint64_t Size) {
  chargeHostAccess(Size, /*IsWrite=*/false, Src);
  Main.read(Dst, Src, Size);
}

PerfCounters Machine::totalCounters() const {
  PerfCounters Total = HostCounters;
  for (const auto &Accel : Accels)
    Total.merge(Accel->Counters);
  return Total;
}

PerfCounters Machine::countersSince(const PerfCounters &Before) const {
  PerfCounters Delta = totalCounters();
  Delta.subtract(Before);
  return Delta;
}

uint64_t Machine::globalTime() const {
  uint64_t Time = HostClock.now();
  for (const auto &Accel : Accels)
    Time = std::max(Time, Accel->Clock.now());
  return Time;
}
