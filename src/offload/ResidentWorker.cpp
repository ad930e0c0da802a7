//===- offload/ResidentWorker.cpp - Persistent worker runtime ------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "offload/ResidentWorker.h"

#include "support/Diag.h"

#include <algorithm>

using namespace omm;
using namespace omm::offload;

/// \returns the trailing stall a straggler verdict appends to a body
/// whose real work cost \p Cost cycles: Cost * (Slowdown - 1), or 0 when
/// \p Slowdown <= 1.
static uint64_t stragglerStall(uint64_t Cost, float Slowdown) {
  if (!(Slowdown > 1.0f))
    return 0;
  return static_cast<uint64_t>(static_cast<double>(Cost) *
                               (static_cast<double>(Slowdown) - 1.0));
}

ResidentWorkerPool::ResidentWorkerPool(sim::Machine &M, unsigned MaxWorkers,
                                       unsigned FirstAccel, uint16_t NumStages)
    : M(M), Faults(M.faults()), AtOpen(M.totalCounters()),
      Steal(M.config().WorkStealing),
      StealRng(M.config().StealSeed), NumStages(NumStages),
      DeadlinesArmed(M.watchdog().armsChunks()) {
  unsigned NumAccels = M.numAccelerators();
  unsigned Avail = FirstAccel < NumAccels ? NumAccels - FirstAccel : 0;
  unsigned Budget = std::min(Avail, MaxWorkers);
  FrameStart = M.hostClock().now();
  FrameEnd = FrameStart;
  for (unsigned W = 0; W != Budget; ++W) {
    unsigned A = FirstAccel + W;
    Worker Wk;
    if (detail::openBlock(M, A, /*NotBefore=*/0, Wk.Span) !=
        OffloadStatus::Ok) {
      // openBlock already billed the fault; the pool just opens one
      // worker short. A core killed during launch still burned cycles
      // that bound the makespan.
      ++RS.FailedLaunches;
      FrameEnd = std::max(FrameEnd, M.accel(A).FreeAt);
      continue;
    }
    Wk.StatIndex = static_cast<unsigned>(Live.size());
    Wk.Ctx = std::make_unique<OffloadContext>(M, A);
    Wk.Box = std::make_unique<sim::Mailbox>(M, A, Wk.Span.BlockId);
    Live.push_back(std::move(Wk));
    ++RS.Launches;
  }
  RS.WorkerBusyCycles.assign(Live.size(), 0);
  RS.WorkerChunks.assign(Live.size(), 0);
}

bool ResidentWorkerPool::beats(unsigned A, unsigned B) const {
  // Lowest clock wins; ties go to the worker with fewer descriptors
  // executed, then the lower accelerator id. Without the tuple,
  // zero-cost regions would funnel every descriptor to pool order's
  // first entry.
  uint64_t ClockA = M.accel(accelId(A)).Clock.now();
  uint64_t ClockB = M.accel(accelId(B)).Clock.now();
  return ClockA < ClockB ||
         (ClockA == ClockB &&
          (Live[A].Executed < Live[B].Executed ||
           (Live[A].Executed == Live[B].Executed &&
            accelId(A) < accelId(B))));
}

unsigned ResidentWorkerPool::pickWorker() const {
  if (Live.empty())
    reportFatalError("resident pool: picking a worker from an empty pool");
  unsigned Best = 0;
  for (unsigned W = 1; W != Live.size(); ++W)
    if (beats(W, Best))
      Best = W;
  return Best;
}

unsigned ResidentWorkerPool::pickLoadedWorker() const {
  unsigned Best = NoWorker;
  for (unsigned W = 0; W != Live.size(); ++W) {
    if (Live[W].Box->empty())
      continue;
    if (Best == NoWorker || beats(W, Best))
      Best = W;
  }
  return Best;
}

unsigned ResidentWorkerPool::pickIdleThief() const {
  unsigned Best = NoWorker;
  for (unsigned W = 0; W != Live.size(); ++W) {
    if (!Live[W].Box->empty() || Live[W].StealParked)
      continue;
    if (Best == NoWorker || beats(W, Best))
      Best = W;
  }
  return Best;
}

void ResidentWorkerPool::unparkAll() {
  for (Worker &Wk : Live)
    Wk.StealParked = false;
}

unsigned ResidentWorkerPool::findWorkerFor(unsigned AccelId) const {
  for (unsigned W = 0; W != Live.size(); ++W)
    if (accelId(W) == AccelId)
      return W;
  return NoWorker;
}

void ResidentWorkerPool::dispatch(unsigned W,
                                  const sim::WorkDescriptor &Desc) {
  if (!Live[W].Box->push(Desc))
    reportFatalError("resident pool: dispatching to a full mailbox");
  SpawnSeq = std::max(SpawnSeq, Desc.Seq + 1);
  unparkAll();
}

void ResidentWorkerPool::dispatchBulk(
    unsigned W, const std::vector<sim::WorkDescriptor> &Descs) {
  Live[W].Box->pushBulk(Descs);
  for (const sim::WorkDescriptor &Desc : Descs)
    SpawnSeq = std::max(SpawnSeq, Desc.Seq + 1);
  unparkAll();
}

void ResidentWorkerPool::spawnContinuation(unsigned W,
                                           const sim::WorkDescriptor &Done) {
  Worker &Wk = Live[W];
  unsigned Target = W;
  switch (Done.Policy) {
  case sim::ParcelPolicy::None:
    return;
  case sim::ParcelPolicy::Ring: {
    // Next live worker in accelerator-id order, wrapping; a lone
    // survivor rings to itself.
    unsigned Best = NoWorker, First = 0;
    for (unsigned V = 0; V != Live.size(); ++V) {
      if (accelId(V) < accelId(First))
        First = V;
      if (accelId(V) > Wk.Span.AccelId &&
          (Best == NoWorker || accelId(V) < accelId(Best)))
        Best = V;
    }
    Target = Best != NoWorker ? Best : First;
    break;
  }
  case sim::ParcelPolicy::LeastLoaded: {
    // Shortest backlog wins; ties go to the pool's deterministic
    // (clock, executed, id) order.
    unsigned Best = 0;
    for (unsigned V = 1; V != Live.size(); ++V) {
      unsigned BestSize = Live[Best].Box->size();
      unsigned Size = Live[V].Box->size();
      if (Size < BestSize || (Size == BestSize && beats(V, Best)))
        Best = V;
    }
    Target = Best;
    break;
  }
  }
  sim::WorkDescriptor Child = DispatchPlan::continuation(
      Done, continuationOf(Done.NextKernel), SpawnSeq++,
      accelId(Target));
  Live[Target].Box->pushParcel(Child, Wk.Span.AccelId, Wk.Span.BlockId);
  unparkAll();
}

unsigned ResidentWorkerPool::pickVictim(unsigned Thief,
                                        unsigned Rotation) const {
  const unsigned MinBacklog = std::max(2u, M.config().StealMinBacklog);
  const unsigned RemoteMinBacklog =
      std::max(MinBacklog, M.config().StealRemoteMinBacklog);
  const unsigned Count = static_cast<unsigned>(Live.size());
  const uint32_t ThiefEnd = Live[Thief].LastEnd;
  const bool RangeBiased = Steal == sim::StealPolicy::LocalityAware ||
                           Steal == sim::StealPolicy::DomainAware;
  unsigned Best = NoWorker;
  unsigned BestFar = 0;
  uint64_t BestDist = 0;
  unsigned BestRot = 0;
  for (unsigned V = 0; V != Count; ++V) {
    if (V == Thief || Live[V].Box->size() < MinBacklog)
      continue;
    // DomainAware is hierarchical: any qualifying same-domain victim
    // beats every remote-domain one, so the thief escalates across the
    // interconnect only when its own domain is dry — and then only for
    // a backlog deep enough (StealRemoteMinBacklog) to amortize the
    // fixed gather premium. On a flat machine every candidate is
    // same-domain and both rules vanish.
    unsigned Far = 0;
    if (Steal == sim::StealPolicy::DomainAware &&
        !M.sameDomain(accelId(Thief), accelId(V))) {
      if (Live[V].Box->size() < RemoteMinBacklog)
        continue;
      Far = 1;
    }
    // A thief that has executed nothing yet has no locality to exploit;
    // distance 0 for everyone degrades LocalityAware to pure rotation.
    uint64_t Dist = 0;
    if (RangeBiased && ThiefEnd != UINT32_MAX) {
      uint32_t Tail = Live[V].Box->tailBegin();
      Dist = Tail > ThiefEnd ? Tail - ThiefEnd : ThiefEnd - Tail;
    }
    // Rotation ranks are distinct per candidate, so the (far, distance,
    // rotation) key is already a total order; the id tie-break below is
    // belt and braces for readability.
    unsigned Rot = (V + Count - Rotation % Count) % Count;
    if (Best == NoWorker || Far < BestFar ||
        (Far == BestFar &&
         (Dist < BestDist ||
          (Dist == BestDist &&
           (Rot < BestRot ||
            (Rot == BestRot && accelId(V) < accelId(Best))))))) {
      Best = V;
      BestFar = Far;
      BestDist = Dist;
      BestRot = Rot;
    }
  }
  return Best;
}

unsigned ResidentWorkerPool::trySteal(unsigned W) {
  const sim::MachineConfig &Cfg = M.config();
  Worker &Wk = Live[W];
  sim::Accelerator &Accel = M.accel(Wk.Span.AccelId);
  // The probe reads the victims' queue headers from main memory; it is
  // paid whether or not anyone qualifies.
  Accel.Clock.advance(Cfg.StealProbeCycles);
  Accel.Counters.StealCycles += Cfg.StealProbeCycles;
  ++Accel.Counters.StealsAttempted;
  ++ProbeSeq;
  unsigned Rotation =
      static_cast<unsigned>(StealRng.nextBelow(std::max<uint64_t>(
          1, static_cast<uint64_t>(Live.size()))));
  unsigned V = pickVictim(W, Rotation);
  if (sim::DmaObserver *Obs = M.observer())
    Obs->onDispatchEvent({sim::DispatchEventKind::StealProbe, Wk.Span.AccelId,
                    Wk.Span.BlockId, ProbeSeq, Accel.Clock.now(),
                    V == NoWorker ? ~0ull
                                  : static_cast<uint64_t>(accelId(V))});
  if (V == NoWorker) {
    // Nothing can appear in a victim's backlog until the host dispatches
    // again or someone else's steal lands; park until then so the drain
    // loop cannot spin on hopeless probes.
    Wk.StealParked = true;
    return 0;
  }
  unsigned Stolen =
      Live[V].Box->stealTailInto(*Wk.Box, Cfg.StealMinBacklog);
  if (Stolen == 0) {
    Wk.StealParked = true;
    return 0;
  }
  unparkAll();
  return Stolen;
}

void ResidentWorkerPool::closeWorker(Worker &Wk) {
  Wk.Ctx.reset();
  FrameEnd = std::max(FrameEnd, detail::closeBlock(M, Wk.Span));
}

void ResidentWorkerPool::buryWorker(unsigned W,
                                    const sim::WorkDescriptor &Popped,
                                    std::vector<sim::WorkDescriptor> &Orphans) {
  Worker &Wk = Live[W];
  sim::Accelerator &Accel = M.accel(Wk.Span.AccelId);
  // The worker died holding the popped descriptor, before the body
  // touched any state: hand it back first, then whatever was still
  // queued behind it, oldest first, so re-dispatch preserves order.
  ++RS.DeadWorkers;
  ++RS.RequeuedDescriptors;
  ++M.hostCounters().FailoverChunks;
  M.emitFault({sim::FaultKind::ChunkRequeued, Wk.Span.AccelId, Wk.Span.BlockId,
               Accel.Clock.now(), Popped.Begin});
  Orphans.push_back(Popped);
  std::vector<sim::WorkDescriptor> Pending = Wk.Box->drain();
  for (const sim::WorkDescriptor &Desc : Pending) {
    ++RS.RequeuedDescriptors;
    ++M.hostCounters().FailoverChunks;
    M.emitFault({sim::FaultKind::ChunkRequeued, Wk.Span.AccelId,
                 Wk.Span.BlockId, Accel.Clock.now(), Desc.Begin});
    Orphans.push_back(Desc);
  }
  M.killAccelerator(Wk.Span.AccelId, Wk.Span.BlockId);
  closeWorker(Wk);
  Live.erase(Live.begin() + W);
}

void ResidentWorkerPool::hangWorker(unsigned W,
                                    const sim::WorkDescriptor &Popped,
                                    std::vector<sim::WorkDescriptor> &Orphans) {
  const sim::WatchdogTimer &WD = M.watchdog();
  if (!WD.armsChunks())
    reportFatalError("resident pool: kernel hang injected with no chunk "
                     "deadline armed; nothing can ever complete the work "
                     "(set MachineConfig::ChunkDeadlineCycles)");
  Worker &Wk = Live[W];
  sim::Accelerator &Accel = M.accel(Wk.Span.AccelId);
  // The wedged worker makes no progress; the watchdog's sweep flags the
  // descriptor at the first check after its deadline. The cancel is
  // raised but never observed, so the core is abandoned and the
  // descriptor (plus the backlog) drains back through the death path.
  uint64_t DetectAt =
      WD.detectionCycle(Accel.Clock.now() + WD.chunkDeadline());
  Accel.Clock.advanceTo(DetectAt);
  ++M.hostCounters().HangsDetected;
  ++M.hostCounters().CancelsIssued;
  M.emitFault({sim::FaultKind::KernelHang, Wk.Span.AccelId, Wk.Span.BlockId,
               DetectAt, Popped.Begin});
  M.emitFault({sim::FaultKind::CancelIssued, Wk.Span.AccelId, Wk.Span.BlockId,
               DetectAt, /*Detail=*/DetectAt});
  buryWorker(W, Popped, Orphans);
}

unsigned ResidentWorkerPool::pickCopyWorker(unsigned Excluding) const {
  unsigned Best = NoWorker;
  for (unsigned W = 0; W != Live.size(); ++W)
    if (W != Excluding && (Best == NoWorker || beats(W, Best)))
      Best = W;
  return Best;
}

void ResidentWorkerPool::finishDescriptor(unsigned W,
                                          const sim::WorkDescriptor &Desc,
                                          uint64_t Start,
                                          uint64_t UnslowedEnd,
                                          float Slowdown) {
  const sim::MachineConfig &Cfg = M.config();
  const sim::WatchdogTimer &WD = M.watchdog();
  Worker &Wk = Live[W];
  sim::Accelerator &Accel = M.accel(Wk.Span.AccelId);
  uint64_t Cost = UnslowedEnd - Start;
  uint64_t SlowEnd = UnslowedEnd + stragglerStall(Cost, Slowdown);
  // The deadline applies to every descriptor when armed — the watchdog
  // cannot tell an injected straggler from genuinely slow work.
  if (!DeadlinesArmed || SlowEnd - Start <= WD.chunkDeadline()) {
    Accel.Clock.advanceTo(SlowEnd);
    return;
  }

  uint64_t DetectAt = WD.detectionCycle(Start + WD.chunkDeadline());
  ++M.hostCounters().StragglersDetected;
  M.emitFault({sim::FaultKind::StragglerDetected, Wk.Span.AccelId,
               Wk.Span.BlockId, DetectAt, /*Detail=*/SlowEnd - Start});

  // Cancellation can only trim the trailing stall: the body's real work
  // is done and its results are in memory, so the victim never retires
  // before UnslowedEnd, and the observation is quantized to the
  // worker's cancel-poll boundary.
  auto CancelVictimAt = [&](uint64_t RaisedAt) {
    uint64_t SeenAt =
        detail::roundUpToQuantum(RaisedAt, Cfg.CancelPollCycles);
    uint64_t VictimEnd =
        std::min(SlowEnd, std::max(UnslowedEnd, SeenAt));
    ++M.hostCounters().CancelsIssued;
    M.emitFault({sim::FaultKind::CancelIssued, Wk.Span.AccelId, Wk.Span.BlockId,
                 RaisedAt, /*Detail=*/VictimEnd});
    Accel.Clock.advanceTo(VictimEnd);
  };

  // The recovery copy never re-executes the body — the chunk already
  // ran exactly once. It charges the chunk's real cost (plus the
  // descriptor fetch) on the copy worker, modelling the re-run the real
  // runtime would perform, without perturbing results.
  auto RunCopyOn = [&](unsigned W2) -> uint64_t {
    Worker &Copy = Live[W2];
    sim::Accelerator &Accel2 = M.accel(Copy.Span.AccelId);
    uint64_t CopyStart = std::max(Accel2.Clock.now(), DetectAt);
    uint64_t CopyFinish =
        CopyStart + Cfg.MailboxDescriptorCycles + Cost;
    Accel2.Clock.advanceTo(CopyFinish);
    RS.WorkerBusyCycles[Copy.StatIndex] += Cost;
    ++RS.WorkerChunks[Copy.StatIndex];
    ++Copy.Executed;
    ++RS.RequeuedDescriptors;
    ++M.hostCounters().FailoverChunks;
    M.emitFault({sim::FaultKind::ChunkRequeued, Copy.Span.AccelId,
                 Copy.Span.BlockId, CopyStart, Desc.Begin});
    if (sim::DmaObserver *Obs = M.observer())
      Obs->onDispatchEvent({sim::DispatchEventKind::DescriptorRun,
                            Copy.Span.AccelId, Copy.Span.BlockId, Desc.Seq,
                            CopyStart + Cfg.MailboxDescriptorCycles,
                            /*Detail=*/0, Desc.Begin, Desc.End,
                            CopyFinish});
    return CopyFinish;
  };

  // All workers straggling at once leaves nobody to copy onto: the
  // host takes the chunk itself (FastFlow-style self-offloading).
  auto EscalateToHost = [&] {
    CancelVictimAt(DetectAt);
    M.hostClock().advanceTo(DetectAt);
    M.hostClock().advance(Cost);
    ++M.hostCounters().HostFallbackChunks;
    M.emitFault({sim::FaultKind::HostFallback, NoAccelerator, Wk.Span.BlockId,
                 M.hostClock().now(), Desc.Begin});
  };

  switch (Cfg.DeadlineRecovery) {
  case sim::DeadlinePolicy::None:
    // Detect and count only; the straggler runs out its stall.
    Accel.Clock.advanceTo(SlowEnd);
    return;
  case sim::DeadlinePolicy::CancelRestart: {
    unsigned W2 = pickCopyWorker(W);
    if (W2 == NoWorker)
      return EscalateToHost();
    // Cancel first, restart from scratch on the copy worker: always
    // discards the victim's (nearly done) progress, which is exactly
    // why this policy loses to speculation at small slowdowns.
    CancelVictimAt(DetectAt);
    RunCopyOn(W2);
    return;
  }
  case sim::DeadlinePolicy::Speculate: {
    unsigned W2 = pickCopyWorker(W);
    if (W2 == NoWorker)
      return EscalateToHost();
    ++M.hostCounters().SpeculativeRedispatches;
    M.emitFault({sim::FaultKind::SpeculativeRedispatch, accelId(W2),
                 Live[W2].Span.BlockId, DetectAt, Desc.Begin});
    Worker &Copy = Live[W2];
    sim::Accelerator &Accel2 = M.accel(Copy.Span.AccelId);
    uint64_t CopyStart = std::max(Accel2.Clock.now(), DetectAt);
    uint64_t CopyFinish =
        CopyStart + Cfg.MailboxDescriptorCycles + Cost;
    if (CopyFinish < SlowEnd) {
      // The copy wins the race; the straggler is cancelled as soon as
      // it can observe the result landing.
      RunCopyOn(W2);
      CancelVictimAt(CopyFinish);
    } else {
      // The straggler finishes first; the backup copy is cancelled at
      // its own poll boundary and charged only the cycles it burned.
      uint64_t CopyEnd = std::min(
          CopyFinish,
          std::max(CopyStart, detail::roundUpToQuantum(
                                  SlowEnd, Cfg.CancelPollCycles)));
      Accel2.Clock.advanceTo(CopyEnd);
      ++M.hostCounters().CancelsIssued;
      M.emitFault({sim::FaultKind::CancelIssued, Copy.Span.AccelId,
                   Copy.Span.BlockId, SlowEnd, /*Detail=*/CopyEnd});
      Accel.Clock.advanceTo(SlowEnd);
    }
    return;
  }
  }
}

void ResidentWorkerPool::close() {
  if (Closed)
    return;
  Closed = true;
  if (OrphanHead != Orphans.size())
    reportFatalError("resident pool: closing with orphans unplaced");
  for (Worker &Wk : Live) {
    if (!Wk.Box->empty())
      reportFatalError("resident pool: closing with descriptors pending");
    closeWorker(Wk);
  }
  Live.clear();
  FrameEnd = std::max(FrameEnd, M.hostClock().now());
  M.hostCounters().JoinStallCycles += M.hostClock().advanceTo(FrameEnd);
  RS.MakespanCycles = FrameEnd - FrameStart;
  RS.Counters = M.countersSince(AtOpen);
}
