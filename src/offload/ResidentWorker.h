//===- offload/ResidentWorker.h - Persistent worker runtime ----*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent-worker runtime: one ResidentWorkerPool per parallel
/// region launches a resident worker (one offload block) per usable
/// accelerator, and from then on work reaches the accelerators through
/// per-core mailboxes (sim/Mailbox.h) instead of fresh launches. N
/// chunks cost one OffloadLaunchCycles launch plus N cheap mailbox
/// transactions — the offload-overhead amortization the three region
/// drivers are built on: distributeJobs (JobQueue.h), parallelForRange
/// (ParallelFor.h) and runDataflow (Parcel.h).
///
/// A driver only carves descriptors and seeds them; the pool runs
/// everything after that. It owns the orphan queue, the one placement
/// routine (place: live Home first, then pickWorker, make room when the
/// mailbox is full, host when the pool is empty), the host-paced eager
/// loop (runEager), the drain/steal loop (drain) and the host fallback
/// (runOnHost), so every dispatch, steal and join-stall cycle of a
/// region is spent in this one place.
///
/// Scheduling is deterministic: the next descriptor goes to the worker
/// with the lowest simulated clock, ties broken by fewest descriptors
/// executed, then by accelerator id — so perfectly symmetric workers
/// round-robin instead of piling onto pool-order's first entry (which
/// used to hide imbalance whenever per-chunk costs were zero).
///
/// Fault handling follows the established recovery contract: a worker
/// that dies popping a descriptor (FaultInjector::chunkFails) has that
/// descriptor *and* everything still pending in its mailbox appended to
/// the orphan queue with the [Begin, End) boundaries untouched, and the
/// pool re-places them before anything else, so recovered runs compute
/// bit-identical state. When the pool empties the host runs what is
/// left, each descriptor with its remaining continuation chain.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_OFFLOAD_RESIDENTWORKER_H
#define OMM_OFFLOAD_RESIDENTWORKER_H

#include "offload/Offload.h"
#include "offload/OffloadContext.h"
#include "sim/Mailbox.h"
#include "support/Diag.h"
#include "support/Random.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

namespace omm::offload {

/// What one resident region did — the result of distributeJobs,
/// parallelForRange and runDataflow. Everything the machine counts
/// (descriptors dispatched, steals, parcels, hangs, stragglers, cancels,
/// speculative copies, host fallbacks) is read from Counters; the fields
/// below are the facts no counter records.
struct RegionStats {
  /// Machine-wide counter delta from the pool's opening to its close()
  /// (the closing join included). Counters.HostFallbackChunks is
  /// HostChunks plus the stragglers escalated to the host.
  sim::PerfCounters Counters;
  /// Region makespan (pool open to last worker retired).
  uint64_t MakespanCycles = 0;
  /// Busy cycles per opened worker (body time only), indexed by open
  /// order.
  std::vector<uint64_t> WorkerBusyCycles;
  /// Descriptors executed per opened worker, same indexing.
  std::vector<uint32_t> WorkerChunks;
  /// Resident-worker launches that succeeded.
  uint32_t Launches = 0;
  /// Resident-worker launches that failed outright (dead core, injected
  /// launch fault); the pool opened without them.
  uint32_t FailedLaunches = 0;
  /// Workers that died mid-region, at a descriptor boundary (hung
  /// workers included).
  uint32_t DeadWorkers = 0;
  /// Descriptors re-run on another worker, from two sources: the ones
  /// dying workers handed back (the popped descriptor plus the mailbox
  /// backlog), and one recovery copy per straggler that
  /// DeadlinePolicy::CancelRestart restarted or a Speculate backup won.
  uint32_t RequeuedDescriptors = 0;
  /// Descriptors executed on a different accelerator than their static
  /// split intended (WorkDescriptor::Home).
  uint32_t FailoverDescriptors = 0;
  /// Chunks the driver ran on the host because no worker was left.
  uint32_t HostChunks = 0;
  /// Stage-1 descriptors the host seeded (runDataflow only).
  uint32_t Seeds = 0;

  /// Descriptors minus launches: how many per-chunk launches the
  /// resident runtime amortized away (0 when nothing was dispatched,
  /// and for the degenerate one-descriptor-per-worker static split).
  uint64_t launchesSaved() const {
    return Counters.DescriptorsDispatched > Launches
               ? Counters.DescriptorsDispatched - Launches
               : 0;
  }

  /// max/mean busy ratio; 1.0 = perfectly balanced.
  double imbalance() const {
    if (WorkerBusyCycles.empty())
      return 1.0;
    uint64_t Max = 0, Sum = 0;
    for (uint64_t Busy : WorkerBusyCycles) {
      Max = std::max(Max, Busy);
      Sum += Busy;
    }
    if (Sum == 0)
      return 1.0;
    double Mean = static_cast<double>(Sum) / WorkerBusyCycles.size();
    return static_cast<double>(Max) / Mean;
  }
};

/// A pool of resident workers for one parallel region. Construction
/// launches the workers; close() (or destruction) retires them and
/// resolves the region's makespan and counter delta. Not reusable
/// across regions — the workers' offload blocks end when the pool
/// closes.
class ResidentWorkerPool {
public:
  static constexpr unsigned NoWorker = ~0u;

  /// Opens up to min(numAccelerators - FirstAccel, MaxWorkers) resident
  /// workers on the contiguous accelerator range starting at
  /// \p FirstAccel (0 — the default — is the historical whole-machine
  /// pool). A non-zero base is how a caller pins a region to one
  /// domain's accelerators: FirstAccel = Domain * AcceleratorsPerDomain
  /// with a budget of at most AcceleratorsPerDomain. Each worker opens
  /// through detail::openBlock and its fail-stop gate, so a pool can
  /// open short-handed or empty; place() and runOnHost() then fall back
  /// to the host.
  ///
  /// \p NumStages is runDataflow's stage chain: a spawned continuation
  /// parcel running stage kernel K continues on to K+1 until kernel
  /// \p NumStages ends the chain. It only shapes descriptors this pool
  /// spawns (or runs on the host); 1, the default, chains nothing.
  ResidentWorkerPool(sim::Machine &M, unsigned MaxWorkers,
                     unsigned FirstAccel = 0, uint16_t NumStages = 1);

  ResidentWorkerPool(const ResidentWorkerPool &) = delete;
  ResidentWorkerPool &operator=(const ResidentWorkerPool &) = delete;

  ~ResidentWorkerPool() { close(); }

  /// The region's stats so far; Counters and MakespanCycles are filled
  /// in by close().
  const RegionStats &stats() const { return RS; }

  /// Live (not yet dead or retired) workers.
  unsigned liveCount() const { return static_cast<unsigned>(Live.size()); }

  /// The deterministic dispatch choice: the live worker with the lowest
  /// (clock, descriptors executed, accelerator id). Pool must not be
  /// empty.
  unsigned pickWorker() const;

  /// As pickWorker, restricted to workers with an *empty* mailbox that
  /// have not parked after a failed steal; NoWorker when none qualify.
  /// The steal-mode drain loop's thief choice.
  unsigned pickIdleThief() const;

  /// \returns the live worker running on accelerator \p AccelId, or
  /// NoWorker when that core never launched or has died.
  unsigned findWorkerFor(unsigned AccelId) const;

  unsigned accelId(unsigned W) const { return Live[W].Span.AccelId; }
  sim::Mailbox &mailbox(unsigned W) { return *Live[W].Box; }

  /// Host side: publishes \p Desc to worker \p W's mailbox (doorbell
  /// cost, dispatch counters). The caller must leave room (dispatching
  /// to a full mailbox is fatal; see executeNext to make room).
  void dispatch(unsigned W, const sim::WorkDescriptor &Desc);

  /// The one placement routine, for seeds and orphans alike: \p Desc
  /// goes to the live worker on its Home accelerator, else to
  /// pickWorker's choice; a full mailbox first makes room by running
  /// one of its descriptors (a death there re-picks). Chunk descriptors
  /// carry NoHome and an orphaned parcel's Home is the recipient that
  /// died holding it, so only a static slice (or a stolen part of one)
  /// ever finds its home. With the pool empty the host runs \p Desc.
  /// \returns the worker \p Desc was dispatched to, or NoWorker when
  /// the host ran it.
  template <typename BodyFn>
  unsigned place(BodyFn &Body, sim::WorkDescriptor Desc) {
    for (;;) {
      if (Live.empty()) {
        runOnHost(Body, Desc);
        return NoWorker;
      }
      unsigned W = findWorkerFor(Desc.Home);
      if (W == NoWorker)
        W = pickWorker();
      if (Live[W].Box->full()) {
        executeNext(W, Body);
        continue;
      }
      dispatch(W, Desc);
      return W;
    }
  }

  /// The host-paced eager loop: takes the oldest orphan, else the next
  /// descriptor \p Carve returns (std::nullopt when the range is
  /// exhausted), places it and lets its worker pop it at once. A death
  /// on the pop orphans the descriptor, and the next iteration
  /// re-places it. Mailboxes are empty whenever this loop returns.
  template <typename BodyFn, typename CarveFn>
  void runEager(BodyFn &Body, CarveFn &&Carve) {
    for (;;) {
      sim::WorkDescriptor Desc;
      if (OrphanHead < Orphans.size()) {
        Desc = Orphans[OrphanHead++];
      } else if (std::optional<sim::WorkDescriptor> Next = Carve()) {
        Desc = *Next;
      } else {
        return;
      }
      unsigned W = place(Body, Desc);
      if (W != NoWorker)
        executeNext(W, Body);
    }
  }

  /// Runs everything seeded so far to completion: orphans are re-placed
  /// first (in death order), then the loaded worker with the lowest
  /// clock pops. With \p MaySteal and a stealing machine, an idle
  /// worker whose clock trails that loaded worker's probes for a victim
  /// first; failed probes park the thief, so the loop always advances.
  /// runDataflow drains with \p MaySteal false and never steals.
  template <typename BodyFn> void drain(BodyFn &Body, bool MaySteal) {
    const bool Stealing = MaySteal && Steal != sim::StealPolicy::None;
    for (;;) {
      if (OrphanHead < Orphans.size()) {
        place(Body, Orphans[OrphanHead++]);
        continue;
      }
      unsigned W = pickLoadedWorker();
      if (W == NoWorker)
        return;
      if (Stealing) {
        unsigned T = pickIdleThief();
        if (T != NoWorker && workerClock(T) < workerClock(W)) {
          trySteal(T);
          continue;
        }
      }
      executeNext(W, Body);
    }
  }

  /// Host side, bulk initial placement: hands worker \p W the whole
  /// region slice \p Descs with one doorbell (Mailbox::pushBulk). Only
  /// meaningful when stealing is enabled — the backlog then lives in
  /// the worker's local store and may exceed MailboxDepth.
  void dispatchBulk(unsigned W, const std::vector<sim::WorkDescriptor> &Descs);

  /// Idle worker \p W probes for a victim and, when one qualifies,
  /// claims half its backlog tail with one list-form DMA. Always
  /// charges \p W StealProbeCycles; success adds the grant handshake
  /// and transfer (Mailbox::stealTailInto) and unparks every worker. A
  /// failed probe parks \p W until the next dispatch or successful
  /// steal, which bounds the drain loop. \returns descriptors stolen.
  unsigned trySteal(unsigned W);

  /// Worker side: worker \p W pops and executes its oldest descriptor.
  /// \returns true on success. On a death verdict the popped descriptor
  /// and the mailbox backlog are appended to \p Orphans (boundaries
  /// intact, oldest first), the worker is buried and the pool shrinks —
  /// whoever owns \p Orphans re-dispatches them; false is returned.
  ///
  /// \p Body is invoked either as Body(Ctx, Begin, End) (the classic
  /// range form) or, when it accepts one, as Body(Ctx, Desc) so staged
  /// dataflow bodies can dispatch on Desc.Kernel. A completed
  /// descriptor with a continuation (WorkDescriptor::hasContinuation)
  /// spawns its child parcel into a peer mailbox afterwards, charged
  /// to this worker's clock — death happens at the pop boundary,
  /// *before* the body, so a killed worker never spawned: re-running
  /// the parent re-spawns exactly once.
  template <typename BodyFn>
  bool executeNext(unsigned W, BodyFn &Body,
                   std::vector<sim::WorkDescriptor> &Orphans) {
    Worker &Wk = Live[W];
    sim::Accelerator &Accel = M.accel(Wk.Span.AccelId);
    sim::WorkDescriptor Desc = Wk.Box->pop();
    if (Faults && Faults->chunkFails(Wk.Span.AccelId)) {
      buryWorker(W, Desc, Orphans);
      return false;
    }
    // Timing verdict at the same pop boundary: a hang wedges the worker
    // before the body runs (so re-dispatch is exactly-once by
    // construction); a straggler's slowdown lands after the real work.
    sim::TimingFault Timing;
    if (Faults)
      Timing = Faults->classifyTiming(Wk.Span.AccelId);
    if (Timing.Hangs) {
      hangWorker(W, Desc, Orphans);
      return false;
    }
    if (Desc.Home != sim::WorkDescriptor::NoHome &&
        Desc.Home != Wk.Span.AccelId) {
      ++RS.FailoverDescriptors;
      ++M.hostCounters().FailoverChunks;
    }
    uint64_t Start = Accel.Clock.now();
    {
      // Per-descriptor allocations (staging buffers, caches the body
      // constructs) must not accumulate across the worker's life.
      OffloadContext::LocalScope Scope(*Wk.Ctx);
      if constexpr (std::is_invocable_v<BodyFn &, OffloadContext &,
                                        const sim::WorkDescriptor &>)
        Body(*Wk.Ctx, Desc);
      else
        Body(*Wk.Ctx, Desc.Begin, Desc.End);
    }
    uint64_t End = Accel.Clock.now();
    RS.WorkerBusyCycles[Wk.StatIndex] += End - Start;
    ++RS.WorkerChunks[Wk.StatIndex];
    ++Wk.Executed;
    Wk.LastBegin = Desc.Begin;
    Wk.LastEnd = Desc.End;
    if (sim::DmaObserver *Obs = M.observer())
      Obs->onDispatchEvent({sim::DispatchEventKind::DescriptorRun,
                            Wk.Span.AccelId, Wk.Span.BlockId, Desc.Seq, Start,
                            /*Detail=*/0, Desc.Begin, Desc.End, End});
    if (Timing.Slowdown > 1.0f || DeadlinesArmed)
      finishDescriptor(W, Desc, Start, End, Timing.Slowdown);
    if (Desc.hasContinuation())
      spawnContinuation(W, Desc);
    return true;
  }

  /// As above, orphaning into the pool's own queue, which place(),
  /// runEager() and drain() re-place before anything else.
  template <typename BodyFn> bool executeNext(unsigned W, BodyFn &Body) {
    return executeNext(W, Body, Orphans);
  }

  /// Host fallback for a descriptor no worker can take: runs \p Desc
  /// and then its remaining continuation chain (with no worker left
  /// there is nobody to deliver a parcel to, and the chain's stage
  /// order must survive the pool emptying). Each descriptor run is
  /// billed (HostChunks, the HostFallbackChunks counter, a HostFallback
  /// fault event) and invoked on a HostContext, in the same two call
  /// forms executeNext accepts. A body hard-wired to OffloadContext
  /// cannot fall back, which is a fatal configuration error (there is
  /// nowhere left to run the work).
  template <typename BodyFn>
  void runOnHost(BodyFn &Body, sim::WorkDescriptor Desc) {
    for (;;) {
      ++RS.HostChunks;
      ++M.hostCounters().HostFallbackChunks;
      M.emitFault({sim::FaultKind::HostFallback, NoAccelerator,
                   /*BlockId=*/0, M.hostClock().now(), Desc.Begin});
      HostContext Ctx(M);
      if constexpr (std::is_invocable_v<BodyFn &, HostContext &,
                                        const sim::WorkDescriptor &>)
        Body(Ctx, Desc);
      else if constexpr (std::is_invocable_v<BodyFn &, HostContext &,
                                             uint32_t, uint32_t>)
        Body(Ctx, Desc.Begin, Desc.End);
      else
        reportFatalError("offload: no accelerator available and the body "
                         "is not host-invocable (take the context "
                         "parameter as auto& to enable host fallback)");
      if (!Desc.hasContinuation())
        return;
      Desc = DispatchPlan::continuation(Desc, continuationOf(Desc.NextKernel),
                                        Desc.Seq, sim::WorkDescriptor::NoHome);
    }
  }

  /// Retires the surviving workers, folds every finish time into the
  /// region makespan, joins the host to it (JoinStallCycles) and takes
  /// the region's counter delta. Idempotent; called by the destructor
  /// as a backstop.
  void close();

private:
  struct Worker {
    /// The worker's one offload block, open from the pool's launch to
    /// closeWorker.
    detail::BlockSpan Span;
    unsigned StatIndex = 0;
    uint32_t Executed = 0;
    /// [Begin, End) of the last descriptor this worker executed — the
    /// locality key StealPolicy::LocalityAware scores victims by.
    /// UINT32_MAX until the worker has executed anything.
    uint32_t LastBegin = UINT32_MAX;
    uint32_t LastEnd = UINT32_MAX;
    /// Set when a steal probe found no victim; cleared by any dispatch
    /// or successful steal. A parked worker stops probing, so the drain
    /// loop cannot spin on hopeless probes.
    bool StealParked = false;
    std::unique_ptr<OffloadContext> Ctx;
    std::unique_ptr<sim::Mailbox> Box;
  };

  /// Ends worker \p Wk's block (closeBlock: observer, DMA drain, arena
  /// reset, FreeAt) and folds its finish time into the makespan.
  void closeWorker(Worker &Wk);

  /// The death path: requeues \p Popped plus the mailbox backlog into
  /// \p Orphans, bills the recovery counters, kills the core and
  /// removes the worker from the pool.
  void buryWorker(unsigned W, const sim::WorkDescriptor &Popped,
                  std::vector<sim::WorkDescriptor> &Orphans);

  /// The hang path: the worker wedged before running \p Popped. Fatal
  /// unless chunk deadlines are armed; otherwise the watchdog detects
  /// the miss, cancels the worker (never observed — it is wedged) and
  /// buries it like a died one, orphaning \p Popped plus the backlog.
  void hangWorker(unsigned W, const sim::WorkDescriptor &Popped,
                  std::vector<sim::WorkDescriptor> &Orphans);

  /// Applies worker \p W's straggler slowdown / chunk deadline to a
  /// descriptor whose body ran in [\p Start, \p UnslowedEnd]: appends
  /// the slowdown stall, and on a deadline miss applies the configured
  /// DeadlinePolicy (cancel+restart copy, speculative race, or host
  /// escalation when the pool has no second worker). Recovery is
  /// time-only — the results are already in memory.
  void finishDescriptor(unsigned W, const sim::WorkDescriptor &Desc,
                        uint64_t Start, uint64_t UnslowedEnd,
                        float Slowdown);

  /// The deterministic (clock, executed, id) pick excluding worker
  /// \p Excluding; NoWorker when no other worker is alive.
  unsigned pickCopyWorker(unsigned Excluding) const;

  /// Worker \p W completed \p Done, which carries a continuation:
  /// builds the child through DispatchPlan::continuation, picks the
  /// recipient under Done.Policy and pushes the parcel into its
  /// mailbox, all charged to \p W's accelerator clock
  /// (Mailbox::pushParcel). The host is not involved.
  void spawnContinuation(unsigned W, const sim::WorkDescriptor &Done);

  /// True when worker \p A beats worker \p B on the deterministic
  /// (clock, executed, accelerator id) dispatch order.
  bool beats(unsigned A, unsigned B) const;

  /// As pickWorker, restricted to workers with a non-empty mailbox;
  /// NoWorker when every mailbox is empty (the drain loop's exit).
  unsigned pickLoadedWorker() const;

  /// Worker \p W's accelerator clock (the drain loop compares a
  /// prospective thief's progress against the loaded worker's).
  uint64_t workerClock(unsigned W) const {
    return M.accel(accelId(W)).Clock.now();
  }

  /// The stage a spawned child running kernel \p Kernel continues on
  /// to, or 0 when it ends its chain (the NumStages chain).
  uint16_t continuationOf(uint16_t Kernel) const {
    return Kernel < NumStages ? static_cast<uint16_t>(Kernel + 1) : 0;
  }

  /// The deterministic victim choice for thief \p Thief given this
  /// attempt's rotation offset \p Rotation: among live workers with at
  /// least StealMinBacklog pending descriptors, LocalityAware prefers
  /// the victim whose backlog tail is range-closest to the thief's last
  /// executed chunk, then rotation order, then accelerator id; Rotation
  /// skips the locality key. \returns NoWorker when none qualify.
  unsigned pickVictim(unsigned Thief, unsigned Rotation) const;

  /// Clears every worker's StealParked flag (new work became visible).
  void unparkAll();

  sim::Machine &M;
  sim::FaultInjector *Faults;
  std::vector<Worker> Live;
  RegionStats RS;
  /// Machine counters when the pool opened; close() subtracts them.
  sim::PerfCounters AtOpen;
  /// Cached MachineConfig::WorkStealing.
  sim::StealPolicy Steal = sim::StealPolicy::None;
  /// The rotation stream behind pickVictim's tie-break; seeded from
  /// MachineConfig::StealSeed so victim choice replays deterministically.
  SplitMix64 StealRng;
  /// The last stage kernel of the region's continuation chain.
  uint16_t NumStages;
  /// Descriptors handed back by dying workers, oldest first, and the
  /// cursor of the next one to re-place.
  std::vector<sim::WorkDescriptor> Orphans;
  size_t OrphanHead = 0;
  /// Sequence number for the next spawned parcel: kept past every
  /// host-dispatched Seq (dispatch/dispatchBulk fold theirs in), so a
  /// spawned child never collides with a seeded descriptor.
  uint64_t SpawnSeq = 0;
  /// Steal probes issued so far; numbers each StealProbe event.
  uint64_t ProbeSeq = 0;
  uint64_t FrameStart = 0;
  uint64_t FrameEnd = 0;
  bool Closed = false;
  /// Cached watchdog().armsChunks(); keeps the fault-free fast path in
  /// executeNext to one boolean test.
  bool DeadlinesArmed = false;
};

} // namespace omm::offload

#endif // OMM_OFFLOAD_RESIDENTWORKER_H
