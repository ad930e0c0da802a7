//===- offload/Offload.h - Offload blocks and joins ------------*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library form of the paper's __offload block (Figure 2):
///
///   __offload_handle_t h = __offload { this->calculateStrategy(...); };
///   this->detectCollisions();   // executed in parallel by host
///   __offload_join(h);          // wait for accelerator to complete
///
/// becomes
///
///   OffloadHandle H = offloadBlock(M, [&](OffloadContext &Ctx) {
///     calculateStrategy(Ctx, ...);
///   });
///   detectCollisions(M);        // executed in parallel by host
///   offloadJoin(M, H);          // wait for accelerator to complete
///
/// Parallelism is modelled in simulated time: the block body runs
/// immediately (the simulator is single-threaded and deterministic) on
/// the accelerator's own cycle clock, which starts at
/// max(host-launch-time, accelerator-free-time) plus the launch cost;
/// offloadJoin advances the host clock to the block's completion. The
/// host work between launch and join therefore overlaps the accelerator
/// work exactly as on real hardware. Local-store allocations made inside
/// the block are popped when it ends (block-scoped data lives in
/// scratch-pad memory, Section 3, property 3).
///
/// Every block carries a machine-wide monotonic id, reported to the
/// installed observers as an onBlockBegin/onBlockEnd span so tools (the
/// race checker, the trace recorder) can attribute traffic to blocks.
///
/// Launches are fail-stop: a core runs the block or is lost before the
/// body starts. Timing faults (hangs, stragglers) are never drawn here;
/// they exist only at resident descriptor pops (ResidentWorker.h). Every
/// accelerator block — offloadBlock or a resident worker's lifetime —
/// goes through the one detail::openBlock / detail::closeBlock pair, so
/// launch cost, fault gate and the observer span each have exactly one
/// site.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_OFFLOAD_OFFLOAD_H
#define OMM_OFFLOAD_OFFLOAD_H

#include "offload/OffloadContext.h"
#include "sim/Machine.h"
#include "sim/Mailbox.h"
#include "support/Diag.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace omm::offload {

class OffloadHandle;

/// Sentinel accelerator id meaning "no accelerator" (pickAccelerator on
/// a machine with no live core, and the AccelId of failed auto-picks).
inline constexpr unsigned NoAccelerator = ~0u;

/// The one host-fallback site, for a chunk no accelerator will take:
/// bills HostFallbackChunks, reports a HostFallback fault (AccelId
/// NoAccelerator, BlockId 0, Cycle the host clock now, Detail the
/// chunk's first index \p FirstIndex) and runs \p Run on a HostContext.
template <typename RunFn>
void runHostChunk(sim::Machine &M, uint32_t FirstIndex, RunFn &&Run) {
  ++M.hostCounters().HostFallbackChunks;
  M.emitFault({sim::FaultKind::HostFallback, NoAccelerator, /*BlockId=*/0,
               M.hostClock().now(), FirstIndex});
  HostContext Ctx(M);
  Run(Ctx);
}

/// Outcome of an offload launch. Launches are fail-stop: a core either
/// runs the whole block or is lost before the body's first instruction.
/// A non-Ok handle is still joinable — joining charges the host the
/// fault-detection latency — but the block body never ran, so the
/// caller must re-issue the work elsewhere (another accelerator, or the
/// host).
enum class OffloadStatus : uint8_t {
  Ok,
  AcceleratorDead,       ///< The target core is (or just died) dead.
  NoAcceleratorAvailable,///< Auto-pick found no live core.
};

/// \returns a stable name for \p Status (diagnostics and reports).
const char *toString(OffloadStatus Status);

namespace detail {
/// Complains on stderr about a handle destroyed while still joinable —
/// a leaked offload is silent lost parallelism: the host never syncs
/// with the accelerator, so the block's cycles vanish from frame time.
void reportLeakedHandle(unsigned AccelId, uint64_t BlockId);

/// One accelerator block between openBlock and closeBlock: the core it
/// runs on, its machine-wide id and the local-store mark it unwinds to.
struct BlockSpan {
  unsigned AccelId = 0;
  uint64_t BlockId = 0;
  sim::LocalStore::Mark Mark;
};

/// The one launch protocol, shared by offloadBlock and the resident
/// workers. Charges the host HostLaunchCycles, takes the block id and
/// applies the fail-stop gate: AccelId == NoAccelerator yields
/// NoAcceleratorAvailable, a dead core AcceleratorDead, and an attached
/// fault injector's death verdict burns the core's wasted cycles and
/// kills it (AcceleratorDead). Every failure bumps LaunchFaults and
/// emits its fault event; the body must not run. On Ok the core's clock
/// moves to max(FreeAt, host now) + OffloadLaunchCycles, the local store
/// is marked and the observers see onBlockBegin. \p Span's AccelId and
/// BlockId are filled in either way; its Mark only on Ok.
OffloadStatus openBlock(sim::Machine &M, unsigned AccelId, BlockSpan &Span);

/// Ends a block openBlock opened: onBlockEnd fires before the DMA drain
/// (so the race checker can report missing waits), then the queue
/// drains, the local store unwinds to the span's mark and the core's
/// FreeAt moves to its clock. \returns that completion cycle.
uint64_t closeBlock(sim::Machine &M, const BlockSpan &Span);
} // namespace detail

/// Result of launching an offload block; pass to offloadJoin.
///
/// Move-only, and [[nodiscard]]: dropping the return value of
/// offloadBlock on the floor means the host never joins the block. A
/// handle destroyed while still joinable reports the leak in
/// assertion-enabled builds.
class [[nodiscard]] OffloadHandle {
public:
  OffloadHandle() = default;

  OffloadHandle(OffloadHandle &&Other) noexcept
      : AccelId(Other.AccelId), BlockId(Other.BlockId),
        CompleteAt(Other.CompleteAt), Status(Other.Status),
        Joinable(Other.Joinable) {
    Other.Joinable = false;
  }

  OffloadHandle &operator=(OffloadHandle &&Other) noexcept {
    if (this != &Other) {
      warnIfLeaked();
      AccelId = Other.AccelId;
      BlockId = Other.BlockId;
      CompleteAt = Other.CompleteAt;
      Status = Other.Status;
      Joinable = Other.Joinable;
      Other.Joinable = false;
    }
    return *this;
  }

  OffloadHandle(const OffloadHandle &) = delete;
  OffloadHandle &operator=(const OffloadHandle &) = delete;

  ~OffloadHandle() { warnIfLeaked(); }

  /// The accelerator the block ran on.
  unsigned accelId() const { return AccelId; }

  /// The machine-wide monotonic block id (pairs observer span events).
  uint64_t blockId() const { return BlockId; }

  /// Accelerator cycle at which the block's work (including the runtime's
  /// block-exit DMA drain) is complete. For a failed launch this is the
  /// host cycle at which the fault is detected.
  uint64_t completeAt() const { return CompleteAt; }

  /// Outcome of the launch; on anything but Ok the body never ran and
  /// the work must be re-issued.
  OffloadStatus status() const { return Status; }
  bool ok() const { return Status == OffloadStatus::Ok; }

  /// True until offloadJoin consumes the handle (or it is moved from).
  bool joinable() const { return Joinable; }

private:
  OffloadHandle(unsigned AccelId, uint64_t BlockId, uint64_t CompleteAt,
                OffloadStatus Status = OffloadStatus::Ok)
      : AccelId(AccelId), BlockId(BlockId), CompleteAt(CompleteAt),
        Status(Status), Joinable(true) {}

  void warnIfLeaked() {
#ifndef NDEBUG
    if (Joinable)
      detail::reportLeakedHandle(AccelId, BlockId);
#endif
    Joinable = false;
  }

  template <typename BodyFn>
  friend OffloadHandle offloadBlock(sim::Machine &M, unsigned AccelId,
                                    BodyFn &&Body);
  friend OffloadStatus offloadJoin(sim::Machine &M, OffloadHandle &Handle);

  unsigned AccelId = 0;
  uint64_t BlockId = 0;
  uint64_t CompleteAt = 0;
  OffloadStatus Status = OffloadStatus::Ok;
  bool Joinable = false;
};

/// \returns the live accelerator that will be free soonest (the
/// runtime's simple scheduling policy), or NoAccelerator when every
/// core is dead or the machine has none.
inline unsigned pickAccelerator(sim::Machine &M) {
  unsigned Best = NoAccelerator;
  uint64_t BestFree = UINT64_MAX;
  for (unsigned I = 0, E = M.numAccelerators(); I != E; ++I) {
    sim::Accelerator &Accel = M.accel(I);
    if (!Accel.Alive)
      continue;
    if (Accel.FreeAt < BestFree) {
      BestFree = Accel.FreeAt;
      Best = I;
    }
  }
  return Best;
}

/// Launches \p Body as an offload block on accelerator \p AccelId.
///
/// \p Body is invoked with an OffloadContext& and runs to completion in
/// accelerator simulated time; the host clock only pays the launch cost.
/// The runtime notifies the installed observers of the block span
/// (onBlockBegin when the accelerator starts, onBlockEnd when the body
/// finishes — before the DMA drain, so the race checker can report
/// missing waits) and then drains the DMA queue, as the real Offload
/// runtime synchronises its software caches at block exit.
template <typename BodyFn>
OffloadHandle offloadBlock(sim::Machine &M, unsigned AccelId, BodyFn &&Body) {
  // Dead cores and injected launch faults abort in openBlock, before the
  // body can run or move a byte — fail-stop at the launch boundary is
  // what keeps recovered runs bit-identical to fault-free ones. Joining
  // the failed handle stalls the host until the runtime watchdog
  // reports the fault.
  detail::BlockSpan Span;
  if (OffloadStatus Fault = detail::openBlock(M, AccelId, Span);
      Fault != OffloadStatus::Ok)
    return OffloadHandle(AccelId, Span.BlockId,
                         M.hostClock().now() +
                             M.config().Faults.FaultDetectCycles,
                         Fault);
  {
    OffloadContext Ctx(M, AccelId);
    Body(Ctx);
  }
  return OffloadHandle(AccelId, Span.BlockId, detail::closeBlock(M, Span));
}

/// As above, with the runtime choosing the least-busy live accelerator.
/// With no live accelerator the launch fails with
/// NoAcceleratorAvailable (the body does not run).
template <typename BodyFn>
OffloadHandle offloadBlock(sim::Machine &M, BodyFn &&Body) {
  return offloadBlock(M, pickAccelerator(M), std::forward<BodyFn>(Body));
}

/// Blocks the host until the offload completes (__offload_join).
/// \returns the block's launch status: on anything but Ok the body
/// never ran and the caller must re-issue the work.
inline OffloadStatus offloadJoin(sim::Machine &M, OffloadHandle &Handle) {
  if (!Handle.Joinable)
    reportFatalError("offload: joining an invalid or already-joined handle");
  M.hostCounters().JoinStallCycles +=
      M.hostClock().advanceTo(Handle.CompleteAt);
  Handle.Joinable = false;
  return Handle.Status;
}

/// Launches the block and joins immediately: the host is fully blocked
/// for the duration (no overlap). Useful as the "offload with no
/// restructuring" baseline.
template <typename BodyFn>
OffloadStatus offloadSync(sim::Machine &M, BodyFn &&Body) {
  OffloadHandle Handle = offloadBlock(M, std::forward<BodyFn>(Body));
  return offloadJoin(M, Handle);
}

/// A set of concurrent offload blocks joined together — the shape of the
/// paper's restructured component system ("13 separate type-specialised
/// offloads", Section 4.1) spread over the available accelerators.
class OffloadGroup {
public:
  /// Launches on the least-busy live accelerator. \returns the launch
  /// status (known immediately; the simulator is synchronous), so
  /// callers can re-issue a failed launch before joining.
  template <typename BodyFn>
  OffloadStatus launch(sim::Machine &M, BodyFn &&Body) {
    Handles.push_back(offloadBlock(M, std::forward<BodyFn>(Body)));
    return Handles.back().status();
  }

  template <typename BodyFn>
  OffloadStatus launchOn(sim::Machine &M, unsigned AccelId, BodyFn &&Body) {
    Handles.push_back(
        offloadBlock(M, AccelId, std::forward<BodyFn>(Body)));
    return Handles.back().status();
  }

  /// Joins every launched block. \returns Ok if every block ran, else
  /// the first failure's status (failed launches whose work the caller
  /// already re-issued still join here, paying the detection latency).
  OffloadStatus joinAll(sim::Machine &M) {
    OffloadStatus Worst = OffloadStatus::Ok;
    for (OffloadHandle &Handle : Handles) {
      OffloadStatus Status = offloadJoin(M, Handle);
      if (Worst == OffloadStatus::Ok)
        Worst = Status;
    }
    Handles.clear();
    return Worst;
  }

private:
  std::vector<OffloadHandle> Handles;
};

/// The offload runtime's single WorkDescriptor construction site. Every
/// dispatch entry point — distributeJobs' bulk placement and host-paced
/// carving, parallelForRange's static slice split, and the resident
/// workers' continuation-parcel spawn — builds its descriptors through
/// one DispatchPlan, so descriptor layout (sequence numbering, homes,
/// stage/continuation decoration) has exactly one author and a new
/// field lands everywhere at once.
///
/// A plan walks [0, Count) left to right: each carve call takes the
/// next span and stamps it with the monotonically increasing sequence
/// number and the current stage decoration. The carving arithmetic is
/// the historical one, verbatim, so plans reproduce the pre-plan
/// schedules bit for bit.
class DispatchPlan {
public:
  explicit DispatchPlan(uint32_t Count) : Count(Count) {}

  /// Decorates every subsequently carved descriptor: it runs stage
  /// \p Kernel and, when \p NextKernel != 0, spawns a same-range
  /// continuation parcel under \p Policy on completion. The default
  /// plan carves undecorated (kernel 0, no continuation) descriptors —
  /// the pre-parcel runtime.
  DispatchPlan &stage(uint16_t Kernel, uint16_t NextKernel,
                      sim::ParcelPolicy Policy) {
    StageKernel = Kernel;
    StageNext = NextKernel;
    StagePolicy = Policy;
    return *this;
  }

  /// True when the whole range has been carved.
  bool done() const { return Next >= Count; }

  /// Indices not yet carved.
  uint32_t remaining() const { return Count - Next; }

  /// Carves the next fixed-size chunk [Next, min(Next + ChunkSize,
  /// Count)) — distributeJobs' unit, including the adaptive policy
  /// (which just varies ChunkSize per call).
  sim::WorkDescriptor chunk(uint32_t ChunkSize,
                            unsigned Home = sim::WorkDescriptor::NoHome) {
    uint32_t End = std::min(Count, Next + std::max(1u, ChunkSize));
    return take(End, Home);
  }

  /// Carves the explicit-length slice [Next, Next + Len) —
  /// parallelForRange's static split unit (Len from the per-worker
  /// remainder distribution, which stays at the call site because it
  /// depends on the worker budget, not on descriptor layout).
  sim::WorkDescriptor slice(uint32_t Len, unsigned Home) {
    return take(Next + Len, Home);
  }

  /// Domain-first bulk placement: splits \p Total work units (chunks or
  /// elements) across workers so that each *domain's* share is
  /// proportional to its worker head-count before the per-worker split
  /// happens inside the domain. \p Domains holds each worker's domain
  /// in dispatch order (workers are opened in ascending accelerator-id
  /// order, so a domain's members are contiguous). With a single domain
  /// the result is exactly the historical flat
  /// `Total/Workers + (W < Total%Workers)` arithmetic, bit for bit —
  /// which is what keeps every committed flat-machine baseline
  /// unchanged. With several domains the remainder is balanced across
  /// domains instead of piling onto the low worker ids, so contiguous
  /// ranges land whole inside one domain and steals can stay local.
  static std::vector<uint32_t>
  domainShares(uint32_t Total, const std::vector<unsigned> &Domains) {
    const uint32_t Workers = static_cast<uint32_t>(Domains.size());
    std::vector<uint32_t> Shares(Workers, 0);
    if (Workers == 0)
      return Shares;
    const uint32_t PerWorker = Total / Workers;
    const uint32_t Rem = Total % Workers;
    // Group consecutive workers by domain (order of first appearance).
    std::vector<std::pair<unsigned, uint32_t>> Groups;
    for (unsigned D : Domains) {
      if (Groups.empty() || Groups.back().first != D)
        Groups.emplace_back(D, 0u);
      ++Groups.back().second;
    }
    // Each domain gets floor(Rem * members / Workers) of the remainder;
    // the floors leave at most #groups - 1 units, handed out one per
    // domain from the front.
    std::vector<uint32_t> Extra(Groups.size(), 0);
    uint32_t Given = 0;
    for (size_t G = 0; G != Groups.size(); ++G) {
      Extra[G] = static_cast<uint32_t>(
          static_cast<uint64_t>(Rem) * Groups[G].second / Workers);
      Given += Extra[G];
    }
    for (size_t G = 0; Given < Rem; ++G, ++Given)
      ++Extra[G];
    // Flat split inside each domain.
    uint32_t W = 0;
    for (size_t G = 0; G != Groups.size(); ++G) {
      uint32_t Members = Groups[G].second;
      uint32_t Share = PerWorker * Members + Extra[G];
      uint32_t Per = Share / Members;
      uint32_t GroupRem = Share % Members;
      for (uint32_t I = 0; I != Members; ++I, ++W)
        Shares[W] = Per + (I < GroupRem ? 1 : 0);
    }
    return Shares;
  }

  /// The continuation construction site: the child descriptor a
  /// completed \p Parent spawns as a parcel. Same [Begin, End) payload
  /// span; the child runs Parent.NextKernel and chains on to
  /// \p NextNext (0 ends the chain, clearing the policy so
  /// hasContinuation() goes false).
  static sim::WorkDescriptor continuation(const sim::WorkDescriptor &Parent,
                                          uint16_t NextNext, uint64_t Seq,
                                          unsigned Home) {
    sim::WorkDescriptor Child;
    Child.Begin = Parent.Begin;
    Child.End = Parent.End;
    Child.Seq = Seq;
    Child.Home = Home;
    Child.Kernel = Parent.NextKernel;
    Child.NextKernel = NextNext;
    Child.Policy =
        NextNext != 0 ? Parent.Policy : sim::ParcelPolicy::None;
    return Child;
  }

private:
  /// Takes [Next, End), advancing the cursor and sequence number.
  sim::WorkDescriptor take(uint32_t End, unsigned Home) {
    sim::WorkDescriptor Desc;
    Desc.Begin = Next;
    Desc.End = End;
    Desc.Seq = Seq++;
    Desc.Home = Home;
    Desc.Kernel = StageKernel;
    Desc.NextKernel = StageNext;
    Desc.Policy = StageNext != 0 ? StagePolicy : sim::ParcelPolicy::None;
    Next = End;
    return Desc;
  }

  uint32_t Count;
  uint32_t Next = 0;
  uint64_t Seq = 0;
  uint16_t StageKernel = 0;
  uint16_t StageNext = 0;
  sim::ParcelPolicy StagePolicy = sim::ParcelPolicy::None;
};

} // namespace omm::offload

#endif // OMM_OFFLOAD_OFFLOAD_H
