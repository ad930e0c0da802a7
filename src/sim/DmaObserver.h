//===- sim/DmaObserver.h - Hooks for DMA traffic analysis ------*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Observation interface over the simulated machine's memory traffic.
/// "The difficulty of DMA programming has prompted design of both static
/// and dynamic analysis tools to detect DMA races" (Section 2); the
/// dynamic checker in src/dmacheck implements this interface, in the
/// spirit of the IBM Cell BE Race Check Library the paper cites, and the
/// trace recorder in src/trace implements it to reconstruct per-core
/// timelines.
///
/// Observers are purely passive: every callback carries resolved
/// simulated times and none may advance a clock, so attaching any number
/// of observers cannot change a single cycle of the simulation.
///
/// Multiple observers can watch one machine at once (e.g. the race
/// checker and the trace recorder during a profiled test run); the
/// machine fans callbacks out through an ObserverMux, in registration
/// order.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_SIM_DMAOBSERVER_H
#define OMM_SIM_DMAOBSERVER_H

#include "sim/Address.h"

#include <cstdint>
#include <vector>

namespace omm::sim {

/// Direction of a DMA transfer, named from the accelerator's viewpoint as
/// in the Cell SDK: get = main memory -> local store, put = local store ->
/// main memory.
enum class DmaDir { Get, Put };

/// A single DMA request as issued to an accelerator's memory flow
/// controller, with the cost model's resolved timing.
struct DmaTransfer {
  uint64_t Id = 0;           ///< Monotonic per-machine id.
  DmaDir Dir = DmaDir::Get;
  unsigned AccelId = 0;
  LocalAddr Local;           ///< Local-store end of the transfer.
  GlobalAddr Global;         ///< Main-memory end of the transfer.
  uint32_t Size = 0;         ///< Bytes moved.
  unsigned Tag = 0;          ///< Tag group (0..NumDmaTags-1).
  bool Fenced = false;       ///< Ordered after earlier same-tag transfers.
  bool Barriered = false;    ///< Ordered after all earlier transfers on
                             ///< this engine.
  uint64_t IssueCycle = 0;   ///< Accelerator cycle at which it was issued.
  uint64_t CompleteCycle = 0;///< Cycle at which the data is guaranteed in
                             ///< place (what dma_wait waits for).
};

/// Kinds of injected or observed machine faults (FaultInjector.h) as
/// reported to observers; the trace layer renders these as instant
/// events so a degraded frame's recovery is visible on the timeline.
enum class FaultKind : uint8_t {
  AcceleratorDeath,       ///< A core died and is lost for good.
  LaunchOnDeadAccelerator,///< A launch targeted an already-dead core.
  NoAcceleratorAvailable, ///< Auto-pick found no live core.
  DmaCommandRejected,     ///< Transient MFC rejection (engine retries).
  DmaCompletionDelayed,   ///< A transfer's completion was pushed out.
  ChunkRequeued,          ///< A dead worker's chunk moved to a survivor.
  HostFallback,           ///< Work ran on the host; no core could.
  KernelHang,             ///< A descriptor wedged; watchdog fired.
  StragglerDetected,      ///< A descriptor missed its chunk deadline.
  CancelIssued,           ///< A cooperative cancel request was raised.
  SpeculativeRedispatch,  ///< A backup copy was raced vs a straggler.
  FrameDeadlineMissed,    ///< A frame exceeded its cycle budget.
  AcceleratorRecycled,    ///< A dead core was restarted by a supervisor
                          ///< (tenant server) and accepts launches again.
};

/// \returns a stable lower-case name for \p Kind (trace/report output).
const char *faultKindName(FaultKind Kind);

/// Kinds of dispatch transactions of the persistent-worker runtime
/// (Mailbox.h / ResidentWorker.h), as reported to observers. The trace
/// layer renders the host-side kinds as instants so descriptor dispatch
/// is visible between the launch spans it replaces, and DescriptorRun as
/// a span on the worker's track.
enum class DispatchEventKind : uint8_t {
  DoorbellWrite,   ///< Host published a descriptor and rang the bell.
  IdlePoll,        ///< A worker spun on an empty mailbox (Detail = cycles).
  DescriptorFetch, ///< A worker DMA-fetched a descriptor.
  MailboxDrained,  ///< A dead worker's pending descriptors were taken
                   ///< back for re-queueing (Seq = how many).
  BulkDoorbell,    ///< Host bulk-placed a whole region slice with one
                   ///< doorbell (Seq = first descriptor, Detail = count).
  StealProbe,      ///< An idle worker probed for a victim (Detail =
                   ///< victim accel id, or ~0 when none qualified).
  StealTransfer,   ///< A thief gathered a victim's backlog tail with one
                   ///< list-form DMA (Seq = descriptors stolen, Detail =
                   ///< victim accel id).
  DescriptorRun,   ///< A worker ran one descriptor body: [Begin, End)
                   ///< from Cycle to EndCycle in worker time.
  ParcelSpawn,     ///< A worker published a continuation descriptor into
                   ///< a peer's mailbox (Detail = recipient accel id;
                   ///< Cycle is the *spawner's* clock after paying the
                   ///< peer doorbell + descriptor DMA).
  ParcelDeliver,   ///< The recipient side of a ParcelSpawn: the parcel
                   ///< landed in AccelId's mailbox (Detail = spawner
                   ///< accel id, Begin the parcel's begin index).
};

/// \returns a stable lower-case name for \p Kind (trace/report output).
const char *dispatchEventKindName(DispatchEventKind Kind);

/// One dispatch transaction as reported to observers. The mailbox kinds
/// fill the leading six fields; DescriptorRun and the parcel kinds also
/// use the trailing span fields, which default to zero so six-field
/// brace-inits stay valid.
struct DispatchEvent {
  DispatchEventKind Kind = DispatchEventKind::DoorbellWrite;
  unsigned AccelId = 0;
  /// The resident worker's offload block.
  uint64_t BlockId = 0;
  /// Descriptor sequence number, or the pending count for
  /// MailboxDrained.
  uint64_t Seq = 0;
  /// Simulated cycle (host clock for DoorbellWrite/MailboxDrained,
  /// worker clock for IdlePoll/DescriptorFetch/DescriptorRun and the
  /// parcel kinds; DescriptorRun's Cycle is the body's start).
  uint64_t Cycle = 0;
  /// Kind-specific payload: the descriptor's begin index, the spin
  /// cycles for IdlePoll, or the peer accel id for the parcel kinds.
  uint64_t Detail = 0;
  /// DescriptorRun / parcel kinds only: the descriptor's index range.
  uint32_t Begin = 0;
  uint32_t End = 0;
  /// DescriptorRun only: worker cycle at which the body finished.
  uint64_t EndCycle = 0;
};

/// One fault as reported to observers.
struct FaultEvent {
  FaultKind Kind = FaultKind::AcceleratorDeath;
  /// Core involved, or ~0u when none is (host fallback, empty pick).
  unsigned AccelId = 0;
  /// Offload block being launched or running, or 0 outside any block.
  uint64_t BlockId = 0;
  /// Simulated cycle of the fault (core clock for core-side faults,
  /// host clock for launch/fallback decisions).
  uint64_t Cycle = 0;
  /// Kind-specific payload: injected delay or backoff cycles for the
  /// DMA kinds, the chunk's begin index for requeue/fallback kinds.
  uint64_t Detail = 0;
};

/// Callbacks fired by the machine as traffic happens. All default to
/// no-ops so observers override only what they need.
class DmaObserver {
public:
  virtual ~DmaObserver();

  /// A transfer was accepted by an MFC queue.
  virtual void onIssue(const DmaTransfer &Transfer) { (void)Transfer; }

  /// An accelerator blocked until every transfer in \p TagMask completed.
  /// The core reached the wait at \p StartCycle and resumed at
  /// \p EndCycle; the difference is the stall the cost model charged
  /// (zero when everything had already landed).
  virtual void onWait(unsigned AccelId, uint32_t TagMask,
                      uint64_t StartCycle, uint64_t EndCycle) {
    (void)AccelId;
    (void)TagMask;
    (void)StartCycle;
    (void)EndCycle;
  }

  /// An accelerator core touched its local store directly.
  virtual void onLocalAccess(unsigned AccelId, LocalAddr Addr, uint32_t Size,
                             bool IsWrite, uint64_t Cycle) {
    (void)AccelId;
    (void)Addr;
    (void)Size;
    (void)IsWrite;
    (void)Cycle;
  }

  /// The host core touched main memory directly.
  virtual void onHostAccess(GlobalAddr Addr, uint64_t Size, bool IsWrite,
                            uint64_t Cycle) {
    (void)Addr;
    (void)Size;
    (void)IsWrite;
    (void)Cycle;
  }

  /// An offload block (or resident worker context) started running on
  /// \p AccelId at \p LaunchCycle in accelerator time. \p BlockId is
  /// monotonic per machine, so tools can pair this with the matching
  /// onBlockEnd even across interleaved blocks on many accelerators.
  virtual void onBlockBegin(unsigned AccelId, uint64_t BlockId,
                            uint64_t LaunchCycle) {
    (void)AccelId;
    (void)BlockId;
    (void)LaunchCycle;
  }

  /// The body of block \p BlockId finished on \p AccelId at \p Cycle.
  /// Fired *before* the runtime drains the DMA queue, so any transfer
  /// still pending here was never waited for by user code (a missing
  /// dma_wait); the drain itself is reported through onWait as usual.
  virtual void onBlockEnd(unsigned AccelId, uint64_t BlockId,
                          uint64_t Cycle) {
    (void)AccelId;
    (void)BlockId;
    (void)Cycle;
  }

  /// A fault was injected or a recovery action taken. Like every other
  /// callback this is purely informational; the cost of the fault has
  /// already been charged by the machine or the offload runtime.
  virtual void onFault(const FaultEvent &Event) { (void)Event; }

  /// A dispatch transaction of the persistent-worker runtime happened:
  /// a mailbox event (doorbell write, descriptor fetch, idle poll,
  /// death drain, steal), a descriptor body run (Kind ==
  /// DescriptorRun, spanning [Cycle, EndCycle) in worker time over
  /// [Begin, End)), or a worker-to-worker parcel (ParcelSpawn /
  /// ParcelDeliver). The costs are already charged; this only reports
  /// them. This callback subsumes the pre-merge onMailbox /
  /// onDescriptor pair: new transaction kinds add an enum case, not a
  /// virtual.
  virtual void onDispatchEvent(const DispatchEvent &Event) { (void)Event; }
};

/// Fans every callback out to a list of observers, in registration
/// order. The Machine owns one of these and installs it into the DMA
/// engines only while at least one observer is attached, so an
/// unobserved machine pays exactly one null-pointer test per event.
///
/// Observers must not attach or detach observers from inside a callback.
class ObserverMux final : public DmaObserver {
public:
  /// Appends \p Obs to the fan-out list; attaching an already-attached
  /// observer is a caller bug.
  void add(DmaObserver *Obs);

  /// Detaches \p Obs; removing an observer that was never attached is a
  /// no-op.
  void remove(DmaObserver *Obs);

  bool empty() const { return Observers.empty(); }
  unsigned size() const { return static_cast<unsigned>(Observers.size()); }

  void onIssue(const DmaTransfer &Transfer) override;
  void onWait(unsigned AccelId, uint32_t TagMask, uint64_t StartCycle,
              uint64_t EndCycle) override;
  void onLocalAccess(unsigned AccelId, LocalAddr Addr, uint32_t Size,
                     bool IsWrite, uint64_t Cycle) override;
  void onHostAccess(GlobalAddr Addr, uint64_t Size, bool IsWrite,
                    uint64_t Cycle) override;
  void onBlockBegin(unsigned AccelId, uint64_t BlockId,
                    uint64_t LaunchCycle) override;
  void onBlockEnd(unsigned AccelId, uint64_t BlockId, uint64_t Cycle) override;
  void onFault(const FaultEvent &Event) override;
  void onDispatchEvent(const DispatchEvent &Event) override;

private:
  std::vector<DmaObserver *> Observers;
};

} // namespace omm::sim

#endif // OMM_SIM_DMAOBSERVER_H
