//===- trace/TraceRecorder.h - Offload timeline recording ------*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability layer over the simulated machine: a DmaObserver
/// that reconstructs per-core timelines — offload-block spans, every DMA
/// transfer, dma_wait stalls, and local-store high-water marks — from
/// the observer callbacks alone. Section 4 of the paper explains every
/// restructuring via transfer counts, bytes moved and stall cycles; this
/// recorder is what turns those aggregate counters into an inspectable
/// timeline (export with ChromeTrace.h / TimelineReport.h).
///
/// The recorder is strictly read-only: it never advances a clock or
/// touches simulated memory, so cycle counts are bit-identical with and
/// without a recorder attached (tests/trace_test.cpp asserts this).
///
//===----------------------------------------------------------------------===//

#ifndef OMM_TRACE_TRACERECORDER_H
#define OMM_TRACE_TRACERECORDER_H

#include "sim/DmaObserver.h"
#include "sim/Machine.h"

#include <cstdint>
#include <vector>

namespace omm::trace {

/// One offload block (or resident worker context) as run on an
/// accelerator. EndCycle includes the runtime's block-exit DMA drain.
struct OffloadSpan {
  uint64_t BlockId = 0;
  unsigned AccelId = 0;
  uint64_t BeginCycle = 0;
  uint64_t EndCycle = 0;
  uint64_t BytesIn = 0;       ///< DMA-get bytes issued during the span.
  uint64_t BytesOut = 0;      ///< DMA-put bytes issued during the span.
  unsigned Transfers = 0;     ///< DMA commands issued during the span.
  unsigned LocalAccesses = 0; ///< Timed local-store touches.
  uint32_t LocalStorePeak = 0;///< Store high-water mark at block end.

  uint64_t cycles() const { return EndCycle - BeginCycle; }
};

/// One work descriptor executed by a resident worker
/// (offload/ResidentWorker.h): block BlockId on AccelId ran the index
/// range [Begin, End) over [BeginCycle, EndCycle) — body time only;
/// the fetch and idle-poll costs are in mailboxEvents().
struct DescriptorSpan {
  uint64_t BlockId = 0;
  unsigned AccelId = 0;
  uint64_t Seq = 0;
  uint32_t Begin = 0;
  uint32_t End = 0;
  uint64_t BeginCycle = 0;
  uint64_t EndCycle = 0;

  uint64_t cycles() const { return EndCycle - BeginCycle; }
};

/// One dma_wait (waitTag/waitTagMask/waitAll) on an accelerator. The
/// stall the cost model charged is EndCycle - BeginCycle (zero when the
/// data had already landed).
struct WaitSpan {
  unsigned AccelId = 0;
  uint32_t TagMask = 0;
  uint64_t BeginCycle = 0;
  uint64_t EndCycle = 0;
  uint64_t BlockId = 0; ///< Enclosing offload block, or 0 if outside any.

  uint64_t stallCycles() const { return EndCycle - BeginCycle; }
};

/// Records the full event timeline of one simulated machine.
///
/// RAII: attaches itself to the machine's observer list on construction
/// and detaches on destruction, so it can wrap any region of interest
/// and coexists with the race checker (both hang off the ObserverMux).
class TraceRecorder : public sim::DmaObserver {
public:
  explicit TraceRecorder(sim::Machine &M);
  ~TraceRecorder() override;

  TraceRecorder(const TraceRecorder &) = delete;
  TraceRecorder &operator=(const TraceRecorder &) = delete;

  sim::Machine &machine() const { return M; }

  const std::vector<OffloadSpan> &blocks() const { return Blocks; }
  const std::vector<WaitSpan> &waits() const { return Waits; }
  const std::vector<sim::DmaTransfer> &transfers() const {
    return Transfers;
  }

  /// Fault events (injected faults and the runtime's recovery actions)
  /// seen while recording, in emission order.
  const std::vector<sim::FaultEvent> &faults() const { return FaultEvents; }

  /// Work descriptors executed by resident workers, in execution order.
  const std::vector<DescriptorSpan> &descriptors() const {
    return Descriptors;
  }

  /// Dispatch transactions other than DescriptorRun (doorbell writes,
  /// idle polls, descriptor fetches, death drains, steals, parcel
  /// spawns/deliveries) seen while recording, in emission order.
  /// DescriptorRun events are demuxed into descriptors() instead.
  const std::vector<sim::DispatchEvent> &mailboxEvents() const {
    return MailboxEvents;
  }

  /// Host-side direct main-memory touches seen while recording.
  uint64_t hostAccesses() const { return HostAccesses; }

  /// \returns the latest cycle stamped on any recorded event.
  uint64_t lastEventCycle() const { return LastCycle; }

  /// Sum of wait stall cycles recorded for \p AccelId.
  uint64_t stallCycles(unsigned AccelId) const;

  /// Sum of block span cycles recorded for \p AccelId.
  uint64_t busyCycles(unsigned AccelId) const;

  /// Total bytes moved by recorded transfers (both directions).
  uint64_t totalDmaBytes() const;

  /// Forgets everything recorded so far (the machine stays attached).
  void clear();

  // DmaObserver interface.
  void onIssue(const sim::DmaTransfer &Transfer) override;
  void onWait(unsigned AccelId, uint32_t TagMask, uint64_t StartCycle,
              uint64_t EndCycle) override;
  void onLocalAccess(unsigned AccelId, sim::LocalAddr Addr, uint32_t Size,
                     bool IsWrite, uint64_t Cycle) override;
  void onHostAccess(sim::GlobalAddr Addr, uint64_t Size, bool IsWrite,
                    uint64_t Cycle) override;
  void onBlockBegin(unsigned AccelId, uint64_t BlockId,
                    uint64_t LaunchCycle) override;
  void onBlockEnd(unsigned AccelId, uint64_t BlockId, uint64_t Cycle) override;
  void onFault(const sim::FaultEvent &Event) override;
  void onDispatchEvent(const sim::DispatchEvent &Event) override;

private:
  /// Per-accelerator attribution state.
  struct AccelState {
    int OpenSpan = -1;  ///< Index into Blocks of the running span.
    int DrainSpan = -1; ///< Just-ended span whose runtime DMA drain (the
                        ///< waitAll right after onBlockEnd) is still due;
                        ///< that wait extends the span's EndCycle.
  };

  AccelState &state(unsigned AccelId);
  void note(uint64_t Cycle) { LastCycle = std::max(LastCycle, Cycle); }

  sim::Machine &M;
  std::vector<OffloadSpan> Blocks;
  std::vector<WaitSpan> Waits;
  std::vector<sim::DmaTransfer> Transfers;
  std::vector<sim::FaultEvent> FaultEvents;
  std::vector<DescriptorSpan> Descriptors;
  std::vector<sim::DispatchEvent> MailboxEvents;
  std::vector<AccelState> Accels;
  uint64_t HostAccesses = 0;
  uint64_t LastCycle = 0;
};

} // namespace omm::trace

#endif // OMM_TRACE_TRACERECORDER_H
