//===- trace/TraceRecorder.cpp - Offload timeline recording ---------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "trace/TraceRecorder.h"

#include <algorithm>

using namespace omm;
using namespace omm::sim;
using namespace omm::trace;

TraceRecorder::TraceRecorder(Machine &M) : M(M) {
  Accels.resize(M.numAccelerators());
  M.addObserver(this);
}

TraceRecorder::~TraceRecorder() { M.removeObserver(this); }

TraceRecorder::AccelState &TraceRecorder::state(unsigned AccelId) {
  if (AccelId >= Accels.size())
    Accels.resize(AccelId + 1);
  return Accels[AccelId];
}

uint64_t TraceRecorder::stallCycles(unsigned AccelId) const {
  uint64_t Total = 0;
  for (const WaitSpan &W : Waits)
    if (W.AccelId == AccelId)
      Total += W.stallCycles();
  return Total;
}

uint64_t TraceRecorder::busyCycles(unsigned AccelId) const {
  uint64_t Total = 0;
  for (const OffloadSpan &B : Blocks)
    if (B.AccelId == AccelId)
      Total += B.cycles();
  return Total;
}

uint64_t TraceRecorder::totalDmaBytes() const {
  uint64_t Total = 0;
  for (const DmaTransfer &T : Transfers)
    Total += T.Size;
  return Total;
}

void TraceRecorder::clear() {
  Blocks.clear();
  Waits.clear();
  Transfers.clear();
  FaultEvents.clear();
  Descriptors.clear();
  MailboxEvents.clear();
  std::fill(Accels.begin(), Accels.end(), AccelState());
  HostAccesses = 0;
  LastCycle = 0;
}

void TraceRecorder::onIssue(const DmaTransfer &Transfer) {
  Transfers.push_back(Transfer);
  note(Transfer.CompleteCycle);
  AccelState &S = state(Transfer.AccelId);
  S.DrainSpan = -1; // New traffic: the post-block drain window is over.
  if (S.OpenSpan >= 0) {
    OffloadSpan &Span = Blocks[static_cast<size_t>(S.OpenSpan)];
    ++Span.Transfers;
    if (Transfer.Dir == DmaDir::Get)
      Span.BytesIn += Transfer.Size;
    else
      Span.BytesOut += Transfer.Size;
  }
}

void TraceRecorder::onWait(unsigned AccelId, uint32_t TagMask,
                           uint64_t StartCycle, uint64_t EndCycle) {
  note(EndCycle);
  AccelState &S = state(AccelId);
  WaitSpan Wait;
  Wait.AccelId = AccelId;
  Wait.TagMask = TagMask;
  Wait.BeginCycle = StartCycle;
  Wait.EndCycle = EndCycle;
  if (S.OpenSpan >= 0) {
    Wait.BlockId = Blocks[static_cast<size_t>(S.OpenSpan)].BlockId;
  } else if (S.DrainSpan >= 0) {
    // The runtime's block-exit waitAll: the accelerator is still inside
    // the block's lifetime, so the drain belongs to the span.
    OffloadSpan &Span = Blocks[static_cast<size_t>(S.DrainSpan)];
    Wait.BlockId = Span.BlockId;
    Span.EndCycle = std::max(Span.EndCycle, EndCycle);
    S.DrainSpan = -1;
  }
  Waits.push_back(Wait);
}

void TraceRecorder::onLocalAccess(unsigned AccelId, LocalAddr Addr,
                                  uint32_t Size, bool IsWrite,
                                  uint64_t Cycle) {
  (void)Addr;
  (void)Size;
  (void)IsWrite;
  note(Cycle);
  AccelState &S = state(AccelId);
  if (S.OpenSpan >= 0)
    ++Blocks[static_cast<size_t>(S.OpenSpan)].LocalAccesses;
}

void TraceRecorder::onHostAccess(GlobalAddr Addr, uint64_t Size, bool IsWrite,
                                 uint64_t Cycle) {
  (void)Addr;
  (void)Size;
  (void)IsWrite;
  note(Cycle);
  ++HostAccesses;
}

void TraceRecorder::onBlockBegin(unsigned AccelId, uint64_t BlockId,
                                 uint64_t LaunchCycle) {
  note(LaunchCycle);
  AccelState &S = state(AccelId);
  S.DrainSpan = -1;
  OffloadSpan Span;
  Span.BlockId = BlockId;
  Span.AccelId = AccelId;
  Span.BeginCycle = LaunchCycle;
  Span.EndCycle = LaunchCycle;
  S.OpenSpan = static_cast<int>(Blocks.size());
  Blocks.push_back(Span);
}

void TraceRecorder::onFault(const FaultEvent &Event) {
  note(Event.Cycle);
  FaultEvents.push_back(Event);
}

void TraceRecorder::onDispatchEvent(const DispatchEvent &Event) {
  // Descriptor body runs become spans on the worker's timeline; every
  // other dispatch kind (mailbox traffic, steals, parcels) stays an
  // instant in emission order.
  if (Event.Kind == DispatchEventKind::DescriptorRun) {
    note(Event.EndCycle);
    DescriptorSpan Span;
    Span.BlockId = Event.BlockId;
    Span.AccelId = Event.AccelId;
    Span.Seq = Event.Seq;
    Span.Begin = Event.Begin;
    Span.End = Event.End;
    Span.BeginCycle = Event.Cycle;
    Span.EndCycle = Event.EndCycle;
    Descriptors.push_back(Span);
    return;
  }
  note(Event.Cycle);
  MailboxEvents.push_back(Event);
}

void TraceRecorder::onBlockEnd(unsigned AccelId, uint64_t BlockId,
                               uint64_t Cycle) {
  note(Cycle);
  AccelState &S = state(AccelId);
  if (S.OpenSpan < 0)
    return; // End without a recorded begin (recorder attached mid-block).
  OffloadSpan &Span = Blocks[static_cast<size_t>(S.OpenSpan)];
  if (Span.BlockId == BlockId) {
    Span.EndCycle = std::max(Span.BeginCycle, Cycle);
    // Sample the scratch-pad high-water mark; the store's peak counter
    // is monotonic over the machine's life, so this is the pressure
    // reached by the end of this block.
    if (AccelId < M.numAccelerators())
      Span.LocalStorePeak = M.accel(AccelId).Store.peakUsage();
    S.DrainSpan = S.OpenSpan;
  }
  S.OpenSpan = -1;
}
