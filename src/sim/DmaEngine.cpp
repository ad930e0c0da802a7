//===- sim/DmaEngine.cpp - MFC-style DMA engine ---------------------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "sim/DmaEngine.h"

#include "sim/CycleClock.h"
#include "sim/FaultInjector.h"
#include "sim/LocalStore.h"
#include "sim/MainMemory.h"
#include "sim/PerfCounters.h"
#include "support/Diag.h"
#include "support/MathExtras.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace omm;
using namespace omm::sim;

DmaEngine::DmaEngine(unsigned AccelId, const MachineConfig &Config,
                     MainMemory &Main, LocalStore &Store, CycleClock &Clock,
                     PerfCounters &Counters)
    : AccelId(AccelId), Config(Config), Main(Main), Store(Store),
      Clock(Clock), Counters(Counters) {}

void DmaEngine::validate(LocalAddr Local, GlobalAddr Global, uint32_t Size,
                         unsigned Tag) const {
  if (Tag >= Config.NumDmaTags)
    reportFatalError("dma: tag out of range");
  if (!Config.isLegalDmaSize(Size))
    reportFatalError("dma: illegal transfer size (must be 1/2/4/8 or a "
                     "multiple of the DMA alignment, and at most the MFC "
                     "maximum)");
  uint32_t Align = Size < Config.DmaAlignment ? Size : Config.DmaAlignment;
  if (!isAligned(Local.Value, Align) || !isAligned(Global.Value, Align))
    reportFatalError("dma: misaligned transfer");
  if (!Store.contains(Local, Size))
    reportFatalError("dma: local address out of local store bounds");
  if (!Main.contains(Global, Size))
    reportFatalError("dma: global address out of main memory bounds");
}

uint64_t DmaEngine::injectTransferDelay(uint64_t IssuedAt) {
  uint64_t Extra = Injector->transferDelay(AccelId);
  if (Extra == 0)
    return 0;
  // The delay lengthens this transfer's completion only; the data
  // channel frees on schedule (the slowdown is downstream of the
  // engine), so independent transfers still pipeline.
  ++Counters.DmaDelayedTransfers;
  Counters.DmaInjectedDelayCycles += Extra;
  if (Observer)
    Observer->onFault({FaultKind::DmaCompletionDelayed, AccelId,
                       /*BlockId=*/0, IssuedAt, Extra});
  return Extra;
}

void DmaEngine::issue(DmaDir Dir, const ListElement *Elements,
                      unsigned Count, unsigned Tag, Ordering Order) {
  if (Count == 0)
    return;

  // Transient rejection: the MFC refuses the command and the core
  // re-issues it, paying the issue cycles plus a software backoff that
  // doubles per consecutive refusal. The injector caps consecutive
  // refusals at MaxDmaRetries, so this ends even at a 100% rate.
  uint64_t Backoff = Config.Faults.DmaRetryBackoffCycles;
  while (Injector && Injector->dmaCommandFails(AccelId)) {
    Clock.advance(Config.DmaIssueCycles + Backoff);
    ++Counters.DmaRetries;
    Counters.DmaRetryStallCycles += Backoff;
    if (Observer)
      Observer->onFault({FaultKind::DmaCommandRejected, AccelId,
                         /*BlockId=*/0, Clock.now(), Backoff});
    Backoff *= 2;
  }

  uint64_t TotalBytes = 0;
  for (unsigned I = 0; I != Count; ++I) {
    validate(Elements[I].Local, Elements[I].Global, Elements[I].Size, Tag);
    TotalBytes += Elements[I].Size;
  }

  // The issuing core pays the per-command enqueue cost up front.
  Clock.advance(Config.DmaIssueCycles);
  uint64_t Now = Clock.now();

  // Queue-depth stall: the MFC accepts at most DmaQueueDepth in-flight
  // commands; issuing into a full queue blocks the core until the
  // earliest in-flight transfer drains.
  unsigned InFlight = 0;
  uint64_t Earliest = UINT64_MAX;
  for (const DmaTransfer &T : Pending)
    if (T.CompleteCycle > Now) {
      ++InFlight;
      Earliest = std::min(Earliest, T.CompleteCycle);
    }
  if (InFlight >= Config.DmaQueueDepth) {
    assert(Earliest != UINT64_MAX && "full queue with nothing in flight");
    Counters.DmaQueueFullStallCycles += Clock.advanceTo(Earliest);
    Now = Clock.now();
  }

  // One startup latency covers the whole command; the data phases of
  // its elements serialise on the engine channel.
  uint64_t Start = std::max(Now, ChannelFreeAt);
  if (Order == Ordering::Fence)
    Start = std::max(Start, lastCompletionForTag(Tag));
  else if (Order == Ordering::Barrier)
    Start = std::max(Start, maxCompletionAll());
  uint64_t DataCycles = Config.DmaBytesPerCycle == 0
                            ? 0
                            : divideCeil(TotalBytes, Config.DmaBytesPerCycle);
  // Main memory lives in domain 0, so an engine on a remote-domain core
  // pays the inter-domain hop once per command (zero on flat machines).
  uint64_t Complete = Start + Config.DmaLatencyCycles +
                      Config.interDomainDmaPremium(AccelId) + DataCycles;
  ChannelFreeAt = Start + DataCycles;
  if (Injector)
    Complete += injectTransferDelay(Now); // One command, one draw.

  if (Dir == DmaDir::Get)
    ++Counters.DmaGetsIssued;
  else
    ++Counters.DmaPutsIssued;
  for (unsigned I = 0; I != Count; ++I) {
    const ListElement &E = Elements[I];
    // Functional copy happens now (see file comment in DmaEngine.h).
    if (Dir == DmaDir::Get) {
      std::memcpy(Store.rawPtr(E.Local, E.Size),
                  Main.rawPtr(E.Global, E.Size), E.Size);
      Counters.DmaBytesRead += E.Size;
    } else {
      std::memcpy(Main.rawPtr(E.Global, E.Size),
                  Store.rawPtr(E.Local, E.Size), E.Size);
      Counters.DmaBytesWritten += E.Size;
    }

    // The race checker and tag bookkeeping see one record per element
    // (overlap analysis needs the element ranges), all sharing the
    // command's timing. The record is filled in place: a stack copy
    // pushed right after its field stores stalls store forwarding.
    DmaTransfer &Transfer = Pending.emplace_back();
    Transfer.Id = NextId++;
    Transfer.Dir = Dir;
    Transfer.AccelId = AccelId;
    Transfer.Local = E.Local;
    Transfer.Global = E.Global;
    Transfer.Size = E.Size;
    Transfer.Tag = Tag;
    Transfer.Fenced = Order == Ordering::Fence;
    Transfer.Barriered = Order == Ordering::Barrier;
    Transfer.IssueCycle = Now;
    Transfer.CompleteCycle = Complete;
    if (Observer)
      Observer->onIssue(Transfer);
  }
}

void DmaEngine::issueLarge(DmaDir Dir, LocalAddr Local, GlobalAddr Global,
                           uint64_t Size, unsigned Tag) {
  while (Size != 0) {
    uint32_t Chunk = static_cast<uint32_t>(
        std::min<uint64_t>(Size, Config.MaxDmaTransferSize));
    // Keep the tail a legal size: round down to alignment unless this is
    // the final sub-16-byte piece.
    if (Chunk >= Config.DmaAlignment)
      Chunk = static_cast<uint32_t>(alignDown(Chunk, Config.DmaAlignment));
    ListElement E{Local, Global, Chunk};
    issue(Dir, &E, 1, Tag, Ordering::None);
    Local += Chunk;
    Global += Chunk;
    Size -= Chunk;
  }
}

void DmaEngine::get(LocalAddr Dst, GlobalAddr Src, uint32_t Size,
                    unsigned Tag) {
  ListElement E{Dst, Src, Size};
  issue(DmaDir::Get, &E, 1, Tag, Ordering::None);
}

void DmaEngine::put(GlobalAddr Dst, LocalAddr Src, uint32_t Size,
                    unsigned Tag) {
  ListElement E{Src, Dst, Size};
  issue(DmaDir::Put, &E, 1, Tag, Ordering::None);
}

void DmaEngine::getFenced(LocalAddr Dst, GlobalAddr Src, uint32_t Size,
                          unsigned Tag) {
  ListElement E{Dst, Src, Size};
  issue(DmaDir::Get, &E, 1, Tag, Ordering::Fence);
}

void DmaEngine::getBarrier(LocalAddr Dst, GlobalAddr Src, uint32_t Size,
                           unsigned Tag) {
  ListElement E{Dst, Src, Size};
  issue(DmaDir::Get, &E, 1, Tag, Ordering::Barrier);
}

void DmaEngine::getList(const ListElement *Elements, unsigned Count,
                        unsigned Tag) {
  issue(DmaDir::Get, Elements, Count, Tag, Ordering::None);
}

void DmaEngine::putList(const ListElement *Elements, unsigned Count,
                        unsigned Tag) {
  issue(DmaDir::Put, Elements, Count, Tag, Ordering::None);
}

void DmaEngine::getLarge(LocalAddr Dst, GlobalAddr Src, uint64_t Size,
                         unsigned Tag) {
  issueLarge(DmaDir::Get, Dst, Src, Size, Tag);
}

void DmaEngine::putLarge(GlobalAddr Dst, LocalAddr Src, uint64_t Size,
                         unsigned Tag) {
  issueLarge(DmaDir::Put, Src, Dst, Size, Tag);
}

uint64_t DmaEngine::lastCompletionForTag(unsigned Tag) const {
  uint64_t Last = 0;
  for (const DmaTransfer &T : Pending)
    if (T.Tag == Tag)
      Last = std::max(Last, T.CompleteCycle);
  return Last;
}

uint64_t DmaEngine::maxCompletionAll() const {
  uint64_t Last = 0;
  for (const DmaTransfer &T : Pending)
    Last = std::max(Last, T.CompleteCycle);
  return Last;
}

void DmaEngine::waitTagMask(uint32_t TagMask) {
  uint64_t Target = 0;
  for (const DmaTransfer &T : Pending)
    if (TagMask & (1u << T.Tag))
      Target = std::max(Target, T.CompleteCycle);
  uint64_t WaitStart = Clock.now();
  Counters.DmaStallCycles += Clock.advanceTo(Target);
  if (Observer)
    Observer->onWait(AccelId, TagMask, WaitStart, Clock.now());
  Pending.erase(std::remove_if(Pending.begin(), Pending.end(),
                               [&](const DmaTransfer &T) {
                                 return (TagMask & (1u << T.Tag)) != 0;
                               }),
                Pending.end());
}

void DmaEngine::waitTag(unsigned Tag) {
  if (Tag >= Config.NumDmaTags)
    reportFatalError("dma: tag out of range");
  waitTagMask(1u << Tag);
}

void DmaEngine::waitAll() { waitTagMask(~0u); }
