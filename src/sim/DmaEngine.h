//===- sim/DmaEngine.h - MFC-style DMA engine ------------------*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One accelerator's memory flow controller: asynchronous, tagged DMA
/// between the accelerator's local store and main memory, exactly the
/// dma_get/dma_put/dma_wait programming model of the paper's Figure 1.
///
/// Timing model: a transfer issued at cycle I starts when the engine's
/// data channel is free (data phases of one engine serialise; startup
/// latencies pipeline), and completes LatencyCycles + ceil(Size/BW) after
/// its start. Two gets issued back-to-back therefore overlap one full
/// startup latency versus issue-wait-issue-wait — the benefit Figure 1's
/// shared tag exploits and experiment E1 measures.
///
/// Functional model: bytes are copied at issue time (the simulator is
/// single-threaded and deterministic), while *visibility* is defined by
/// CompleteCycle. Race-free programs cannot observe the difference; racy
/// programs are reported by the dmacheck observer instead of yielding
/// nondeterministically corrupted data.
///
/// Command model: single, fenced, barriered, list and large transfers all
/// issue through one private routine, one MFC command at a time. Each
/// command is charged there once: the rejection retry (with doubling
/// backoff), the issue cost, the queue-full stall, the channel schedule,
/// the inter-domain premium and the delayed-completion draw.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_SIM_DMAENGINE_H
#define OMM_SIM_DMAENGINE_H

#include "sim/Address.h"
#include "sim/DmaObserver.h"
#include "sim/MachineConfig.h"

#include <cstdint>
#include <vector>

namespace omm::sim {

class CycleClock;
class FaultInjector;
class LocalStore;
class MainMemory;
struct PerfCounters;

/// The per-accelerator DMA engine (MFC).
class DmaEngine {
public:
  DmaEngine(unsigned AccelId, const MachineConfig &Config, MainMemory &Main,
            LocalStore &Store, CycleClock &Clock, PerfCounters &Counters);

  /// Enqueues a main-memory -> local-store transfer on \p Tag.
  /// Non-blocking apart from queue-full stalls. Alignment and size rules
  /// are enforced (fatal on violation, as on real hardware).
  void get(LocalAddr Dst, GlobalAddr Src, uint32_t Size, unsigned Tag);

  /// Enqueues a local-store -> main-memory transfer on \p Tag.
  void put(GlobalAddr Dst, LocalAddr Src, uint32_t Size, unsigned Tag);

  /// As get, but ordered after all earlier transfers with the same tag
  /// (an MFC fence: mfc_getf).
  void getFenced(LocalAddr Dst, GlobalAddr Src, uint32_t Size, unsigned Tag);

  /// As get, but ordered after *every* earlier transfer on this engine
  /// regardless of tag (an MFC barrier: mfc_getb).
  void getBarrier(LocalAddr Dst, GlobalAddr Src, uint32_t Size,
                  unsigned Tag);

  /// Blocks the accelerator until all transfers with tag \p Tag complete.
  void waitTag(unsigned Tag);

  /// Blocks until all transfers whose tag bit is set in \p TagMask
  /// complete (mfc_write_tag_mask / mfc_read_tag_status_all).
  void waitTagMask(uint32_t TagMask);

  /// Blocks until every outstanding transfer completes.
  void waitAll();

  /// \returns the number of transfers issued but not yet waited for.
  unsigned pendingTransfers() const {
    return static_cast<unsigned>(Pending.size());
  }

  /// \returns the completion cycle of the latest pending transfer on
  /// \p Tag, or 0 if none.
  uint64_t lastCompletionForTag(unsigned Tag) const;

  /// Splits an arbitrarily large, 16-byte-aligned transfer into legal
  /// MFC-sized chunks on one tag.
  void getLarge(LocalAddr Dst, GlobalAddr Src, uint64_t Size, unsigned Tag);
  void putLarge(GlobalAddr Dst, LocalAddr Src, uint64_t Size, unsigned Tag);

  /// One element of a scatter/gather DMA list (the MFC's getl/putl).
  struct ListElement {
    LocalAddr Local;
    GlobalAddr Global;
    uint32_t Size;
  };

  /// List-form transfers: the whole list is one MFC command — a single
  /// startup latency and one queue slot cover every element, with the
  /// data phases serialising as usual. This is how production Cell code
  /// gathers many small, scattered records (e.g. the entities of many
  /// collision pairs) without paying a latency per record.
  ///
  /// Accounting asymmetry: PerfCounters bills the list as one command
  /// (one DmaGetsIssued or DmaPutsIssued), but the observer sees one
  /// onIssue record per element, since each element is its own memory
  /// range for the race checker and the trace. A consumer that equates
  /// observed issues with counted transfers must not see list traffic.
  void getList(const ListElement *Elements, unsigned Count, unsigned Tag);
  void putList(const ListElement *Elements, unsigned Count, unsigned Tag);

  void setObserver(DmaObserver *Obs) { Observer = Obs; }

  /// Attaches the machine's fault injector, which may transiently reject
  /// commands (retried here with backoff) and push individual transfer
  /// completions out. Null (the default) costs one test per command.
  void setFaultInjector(FaultInjector *FI) { Injector = FI; }

private:
  enum class Ordering { None, Fence, Barrier };
  /// The one MFC command path: every public get/put form issues through
  /// here as a list of \p Count elements (one for a plain transfer).
  void issue(DmaDir Dir, const ListElement *Elements, unsigned Count,
             unsigned Tag, Ordering Order);
  /// Splits a large transfer into legal single-element commands.
  void issueLarge(DmaDir Dir, LocalAddr Local, GlobalAddr Global,
                  uint64_t Size, unsigned Tag);
  void validate(LocalAddr Local, GlobalAddr Global, uint32_t Size,
                unsigned Tag) const;
  uint64_t maxCompletionAll() const;
  uint64_t injectTransferDelay(uint64_t IssuedAt);

  unsigned AccelId;
  const MachineConfig &Config;
  MainMemory &Main;
  LocalStore &Store;
  CycleClock &Clock;
  PerfCounters &Counters;
  DmaObserver *Observer = nullptr;
  FaultInjector *Injector = nullptr;

  std::vector<DmaTransfer> Pending;
  uint64_t ChannelFreeAt = 0;
  uint64_t NextId = 1;
};

} // namespace omm::sim

#endif // OMM_SIM_DMAENGINE_H
