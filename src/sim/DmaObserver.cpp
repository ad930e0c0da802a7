//===- sim/DmaObserver.cpp - Hooks for DMA traffic analysis ---------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "sim/DmaObserver.h"

#include "support/Diag.h"

#include <algorithm>
#include <cassert>
#include <iterator>

using namespace omm;
using namespace omm::sim;

DmaObserver::~DmaObserver() = default;

const char *sim::faultKindName(FaultKind Kind) {
  static constexpr const char *Names[] = {
#define OMM_FAULT_KIND(Name, Label) Label,
#include "sim/FaultKinds.def"
  };
  assert(static_cast<unsigned>(Kind) < NumFaultKinds && "unknown fault kind");
  return Names[static_cast<unsigned>(Kind)];
}

namespace {

struct DispatchEventInfo {
  const char *Name;
  bool OnHost;
};

constexpr DispatchEventInfo DispatchEventTable[] = {
#define OMM_DISPATCH_EVENT(Name, Label, OnHost) {Label, OnHost},
#include "sim/DispatchEventKinds.def"
};

const DispatchEventInfo &info(DispatchEventKind Kind) {
  assert(static_cast<size_t>(Kind) < std::size(DispatchEventTable) &&
         "unknown dispatch event kind");
  return DispatchEventTable[static_cast<size_t>(Kind)];
}

} // namespace

const char *sim::dispatchEventKindName(DispatchEventKind Kind) {
  return info(Kind).Name;
}

bool sim::isHostSideDispatch(DispatchEventKind Kind) {
  return info(Kind).OnHost;
}

void ObserverMux::add(DmaObserver *Obs) {
  if (!Obs)
    reportFatalError("observer: attaching a null observer");
  if (std::find(Observers.begin(), Observers.end(), Obs) != Observers.end())
    reportFatalError("observer: attaching an already-attached observer");
  Observers.push_back(Obs);
}

void ObserverMux::remove(DmaObserver *Obs) {
  Observers.erase(std::remove(Observers.begin(), Observers.end(), Obs),
                  Observers.end());
}

void ObserverMux::onIssue(const DmaTransfer &Transfer) {
  for (DmaObserver *Obs : Observers)
    Obs->onIssue(Transfer);
}

void ObserverMux::onWait(unsigned AccelId, uint32_t TagMask,
                         uint64_t StartCycle, uint64_t EndCycle) {
  for (DmaObserver *Obs : Observers)
    Obs->onWait(AccelId, TagMask, StartCycle, EndCycle);
}

void ObserverMux::onLocalAccess(unsigned AccelId, LocalAddr Addr,
                                uint32_t Size, bool IsWrite, uint64_t Cycle) {
  for (DmaObserver *Obs : Observers)
    Obs->onLocalAccess(AccelId, Addr, Size, IsWrite, Cycle);
}

void ObserverMux::onHostAccess(GlobalAddr Addr, uint64_t Size, bool IsWrite,
                               uint64_t Cycle) {
  for (DmaObserver *Obs : Observers)
    Obs->onHostAccess(Addr, Size, IsWrite, Cycle);
}

void ObserverMux::onBlockBegin(unsigned AccelId, uint64_t BlockId,
                               uint64_t LaunchCycle) {
  for (DmaObserver *Obs : Observers)
    Obs->onBlockBegin(AccelId, BlockId, LaunchCycle);
}

void ObserverMux::onBlockEnd(unsigned AccelId, uint64_t BlockId,
                             uint64_t Cycle) {
  for (DmaObserver *Obs : Observers)
    Obs->onBlockEnd(AccelId, BlockId, Cycle);
}

void ObserverMux::onFault(const FaultEvent &Event) {
  for (DmaObserver *Obs : Observers)
    Obs->onFault(Event);
}

void ObserverMux::onDispatchEvent(const DispatchEvent &Event) {
  for (DmaObserver *Obs : Observers)
    Obs->onDispatchEvent(Event);
}
