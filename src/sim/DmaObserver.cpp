//===- sim/DmaObserver.cpp - Hooks for DMA traffic analysis ---------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "sim/DmaObserver.h"

#include "support/Diag.h"

#include <algorithm>

using namespace omm;
using namespace omm::sim;

DmaObserver::~DmaObserver() = default;

const char *sim::faultKindName(FaultKind Kind) {
  switch (Kind) {
  case FaultKind::AcceleratorDeath:
    return "accelerator_death";
  case FaultKind::LaunchOnDeadAccelerator:
    return "launch_on_dead_accelerator";
  case FaultKind::NoAcceleratorAvailable:
    return "no_accelerator_available";
  case FaultKind::DmaCommandRejected:
    return "dma_command_rejected";
  case FaultKind::DmaCompletionDelayed:
    return "dma_completion_delayed";
  case FaultKind::ChunkRequeued:
    return "chunk_requeued";
  case FaultKind::HostFallback:
    return "host_fallback";
  case FaultKind::KernelHang:
    return "kernel_hang";
  case FaultKind::StragglerDetected:
    return "straggler_detected";
  case FaultKind::CancelIssued:
    return "cancel_issued";
  case FaultKind::SpeculativeRedispatch:
    return "speculative_redispatch";
  case FaultKind::FrameDeadlineMissed:
    return "frame_deadline_missed";
  case FaultKind::AcceleratorRecycled:
    return "accelerator_recycled";
  }
  return "unknown_fault";
}

const char *sim::dispatchEventKindName(DispatchEventKind Kind) {
  switch (Kind) {
  case DispatchEventKind::DoorbellWrite:
    return "doorbell_write";
  case DispatchEventKind::IdlePoll:
    return "idle_poll";
  case DispatchEventKind::DescriptorFetch:
    return "descriptor_fetch";
  case DispatchEventKind::MailboxDrained:
    return "mailbox_drained";
  case DispatchEventKind::BulkDoorbell:
    return "bulk_doorbell";
  case DispatchEventKind::StealProbe:
    return "steal_probe";
  case DispatchEventKind::StealTransfer:
    return "steal_transfer";
  case DispatchEventKind::DescriptorRun:
    return "descriptor_run";
  case DispatchEventKind::ParcelSpawn:
    return "parcel_spawn";
  case DispatchEventKind::ParcelDeliver:
    return "parcel_deliver";
  }
  return "unknown_dispatch_event";
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
