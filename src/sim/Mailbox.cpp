//===- sim/Mailbox.cpp - Per-accelerator work-descriptor mailbox ----------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "sim/Mailbox.h"

#include "sim/Machine.h"
#include "support/Diag.h"
#include "support/MathExtras.h"

#include <cstddef>

using namespace omm;
using namespace omm::sim;

Mailbox::Mailbox(Machine &M, unsigned AccelId, uint64_t BlockId)
    : M(M), AccelId(AccelId), BlockId(BlockId) {}

bool Mailbox::push(const WorkDescriptor &Desc) {
  if (full())
    return false;
  const MachineConfig &Cfg = M.config();
  uint64_t Doorbell = Cfg.hostDoorbellCycles(AccelId);
  M.hostClock().advance(Doorbell);
  M.hostCounters().DoorbellCycles += Doorbell;
  ++M.accel(AccelId).Counters.DescriptorsDispatched;
  Slot S;
  S.Desc = Desc;
  S.ReadyAt = M.hostClock().now();
  Slots.push_back(S);
  if (DmaObserver *Obs = M.observer())
    Obs->onDispatchEvent({DispatchEventKind::DoorbellWrite, AccelId, BlockId,
                    Desc.Seq, S.ReadyAt, Desc.Begin});
  return true;
}

void Mailbox::pushBulk(const std::vector<WorkDescriptor> &Descs) {
  if (Descs.empty())
    return;
  const MachineConfig &Cfg = M.config();
  LocalBacklog = true;
  // One doorbell covers the whole slice: the host writes a (base,
  // count) pair and the worker gathers the descriptors itself. One
  // inter-domain hop likewise covers the whole bulk.
  uint64_t Doorbell = Cfg.hostDoorbellCycles(AccelId);
  M.hostClock().advance(Doorbell);
  M.hostCounters().DoorbellCycles += Doorbell;
  uint64_t ReadyAt = M.hostClock().now();
  for (const WorkDescriptor &Desc : Descs) {
    ++M.accel(AccelId).Counters.DescriptorsDispatched;
    Slots.push_back(Slot{Desc, ReadyAt, false});
  }
  if (DmaObserver *Obs = M.observer())
    Obs->onDispatchEvent({DispatchEventKind::BulkDoorbell, AccelId, BlockId,
                    Descs.front().Seq, ReadyAt, Descs.size()});
}

void Mailbox::pushParcel(const WorkDescriptor &Desc, unsigned SpawnerAccelId,
                         uint64_t SpawnerBlockId) {
  const MachineConfig &Cfg = M.config();
  Accelerator &Spawner = M.accel(SpawnerAccelId);
  // Both halves of the transaction are spawner-side: the doorbell store
  // into the peer's line and the descriptor's store-to-store copy (both
  // with their inter-domain premium when the parcel crosses a domain
  // boundary). The recipient pays nothing until its own pop.
  uint64_t Cost = Cfg.parcelSendCycles(SpawnerAccelId, AccelId);
  Spawner.Clock.advance(Cost);
  Spawner.Counters.PeerDoorbellCycles += Cost;
  ++Spawner.Counters.ParcelsSpawned;
  ++M.accel(AccelId).Counters.DescriptorsDispatched;
  uint64_t LandedAt = Spawner.Clock.now();
  // The parcel is already in the recipient's local store (the spawner's
  // DMA put it there), so the backlog leaves the bounded-FIFO regime
  // exactly like a bulk or stolen placement.
  LocalBacklog = true;
  Slots.push_back(Slot{Desc, LandedAt, true});
  if (DmaObserver *Obs = M.observer()) {
    Obs->onDispatchEvent({DispatchEventKind::ParcelSpawn, SpawnerAccelId,
                          SpawnerBlockId, Desc.Seq, LandedAt, AccelId,
                          Desc.Begin, Desc.End, 0});
    Obs->onDispatchEvent({DispatchEventKind::ParcelDeliver, AccelId, BlockId,
                          Desc.Seq, LandedAt, SpawnerAccelId, Desc.Begin,
                          Desc.End, 0});
  }
}

unsigned Mailbox::stealTailInto(Mailbox &Thief) {
  if (Slots.size() < 2)
    reportFatalError("mailbox: stealing from a backlog of fewer than two "
                     "descriptors");
  const MachineConfig &Cfg = M.config();
  Accelerator &ThiefAccel = M.accel(Thief.AccelId);
  unsigned Take = static_cast<unsigned>(Slots.size() / 2);
  // The claim is an atomic CAS on this queue's header followed by one
  // list-form gather of every claimed descriptor; both are thief-side
  // costs (the victim never notices until its next pop finds the
  // shorter queue). A cross-domain gather pays the descriptor premium
  // once for the whole list, like the fetch itself.
  uint64_t Cost = Cfg.stealTransferCycles(Thief.AccelId, AccelId);
  ThiefAccel.Clock.advance(Cost);
  ThiefAccel.Counters.StealCycles += Cost;
  ++ThiefAccel.Counters.StealsSucceeded;
  if (!M.sameDomain(Thief.AccelId, AccelId))
    ++ThiefAccel.Counters.StealsRemoteDomain;
  ThiefAccel.Counters.DescriptorsStolen += Take;
  uint64_t LandedAt = ThiefAccel.Clock.now();
  // Move the newest Take slots, preserving their relative order, into
  // the thief's local-store deque; they never travel back through main
  // memory, so the thief's pops of them skip the fetch DMA.
  Thief.LocalBacklog = true;
  size_t First = Slots.size() - Take;
  for (size_t I = First, E = Slots.size(); I != E; ++I)
    Thief.Slots.push_back(Slot{Slots[I].Desc, LandedAt, true});
  Slots.erase(Slots.begin() + static_cast<ptrdiff_t>(First), Slots.end());
  if (DmaObserver *Obs = M.observer())
    Obs->onDispatchEvent({DispatchEventKind::StealTransfer, Thief.AccelId,
                    Thief.BlockId, Take, LandedAt, AccelId});
  return Take;
}

uint32_t Mailbox::tailBegin() const {
  if (Slots.empty())
    reportFatalError("mailbox: tailBegin on an empty mailbox");
  return Slots.back().Desc.Begin;
}

WorkDescriptor Mailbox::pop() {
  if (Slots.empty())
    reportFatalError("mailbox: pop from an empty mailbox");
  const MachineConfig &Cfg = M.config();
  Accelerator &Accel = M.accel(AccelId);
  Slot S = Slots.front();
  Slots.pop_front();

  // The worker reached its poll loop before the doorbell write landed:
  // it re-checks once per backoff quantum, so it wakes at the first
  // poll at or after ReadyAt (never exactly on it unless aligned).
  uint64_t Now = Accel.Clock.now();
  if (Now < S.ReadyAt) {
    uint64_t Spin =
        roundUpToMultiple(S.ReadyAt - Now, Cfg.MailboxIdlePollCycles);
    Accel.Clock.advance(Spin);
    Accel.Counters.IdlePollCycles += Spin;
    if (DmaObserver *Obs = M.observer())
      Obs->onDispatchEvent({DispatchEventKind::IdlePoll, AccelId, BlockId,
                      S.Desc.Seq, Accel.Clock.now(), Spin});
  }

  // The descriptor itself rides a small DMA from main memory — unless
  // a steal's list-form gather already parked it in the local store.
  if (!S.InLocalStore)
    Accel.Clock.advance(Cfg.MailboxDescriptorCycles);
  if (DmaObserver *Obs = M.observer())
    Obs->onDispatchEvent({DispatchEventKind::DescriptorFetch, AccelId, BlockId,
                    S.Desc.Seq, Accel.Clock.now(), S.Desc.Begin});
  return S.Desc;
}

std::vector<WorkDescriptor> Mailbox::drain() {
  std::vector<WorkDescriptor> Pending;
  Pending.reserve(Slots.size());
  for (const Slot &S : Slots)
    Pending.push_back(S.Desc);
  Slots.clear();
  if (!Pending.empty())
    if (DmaObserver *Obs = M.observer())
      Obs->onDispatchEvent({DispatchEventKind::MailboxDrained, AccelId, BlockId,
                      Pending.size(), M.hostClock().now(),
                      Pending.front().Begin});
  return Pending;
}
