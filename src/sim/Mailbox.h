//===- sim/Mailbox.h - Per-accelerator work-descriptor mailbox -*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dispatch channel of a persistent (resident) offload worker: a
/// bounded SPSC mailbox in main memory, one per accelerator per parallel
/// region. The host rings a doorbell to publish a work descriptor; the
/// worker sits in a poll loop on its end and fetches descriptors with a
/// small DMA instead of being relaunched per chunk. This is how N chunks
/// come to cost one OffloadLaunchCycles launch plus N cheap mailbox
/// transactions (cf. FastFlow-style self-offloading queues and the
/// resident job loops production Cell engines used).
///
/// The cost model has three knobs (MachineConfig):
///   - MailboxDoorbellCycles:   host side, per push (an uncached store
///     plus the barrier that makes the descriptor visible);
///   - MailboxDescriptorCycles: worker side, per pop (the atomic
///     descriptor fetch's DMA round trip to main memory);
///   - MailboxIdlePollCycles:   the poll-loop backoff quantum — a worker
///     that arrives before the doorbell has rung spins in units of this,
///     so its wake-up time is quantized like a real poll loop's.
///
/// Like every sim device the mailbox is deterministic: push stamps the
/// descriptor with the host clock, pop resolves the worker's wait
/// against that stamp, and all costs are fixed by configuration. The
/// death path (drain) gives the pending descriptors back untouched so
/// the offload runtime can re-queue them with their boundaries intact —
/// the recovery contract's bit-identity depends on that.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_SIM_MAILBOX_H
#define OMM_SIM_MAILBOX_H

#include "sim/DmaObserver.h"
#include "sim/MachineConfig.h"

#include <cstdint>
#include <deque>
#include <vector>

namespace omm::sim {

class Machine;

/// How a resident worker picks the recipient of a continuation parcel
/// it spawns (WorkDescriptor::Policy). None disables spawning entirely
/// and is the default, so plain host-seeded descriptors never grow
/// continuations.
enum class ParcelPolicy : uint8_t {
  None,        ///< No continuation; the descriptor ends its chain.
  Ring,        ///< Spawn to the next live worker in accelerator-id
               ///< order, wrapping (a static all-to-all ring).
  LeastLoaded, ///< Spawn to the live worker with the shortest backlog,
               ///< ties broken by the pool's deterministic
               ///< (clock, executed, id) order.
};

/// One chunk of work as it travels through a mailbox: a [Begin, End)
/// index range, a per-region monotonic sequence number, and — for
/// statically split ranges — the accelerator the split intended it for
/// (so the runtime can tell a failover execution from a planned one).
///
/// The trailing continuation fields are the parcel extension: Kernel
/// names which stage body to run (0 = the region's only body), and a
/// descriptor with NextKernel != 0 spawns a same-range continuation
/// parcel under Policy when its body completes. All three default to
/// the no-continuation state, so four-field brace-inits (and the whole
/// pre-parcel runtime) behave exactly as before.
struct WorkDescriptor {
  uint32_t Begin = 0;
  uint32_t End = 0;
  uint64_t Seq = 0;
  /// Accelerator the static split assigned this range to, or NoHome for
  /// dynamically scheduled work (which has no preferred core).
  unsigned Home = ~0u;
  /// Stage kernel id this descriptor runs (0 = the region's only body).
  uint16_t Kernel = 0;
  /// Stage kernel the continuation parcel will run, or 0 for none.
  uint16_t NextKernel = 0;
  /// Recipient-selection policy for the continuation parcel.
  ParcelPolicy Policy = ParcelPolicy::None;

  static constexpr unsigned NoHome = ~0u;

  /// True when completing this descriptor spawns a continuation.
  bool hasContinuation() const {
    return NextKernel != 0 && Policy != ParcelPolicy::None;
  }
};

/// Bounded SPSC work-descriptor mailbox between the host and one
/// resident worker. Owned by the offload runtime's worker pool for the
/// lifetime of one parallel region (the worker's offload block).
class Mailbox {
public:
  Mailbox(Machine &M, unsigned AccelId, uint64_t BlockId);

  Mailbox(const Mailbox &) = delete;
  Mailbox &operator=(const Mailbox &) = delete;

  /// Host side: publishes \p Desc and rings the doorbell, charging
  /// MailboxDoorbellCycles to the host clock. The descriptor becomes
  /// visible to the worker at the host cycle the doorbell write lands.
  /// \returns false (and charges nothing) when the mailbox is full.
  bool push(const WorkDescriptor &Desc);

  /// Host side, bulk initial placement: publishes the whole region
  /// slice \p Descs with a single doorbell (one MailboxDoorbellCycles
  /// charge for the lot — the stealing runtime's host-side saving).
  /// The descriptors ride one list-form DMA into the worker's
  /// local-store deque, so this mailbox leaves the bounded-FIFO regime:
  /// the backlog may exceed MailboxDepth from here on (full() stays
  /// false) and is bounded by the region size instead.
  void pushBulk(const std::vector<WorkDescriptor> &Descs);

  /// Worker side, worker-to-worker parcel delivery: accelerator
  /// \p SpawnerAccelId publishes \p Desc straight into this mailbox,
  /// paying PeerDoorbellCycles (the uncached store + barrier into the
  /// peer's doorbell line) plus PeerDescriptorDmaCycles (the
  /// local-store-to-local-store descriptor copy) on its *own* clock —
  /// the host is never involved. The parcel lands in the recipient's
  /// local-store deque (like a stolen descriptor), so its later pop
  /// skips the fetch DMA and the bounded-FIFO depth does not apply:
  /// spawning can never hit the fatal-full host path.
  void pushParcel(const WorkDescriptor &Desc, unsigned SpawnerAccelId,
                  uint64_t SpawnerBlockId);

  /// Worker side, the steal handshake: \p Thief's accelerator claims
  /// the newest floor(size/2) descriptors of this backlog (order
  /// preserved) and gathers them into its own local-store deque with a
  /// single getList scatter/gather DMA. Charges the thief
  /// StealGrantCycles (the atomic claim on this queue's header) plus
  /// one MailboxDescriptorCycles (the list fetch covers every stolen
  /// element — the list form's advantage); the victim is undisturbed.
  /// Stolen descriptors are already local, so the thief's later pops
  /// of them skip the descriptor-fetch DMA. The caller picks a victim
  /// with at least two pending descriptors (the backlog threshold is
  /// the victim choice's business); fewer is fatal. \returns how many
  /// descriptors moved.
  unsigned stealTailInto(Mailbox &Thief);

  /// Begin index of the newest pending descriptor (the locality key a
  /// thief scores victims by). Mailbox must not be empty.
  uint32_t tailBegin() const;

  /// Worker side: fetches the oldest descriptor. A worker that arrives
  /// before the doorbell rang spins in MailboxIdlePollCycles quanta
  /// until the descriptor is visible, then pays the descriptor DMA
  /// (MailboxDescriptorCycles). Popping an empty mailbox is a runtime
  /// bug and is fatal.
  WorkDescriptor pop();

  /// Death path: returns every pending descriptor, oldest first, so the
  /// runtime can re-queue them. Charges no cycles — the survivors pay
  /// the re-dispatch, exactly like a re-queued chunk.
  std::vector<WorkDescriptor> drain();

  bool empty() const { return Slots.empty(); }
  bool full() const {
    return !LocalBacklog && Slots.size() >= MachineConfig::MailboxDepth;
  }
  unsigned size() const { return static_cast<unsigned>(Slots.size()); }
  unsigned capacity() const { return MachineConfig::MailboxDepth; }
  unsigned accelId() const { return AccelId; }
  uint64_t blockId() const { return BlockId; }

private:
  struct Slot {
    WorkDescriptor Desc;
    /// Host cycle at which the doorbell write made Desc visible (worker
    /// cycle for stolen/parcel slots: when the transfer landed).
    uint64_t ReadyAt = 0;
    /// True when the descriptor already sits in the worker's local
    /// store (it arrived via a steal's list-form gather or a peer
    /// parcel DMA), so pop skips the per-descriptor fetch DMA.
    bool InLocalStore = false;
  };

  Machine &M;
  unsigned AccelId;
  uint64_t BlockId;
  /// Set by pushBulk: the backlog lives in the worker's local-store
  /// deque and is no longer bounded by MailboxDepth.
  bool LocalBacklog = false;
  std::deque<Slot> Slots;
};

} // namespace omm::sim

#endif // OMM_SIM_MAILBOX_H
