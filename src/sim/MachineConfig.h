//===- sim/MachineConfig.h - Simulated machine parameters ------*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// All architectural knobs of the simulated machine in one aggregate, with
/// presets for the two memory architectures the paper contrasts: a Cell
/// BE-like machine (host + accelerators with private 256 KB local stores
/// and MFC DMA) and a traditional shared-memory machine (the "targets with
/// traditional memory architectures" of Section 4.1). Experiments E1-E8
/// sweep these fields; absolute values are calibrated to the published
/// Cell BE figures (high-latency DMA, ~25 GB/s at 3.2 GHz = 8 bytes/cycle).
///
//===----------------------------------------------------------------------===//

#ifndef OMM_SIM_MACHINECONFIG_H
#define OMM_SIM_MACHINECONFIG_H

#include <cstdint>

namespace omm::sim {

/// Knobs of the seeded fault-injection subsystem (FaultInjector.h).
/// Disabled by default; a disabled injector is never constructed, so the
/// fault-free machine pays nothing (the ObserverMux null-fast-path
/// discipline). All rates are per-event probabilities in [0, 1] drawn
/// from per-accelerator SplitMix64 streams, so a given (Seed, rates)
/// pair replays the exact same fault schedule cycle for cycle.
struct FaultInjectionConfig {
  /// Master switch; when false the machine owns no injector at all.
  bool Enabled = false;

  /// Seed of the deterministic fault schedule.
  uint64_t Seed = 0;

  /// Probability that an accelerator dies starting an offload launch
  /// (it burns up to KillWastedCyclesMax cycles, then is lost for the
  /// rest of the simulation).
  float AccelDeathRate = 0.0f;

  /// Probability that the MFC transiently rejects a DMA command. Drawn
  /// once per command (a list is one command, a large transfer one per
  /// MFC-sized piece); the DMA engine retries with bounded backoff
  /// (never fatal).
  float DmaFailRate = 0.0f;

  /// Probability that one transfer's completion is pushed out by
  /// DmaDelayCycles (a congested or degraded link).
  float DmaDelayRate = 0.0f;

  /// Probability that a resident worker wedges forever on a popped
  /// mailbox descriptor (the kernel hang the watchdog exists for).
  /// Launches are fail-stop and never hang. A hang with no armed chunk
  /// deadline is a fatal configuration error: nothing else can ever
  /// complete the work.
  float HangRate = 0.0f;

  /// Probability that one popped mailbox descriptor runs slow by a
  /// cycle-cost multiplier drawn uniformly from [StragglerSlowdownMin,
  /// StragglerSlowdownMax] (thermal throttling, contended links — the
  /// tail-latency straggler, not a fail-stop fault).
  float StragglerRate = 0.0f;

  /// Inclusive range of the straggler slowdown multiplier.
  float StragglerSlowdownMin = 2.0f;
  float StragglerSlowdownMax = 8.0f;

  /// Extra completion latency of one delayed transfer, in cycles.
  uint64_t DmaDelayCycles = 400;

  /// Consecutive rejections of one accelerator's DMA commands are
  /// capped here, bounding the DMA engine's retry loop by construction.
  unsigned MaxDmaRetries = 6;

  /// Initial retry backoff after a rejected DMA command; doubles per
  /// consecutive rejection.
  uint64_t DmaRetryBackoffCycles = 64;

  /// Host cycles between a faulted launch and the host observing the
  /// failure (the runtime watchdog's round trip).
  uint64_t FaultDetectCycles = 400;

  /// A dying accelerator wastes a uniform [0, max] cycles of work
  /// before the fault detector declares it lost.
  uint64_t KillWastedCyclesMax = 2000;
};

/// What the resident runtime does when the watchdog flags a mailbox
/// descriptor past its chunk deadline. All policies keep results
/// bit-identical: a body is never executed twice, so recovery only
/// re-times completed work.
enum class DeadlinePolicy : uint8_t {
  /// Detect and count only; the straggler runs to its slowed finish.
  None,
  /// Cancel the straggler at the deadline, then re-dispatch its
  /// descriptor (full re-run cost) on another worker or the host.
  CancelRestart,
  /// Launch a backup copy while the straggler keeps running; first
  /// completion wins and the loser is cancelled.
  Speculate,
};

/// How a resident worker whose mailbox runs dry rebalances work
/// (offload/ResidentWorker.h). With anything but None, distributeJobs
/// and parallelForRange degrade the host to bulk initial placement (one
/// doorbell per worker per region) and idle workers steal half a loaded
/// victim's backlog tail through a cycle-costed handshake. runDataflow
/// ignores the policy: its regions never steal.
enum class StealPolicy : uint8_t {
  /// No stealing; the host paces every descriptor.
  None,
  /// Victims picked by a seeded deterministic rotation only.
  Rotation,
  /// Seeded rotation biased toward victims whose backlog tail is
  /// range-adjacent to the thief's last executed chunk, so stolen
  /// chunks keep software-cache locality.
  LocalityAware,
  /// Hierarchical: same-domain victims are always preferred over
  /// remote-domain ones (the thief escalates across the interconnect
  /// only when its own domain is dry); within a tier the LocalityAware
  /// range-adjacency bias applies. On a flat machine
  /// (AcceleratorsPerDomain == 0) every victim is same-domain, so this
  /// degenerates to LocalityAware exactly.
  DomainAware,
};

/// Architectural parameters of the simulated heterogeneous machine.
struct MachineConfig {
  /// Number of accelerator (SPE-like) cores. A PS3 game has 6 usable SPEs.
  unsigned NumAccelerators = 6;

  /// Bytes of private scratch-pad per accelerator (Cell SPE: 256 KB).
  uint32_t LocalStoreSize = 256 * 1024;

  /// Bytes of main (outer/host) memory.
  uint64_t MainMemorySize = 64ull << 20;

  /// Required alignment, in bytes, for DMA transfers of AlignedSize or
  /// more. Smaller transfers must have a size in {1,2,4,8} and be
  /// naturally aligned (the Cell MFC rule).
  uint32_t DmaAlignment = 16;

  /// Largest single DMA transfer (Cell MFC: 16 KB). Larger requests must
  /// be split by the caller (the offload runtime does this).
  uint32_t MaxDmaTransferSize = 16 * 1024;

  /// Number of DMA tag groups per accelerator (Cell MFC: 32).
  unsigned NumDmaTags = 32;

  /// Maximum in-flight transfers per accelerator DMA queue (Cell: 16).
  /// Issuing beyond this stalls the issuing core until a slot frees.
  unsigned DmaQueueDepth = 16;

  /// Cycles the issuing core spends enqueueing one MFC command (the
  /// SPE writes ~5 channel registers per request). Charged per command:
  /// a DMA *list* pays it once for all its elements, which is the list
  /// form's advantage over issuing elements individually.
  uint64_t DmaIssueCycles = 16;

  /// Fixed startup latency of one DMA transfer, in cycles. Latencies of
  /// independent transfers overlap (they pipeline through the MFC).
  uint64_t DmaLatencyCycles = 200;

  /// DMA bandwidth; the data phases of transfers on one engine serialise.
  uint64_t DmaBytesPerCycle = 8;

  /// Cost of an accelerator load/store to its own local store.
  uint64_t LocalAccessCycles = 1;

  /// Cost charged to the host per aligned word touched in main memory
  /// (amortised cache behaviour of the PPE-like host).
  uint64_t HostAccessCycles = 4;

  /// Granularity (bytes) at which HostAccessCycles is charged.
  uint32_t HostAccessGranularity = 8;

  /// Cycles between the host requesting an offload block and the
  /// accelerator starting it (thread launch plus amortised code upload).
  uint64_t OffloadLaunchCycles = 1000;

  /// Host-side cycles consumed issuing an offload launch.
  uint64_t HostLaunchCycles = 200;

  /// Host cycles to ring a resident worker's doorbell when dispatching
  /// one work descriptor (an uncached store plus the barrier that makes
  /// the descriptor visible) — the persistent-worker runtime's cheap
  /// alternative to paying HostLaunchCycles per chunk.
  uint64_t MailboxDoorbellCycles = 40;

  /// Accelerator cycles to fetch one work descriptor from the worker's
  /// mailbox in main memory (the atomic pop's DMA round trip).
  uint64_t MailboxDescriptorCycles = 200;

  /// Poll-loop backoff quantum: a resident worker waiting on an empty
  /// mailbox re-checks its doorbell every this many cycles, so wake-ups
  /// are quantized to it.
  uint64_t MailboxIdlePollCycles = 16;

  /// Descriptor capacity of one resident worker's mailbox.
  unsigned MailboxDepth = 8;

  /// Period of the watchdog's deadline sweep: an overdue descriptor is
  /// detected at the next absolute multiple of this, not at the
  /// deadline itself (the watchdog is a polling device).
  uint64_t WatchdogCheckCycles = 200;

  /// Deadline, in cycles from descriptor pop, for one mailbox work
  /// descriptor. 0 disarms chunk deadlines.
  uint64_t ChunkDeadlineCycles = 0;

  /// Workers observe a cancel request only at chunk boundaries; the
  /// observation is quantized to absolute multiples of this.
  uint64_t CancelPollCycles = 64;

  /// Recovery policy for deadline misses (watchdog must be armed).
  DeadlinePolicy DeadlineRecovery = DeadlinePolicy::None;

  /// Accelerator-side work stealing between the resident workers of
  /// distributeJobs and parallelForRange regions (runDataflow ignores
  /// it). None, the default, keeps every descriptor host-paced.
  StealPolicy WorkStealing = StealPolicy::None;

  /// Thief-side cycles per steal attempt: reading the candidate
  /// victims' mailbox headers (queue counts) from main memory. Charged
  /// whether or not a victim is found.
  uint64_t StealProbeCycles = 60;

  /// Thief-side cycles for the steal handshake itself: the atomic
  /// claim (compare-and-swap on the victim's queue header) that makes
  /// the transfer exactly-once. Charged only on a successful steal, on
  /// top of the single list-form descriptor fetch
  /// (MailboxDescriptorCycles covers the whole stolen list — the
  /// getList advantage).
  uint64_t StealGrantCycles = 120;

  /// A victim must hold at least this many pending descriptors to be
  /// robbed (the thief takes floor(size/2) from the tail, so 2 is the
  /// useful minimum and the default).
  unsigned StealMinBacklog = 2;

  /// DomainAware only: a *remote-domain* victim must hold at least this
  /// many pending descriptors — the gather pays the fixed
  /// InterDomainDescriptorDmaCycles premium once however much it moves,
  /// so escalating across the interconnect is only worth a deep
  /// backlog. Clamped up to StealMinBacklog; same-domain victims and
  /// the other policies never consult it. Irrelevant on a flat machine
  /// (no victim is ever remote), which keeps DomainAware's flat-machine
  /// degeneration to LocalityAware exact.
  unsigned StealRemoteMinBacklog = 4;

  /// Seed of the deterministic victim-rotation stream. Independent of
  /// FaultInjectionConfig::Seed so fault schedules and steal schedules
  /// replay independently.
  uint64_t StealSeed = 0x57EA15EEDull;

  /// With stealing enabled, parallelForRange splits each worker's
  /// static slice into this many sub-descriptors (bulk-placed with one
  /// doorbell) so a straggling worker's tail is actually stealable.
  /// Ignored — the split stays one slice per worker — when
  /// WorkStealing is None.
  unsigned StealSliceChunks = 4;

  /// Accelerators per domain (cluster/NUMA node). 0 — the default —
  /// keeps the flat machine: one interconnect, every accelerator in
  /// domain 0 with the host and main memory, all inter-domain premiums
  /// structurally unreachable, schedules bit-identical to the pre-domain
  /// runtime. N > 0 groups accelerators [0,N) into domain 0, [N,2N)
  /// into domain 1, and so on (the last domain may be short). The host
  /// and main memory always live in domain 0, so a config whose single
  /// domain holds every accelerator is also bit-identical to flat.
  unsigned AcceleratorsPerDomain = 0;

  /// Extra fixed latency on every DMA transfer that crosses a domain
  /// boundary (an accelerator outside domain 0 reaching main memory):
  /// the inter-domain hop of the interconnect.
  uint64_t InterDomainDmaLatencyCycles = 0;

  /// Extra cycles on a doorbell ring that crosses a domain boundary
  /// (host -> remote-domain worker, or a parcel spawner ringing a peer
  /// in another domain).
  uint64_t InterDomainDoorbellCycles = 0;

  /// Extra cycles on a descriptor-sized payload crossing a domain
  /// boundary: a cross-domain parcel's store-to-store copy, or the
  /// list-form gather of a steal whose thief and victim sit in
  /// different domains.
  uint64_t InterDomainDescriptorDmaCycles = 0;

  /// Spawner-side cycles to ring a *peer* worker's doorbell when
  /// spawning a continuation parcel (the uncached store into the peer's
  /// doorbell line plus the visibility barrier). Cheaper than a steal
  /// probe+grant — the spawner already owns the work, so there is no
  /// claim handshake — but dearer than the host's MailboxDoorbellCycles
  /// because the store crosses the accelerator interconnect.
  uint64_t PeerDoorbellCycles = 60;

  /// Spawner-side cycles to copy one continuation descriptor from the
  /// spawner's local store into the recipient's (a small
  /// store-to-store DMA; same order as MailboxDescriptorCycles, which
  /// is the equivalent main-memory round trip).
  uint64_t PeerDescriptorDmaCycles = 200;

  /// Must be 0: the simulator runs on one host thread, and Machine's
  /// constructor rejects any other value. The field survives only
  /// because benchmark/omm_bench.cpp assigns it; delete it together
  /// with that line.
  unsigned HostThreads = 0;

  /// Deterministic fault injection (off by default).
  FaultInjectionConfig Faults;

  /// A Cell BE-like configuration (the paper's PlayStation 3 target).
  static MachineConfig cellLike() { return MachineConfig(); }

  /// The paper's XBox 360-like contrast target, approximated by cost
  /// alone: the Cell-like machine with cheap DMA (latency 0 cycles,
  /// 64 B/cycle). Accelerators still move data through DMA into their
  /// local stores; only the transfer cost changes.
  static MachineConfig sharedMemoryLike() {
    MachineConfig Config;
    Config.DmaLatencyCycles = 0;
    Config.DmaBytesPerCycle = 64;
    return Config;
  }

  /// Domain of accelerator \p AccelId. Pure arithmetic over the config
  /// so cost paths that hold no Machine reference (DmaEngine, Mailbox)
  /// can evaluate it. The host and main memory are always in domain 0.
  unsigned domainOf(unsigned AccelId) const {
    return AcceleratorsPerDomain == 0 ? 0 : AccelId / AcceleratorsPerDomain;
  }

  /// Number of domains the configured accelerators span (>= 1).
  unsigned numDomains() const {
    if (AcceleratorsPerDomain == 0 || NumAccelerators == 0)
      return 1;
    return (NumAccelerators + AcceleratorsPerDomain - 1) /
           AcceleratorsPerDomain;
  }

  /// \returns true when accelerators \p A and \p B share a domain.
  bool sameDomain(unsigned A, unsigned B) const {
    return domainOf(A) == domainOf(B);
  }

  /// Extra latency of one DMA transfer between accelerator \p AccelId
  /// and main memory (which lives in domain 0). Zero on a flat machine.
  uint64_t interDomainDmaPremium(unsigned AccelId) const {
    return domainOf(AccelId) == 0 ? 0 : InterDomainDmaLatencyCycles;
  }

  /// Host-side cost of ringing accelerator \p AccelId's doorbell,
  /// inter-domain premium included (the host is in domain 0).
  uint64_t hostDoorbellCycles(unsigned AccelId) const {
    return MailboxDoorbellCycles +
           (domainOf(AccelId) == 0 ? 0 : InterDomainDoorbellCycles);
  }

  /// Spawner-side cost of delivering one continuation parcel from
  /// \p Spawner to \p Recipient: peer doorbell plus the store-to-store
  /// descriptor copy, each with its premium when the parcel crosses a
  /// domain boundary (what Mailbox::pushParcel charges).
  uint64_t parcelSendCycles(unsigned Spawner, unsigned Recipient) const {
    uint64_t Cost = PeerDoorbellCycles + PeerDescriptorDmaCycles;
    if (!sameDomain(Spawner, Recipient))
      Cost += InterDomainDoorbellCycles + InterDomainDescriptorDmaCycles;
    return Cost;
  }

  /// Thief-side cost of a granted steal from \p Victim: the claim
  /// handshake plus the single list-form gather of the stolen tail,
  /// which pays the descriptor premium when it crosses domains.
  uint64_t stealTransferCycles(unsigned Thief, unsigned Victim) const {
    uint64_t Cost = StealGrantCycles + MailboxDescriptorCycles;
    if (!sameDomain(Thief, Victim))
      Cost += InterDomainDescriptorDmaCycles;
    return Cost;
  }

  /// \returns true if \p Size is a legal DMA transfer size.
  bool isLegalDmaSize(uint64_t Size) const {
    if (Size == 0 || Size > MaxDmaTransferSize)
      return false;
    if (Size < DmaAlignment)
      return Size == 1 || Size == 2 || Size == 4 || Size == 8;
    return Size % DmaAlignment == 0;
  }
};

} // namespace omm::sim

#endif // OMM_SIM_MACHINECONFIG_H
