//===- server/TenantServer.h - Multi-tenant world serving ------*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Production scale means thousands of concurrent sessions, not one big
/// frame: the TenantServer multiplexes N independent GameWorld instances
/// over one simulated machine and its resident-worker pool. Every frame
/// dispatches over the whole machine; the server's two knobs are the
/// serving mode and the admission budget. Robustness comes in three
/// layers (DESIGN.md §13):
///
///   admission control — a per-tick cycle-budget ledger admits, defers
///   or (via each world's own FrameBudgetCycles ladder) sheds tenants
///   deterministically, with deferral aging so no tenant starves;
///
///   fault isolation — per-tenant chunk-deadline arming on top of the
///   machine watchdog, per-tenant PerfCounters attribution by snapshot
///   deltas, and supervisor-style recycling of every core wedged during
///   a slice (at a fixed host restart cost);
///
///   cross-tenant batching — same-stage AI work from every admitted
///   tenant coalesced into one shared dispatch over the concatenated
///   index space, so isolation does not forfeit the launch-amortisation
///   and stealing wins (ServeMode::Batched).
///
/// Determinism contract: at zero fault rate and TickBudgetCycles 0,
/// round-robin serving is bit-identical — per-tenant checksums, frame
/// cycles and counter deltas — to running the same worlds sequentially.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_SERVER_TENANTSERVER_H
#define OMM_SERVER_TENANTSERVER_H

#include "game/GameWorld.h"
#include "sim/Machine.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace omm::server {

/// One tenant: its world configuration plus the serving knobs that are
/// the server's business rather than the world's.
struct TenantParams {
  game::GameWorldParams World;
  /// Chunk deadline armed on the machine watchdog while this tenant's
  /// slice is served (RoundRobin) or folded into the shared minimum
  /// (Batched); 0 leaves the machine's own deadline in place. The
  /// check grid (MachineConfig::WatchdogCheckCycles) is a machine
  /// constant and never moves per tenant.
  uint64_t ChunkDeadlineCycles = 0;
};

/// How serveTick schedules admitted tenants onto the machine.
enum class ServeMode : uint8_t {
  /// One resident frame per tenant, in rotated admission order; the
  /// bit-identity mode (each slice re-baselines the worker clocks, so
  /// serving order cannot leak between tenants).
  RoundRobin,
  /// All admitted tenants' AI stages coalesced into one shared
  /// dispatch over the concatenated entity index space, then each
  /// tenant's frame finished in admission order. State-identical to
  /// RoundRobin; frame cycles differ — that is the amortisation win.
  Batched,
};

/// Server-wide policy knobs.
struct TenantServerParams {
  ServeMode Mode = ServeMode::RoundRobin;
  /// Admission ledger: estimated tenant frame cycles admitted per tick.
  /// 0 means unlimited (every tenant is admitted every tick — the
  /// determinism-contract configuration).
  uint64_t TickBudgetCycles = 0;
  /// Deferral aging: a tenant deferred this many consecutive ticks is
  /// force-admitted even over the ledger, so admission cannot starve
  /// the expensive tail of a heavy-tailed tenant population.
  static constexpr unsigned MaxDeferTicks = 4;
  /// Chunk width of the shared Batched dispatch.
  static constexpr uint32_t BatchChunkElems = 32;
};

/// Per-tenant serving record. FrameCycles holds every served frame's
/// cycle count for tail percentiles.
struct TenantStats {
  uint64_t FramesServed = 0;   ///< Frames run.
  uint64_t FramesDeferred = 0; ///< Ticks skipped by admission control.
  std::vector<uint64_t> FrameCycles;
  /// Machine counter deltas attributed to this tenant's slices
  /// (Counters.HangsDetected + StragglersDetected are its faults;
  /// Counters.DeadlineMissedFrames counts its frames over the world
  /// budget). In Batched mode the shared AI dispatch is collective and
  /// only each tenant's finish phase is attributed.
  sim::PerfCounters Counters;
};

/// What one serveTick did.
struct TickStats {
  unsigned Admitted = 0;
  unsigned Deferred = 0;
  uint64_t LedgerCycles = 0;   ///< Estimated cost of the admitted set.
  uint64_t TickCycles = 0;     ///< Host cycles the whole tick took.
  unsigned CoresRecycled = 0;
};

/// The multi-tenant server. Owns its worlds; the machine is shared.
class TenantServer {
public:
  TenantServer(sim::Machine &M, const TenantServerParams &Params);
  ~TenantServer();

  TenantServer(const TenantServer &) = delete;
  TenantServer &operator=(const TenantServer &) = delete;

  /// Registers a tenant (allocates its world on the machine).
  /// \returns the tenant id, dense from 0 in registration order.
  unsigned addTenant(const TenantParams &Params);

  unsigned numTenants() const {
    return static_cast<unsigned>(Tenants.size());
  }
  const TenantStats &stats(unsigned Tenant) const;
  uint64_t checksum(unsigned Tenant) const;

  /// Serves one tick: runs admission over all tenants, then one frame
  /// for each admitted tenant (per the mode).
  TickStats serveTick();

  /// Schedules the next classified timing event on \p AccelId to hang
  /// while \p Tenant's next slice is being served. Fatal unless the
  /// effective chunk deadline for that tenant arms the watchdog — an
  /// unarmed hang is unrecoverable by design (Offload.h fail-stop).
  void scheduleTenantHang(unsigned Tenant, unsigned AccelId);

  /// Schedules the next classified timing event on \p AccelId to run
  /// \p Slowdown times slower during \p Tenant's next slice.
  void scheduleTenantStraggler(unsigned Tenant, unsigned AccelId,
                               float Slowdown);

private:
  /// Slowdown <= 1 encodes a hang.
  struct PendingFault {
    unsigned AccelId;
    float Slowdown;
  };

  struct Tenant {
    TenantParams Params;
    std::unique_ptr<game::GameWorld> World;
    TenantStats Stats;
    unsigned DeferStreak = 0;
    /// Ledger cost estimate: last observed frame cycles (seeded from
    /// the entity count before the first frame).
    uint64_t CostEstimate = 0;
    std::vector<PendingFault> Pending;
  };

  Tenant &tenant(unsigned Id);
  void applyPendingFaults(Tenant &T);
  void recordFrame(Tenant &T, const game::FrameStats &Frame,
                   const sim::PerfCounters &Before);
  void serveRoundRobin(const std::vector<unsigned> &Admitted,
                       TickStats &TS);
  void serveBatched(const std::vector<unsigned> &Admitted, TickStats &TS);
  /// Revives every accelerator found dead after a slice (the supervisor
  /// restarting a wedged worker process), so one tenant's hang costs
  /// the pool a slice, not a core for the rest of the run. \returns how
  /// many it revived.
  unsigned recycleDeadCores();

  sim::Machine &M;
  TenantServerParams Params;
  std::vector<Tenant> Tenants;
  uint64_t Tick = 0;
  /// The machine config's own chunk deadline, restored after every
  /// tenant-armed slice.
  uint64_t BaseChunkDeadline;
};

/// A deterministic heavy-tailed tenant population: entity counts are
/// BaseEntities scaled by 1/2/4/8/16x with probabilities 50/25/15/7/3%
/// (integer thresholds on a SplitMix64 stream — no float math), each
/// world seeded independently from \p Seed.
std::vector<TenantParams> makeHeavyTailedTenants(
    unsigned Count, uint64_t Seed, uint32_t BaseEntities,
    uint64_t ChunkDeadlineCycles = 0);

/// \returns the \p Pct-th percentile of \p Samples, or 0 when empty:
/// the sorted value at 1-based rank Pct/100 * size, rounded half-up and
/// clamped to [1, size]. This is not nearest-rank, which rounds the rank
/// up (bench/BenchUtil.h's cyclePercentile): p99 of 60 samples is the
/// 59th value here, the 60th under nearest-rank. Takes the samples by
/// value to sort them.
uint64_t percentileCycles(std::vector<uint64_t> Samples, double Pct);

} // namespace omm::server

#endif // OMM_SERVER_TENANTSERVER_H
