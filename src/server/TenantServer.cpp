//===- server/TenantServer.cpp - Multi-tenant world serving --------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "server/TenantServer.h"

#include "offload/JobQueue.h"
#include "offload/Offload.h"
#include "support/Diag.h"
#include "support/Random.h"

#include <algorithm>

using namespace omm;
using namespace omm::server;
using namespace omm::sim;

namespace {

/// Host cycles the supervisor spends restarting one recycled core.
constexpr uint64_t SupervisorRestartCycles = 2000;

} // namespace

TenantServer::TenantServer(Machine &M, const TenantServerParams &Params)
    : M(M), Params(Params),
      BaseChunkDeadline(M.watchdog().chunkDeadline()) {}

TenantServer::~TenantServer() = default;

unsigned TenantServer::addTenant(const TenantParams &Params) {
  Tenant T;
  T.Params = Params;
  T.World = std::make_unique<game::GameWorld>(M, Params.World);
  // Ledger seed before the first observed frame: proportional to the
  // entity count so admission order is sane from tick 0. Any pure
  // function of the params keeps this deterministic.
  T.CostEstimate =
      std::max<uint64_t>(1, uint64_t(Params.World.NumEntities) * 1000);
  Tenants.push_back(std::move(T));
  return static_cast<unsigned>(Tenants.size() - 1);
}

TenantServer::Tenant &TenantServer::tenant(unsigned Id) {
  if (Id >= Tenants.size())
    reportFatalError("tenant server: tenant id out of range");
  return Tenants[Id];
}

const TenantStats &TenantServer::stats(unsigned Tenant) const {
  return const_cast<TenantServer *>(this)->tenant(Tenant).Stats;
}

uint64_t TenantServer::checksum(unsigned Tenant) const {
  return const_cast<TenantServer *>(this)->tenant(Tenant).World->checksum();
}

void TenantServer::scheduleTenantHang(unsigned Tenant, unsigned AccelId) {
  TenantServer::Tenant &T = tenant(Tenant);
  uint64_t Deadline = T.Params.ChunkDeadlineCycles != 0
                          ? T.Params.ChunkDeadlineCycles
                          : BaseChunkDeadline;
  if (Deadline == 0)
    reportFatalError("tenant server: hang scheduled for a tenant whose "
                     "slices arm no chunk deadline (unrecoverable)");
  T.Pending.push_back({AccelId, /*Slowdown=*/0.0f});
}

void TenantServer::scheduleTenantStraggler(unsigned Tenant, unsigned AccelId,
                                           float Slowdown) {
  if (Slowdown <= 1.0f)
    reportFatalError("tenant server: straggler slowdown must exceed 1");
  tenant(Tenant).Pending.push_back({AccelId, Slowdown});
}

void TenantServer::applyPendingFaults(Tenant &T) {
  if (T.Pending.empty())
    return;
  FaultInjector *Faults = M.faults();
  if (!Faults)
    reportFatalError("tenant server: tenant fault scheduled but fault "
                     "injection is disabled on the machine");
  // Index 0 pins the fault to the accelerator's *next* classified
  // timing event, which is in the slice about to be served.
  for (const PendingFault &P : T.Pending) {
    if (P.Slowdown <= 1.0f)
      Faults->scheduleHang(P.AccelId, 0);
    else
      Faults->scheduleStraggler(P.AccelId, 0, P.Slowdown);
  }
  T.Pending.clear();
}

void TenantServer::recordFrame(Tenant &T, const game::FrameStats &Frame,
                               const PerfCounters &Before) {
  T.Stats.Counters.merge(M.countersSince(Before));
  T.Stats.FrameCycles.push_back(Frame.FrameCycles);
  ++T.Stats.FramesServed;
  T.CostEstimate = std::max<uint64_t>(1, Frame.FrameCycles);
}

unsigned TenantServer::recycleDeadCores() {
  unsigned Recycled = 0;
  for (unsigned A = 0, E = M.numAccelerators(); A != E; ++A) {
    if (M.accel(A).Alive)
      continue;
    // Supervisor restart: host pays the restart work, then the core
    // resumes at (at least) the new host time. The burial path already
    // reset its local store, so the revived core is clean.
    M.hostCompute(SupervisorRestartCycles);
    M.reviveAccelerator(A);
    ++Recycled;
  }
  return Recycled;
}

void TenantServer::serveRoundRobin(const std::vector<unsigned> &Admitted,
                                   TickStats &TS) {
  for (unsigned Id : Admitted) {
    Tenant &T = Tenants[Id];
    applyPendingFaults(T);
    bool Armed = T.Params.ChunkDeadlineCycles != 0;
    if (Armed)
      M.watchdog().setChunkDeadline(T.Params.ChunkDeadlineCycles);
    PerfCounters Before = M.totalCounters();
    game::FrameStats Frame = T.World->doFrameOffloadAiResident();
    if (Armed)
      M.watchdog().setChunkDeadline(BaseChunkDeadline);
    recordFrame(T, Frame, Before);
    // Recycling at the slice boundary keeps the blast radius of a hang
    // inside the slice that wedged the core: the next tenant sees the
    // full pool again. Fault-free slices kill nothing, so this is a
    // no-op on the bit-identity path.
    TS.CoresRecycled += recycleDeadCores();
  }
}

void TenantServer::serveBatched(const std::vector<unsigned> &Admitted,
                                TickStats &TS) {
  // Open every admitted frame first: snapshots are built and the
  // concatenated index space [0, Total) is laid out tenant by tenant.
  std::vector<uint32_t> Offsets(Admitted.size() + 1, 0);
  for (size_t I = 0; I != Admitted.size(); ++I) {
    Tenant &T = Tenants[Admitted[I]];
    applyPendingFaults(T);
    Offsets[I + 1] = Offsets[I] + T.World->beginServedFrame();
  }
  uint32_t Total = Offsets.back();

  // One shared deadline for the shared pool: the tightest contract any
  // admitted tenant asked for covers everyone's descriptors.
  uint64_t MinDeadline = 0;
  for (unsigned Id : Admitted) {
    uint64_t D = Tenants[Id].Params.ChunkDeadlineCycles;
    if (D != 0 && (MinDeadline == 0 || D < MinDeadline))
      MinDeadline = D;
  }
  if (MinDeadline != 0)
    M.watchdog().setChunkDeadline(MinDeadline);

  if (Total != 0) {
    // The amortisation play: one dispatch, one pool, one set of
    // launches for every tenant's AI stage. A chunk spanning a tenant
    // boundary splits inside the body — per-entity AI state does not
    // depend on chunking, so state identity with RoundRobin holds.
    offload::JobQueueOptions Opts;
    Opts.ChunkSize = Params.BatchChunkElems;
    Opts.Adaptive = true;
    offload::distributeJobs(
        M, Total, Opts, [&](auto &Ctx, uint32_t Begin, uint32_t End) {
          while (Begin != End) {
            size_t Slot = static_cast<size_t>(
                std::upper_bound(Offsets.begin(), Offsets.end(), Begin) -
                Offsets.begin() - 1);
            uint32_t SliceEnd = std::min(End, Offsets[Slot + 1]);
            game::GameWorld &W = *Tenants[Admitted[Slot]].World;
            uint32_t LocalBegin = Begin - Offsets[Slot];
            uint32_t LocalEnd = SliceEnd - Offsets[Slot];
            W.servedAiChunk(Ctx, LocalBegin, LocalEnd);
            Begin = SliceEnd;
          }
        });
  }

  if (MinDeadline != 0)
    M.watchdog().setChunkDeadline(BaseChunkDeadline);

  for (unsigned Id : Admitted) {
    Tenant &T = Tenants[Id];
    PerfCounters Before = M.totalCounters();
    game::FrameStats Frame = T.World->finishServedFrame();
    recordFrame(T, Frame, Before);
  }
  TS.CoresRecycled += recycleDeadCores();
}

TickStats TenantServer::serveTick() {
  TickStats TS;
  uint64_t TickStart = M.hostClock().now();
  unsigned N = numTenants();

  // Admission: rotate the scan start by tick so ledger pressure defers
  // a different prefix each tick (fairness without randomness), and
  // age deferred tenants past MaxDeferTicks straight in.
  std::vector<unsigned> Admitted;
  uint64_t Ledger = 0;
  unsigned Start = N != 0 ? static_cast<unsigned>(Tick % N) : 0;
  for (unsigned I = 0; I != N; ++I) {
    unsigned Id = (Start + I) % N;
    Tenant &T = Tenants[Id];
    bool Fits = Params.TickBudgetCycles == 0 ||
                Ledger + T.CostEstimate <= Params.TickBudgetCycles;
    if (Fits || T.DeferStreak >= Params.MaxDeferTicks) {
      Admitted.push_back(Id);
      Ledger += T.CostEstimate;
      T.DeferStreak = 0;
    } else {
      ++T.Stats.FramesDeferred;
      ++T.DeferStreak;
      ++TS.Deferred;
    }
  }
  TS.Admitted = static_cast<unsigned>(Admitted.size());
  TS.LedgerCycles = Ledger;

  if (Params.Mode == ServeMode::RoundRobin)
    serveRoundRobin(Admitted, TS);
  else
    serveBatched(Admitted, TS);

  ++Tick;
  TS.TickCycles = M.hostClock().now() - TickStart;
  return TS;
}

std::vector<TenantParams> server::makeHeavyTailedTenants(
    unsigned Count, uint64_t Seed, uint32_t BaseEntities,
    uint64_t ChunkDeadlineCycles) {
  SplitMix64 Rng(Seed);
  std::vector<TenantParams> Tenants;
  Tenants.reserve(Count);
  for (unsigned I = 0; I != Count; ++I) {
    uint64_t Draw = Rng.nextBelow(100);
    uint32_t Mult = Draw < 50 ? 1 : Draw < 75 ? 2 : Draw < 90 ? 4
                                : Draw < 97 ? 8 : 16;
    TenantParams T;
    T.World.NumEntities = BaseEntities * Mult;
    T.World.Seed = Rng.next();
    T.ChunkDeadlineCycles = ChunkDeadlineCycles;
    Tenants.push_back(T);
  }
  return Tenants;
}

uint64_t server::percentileCycles(std::vector<uint64_t> Samples,
                                  double Pct) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  double Rank = Pct / 100.0 * static_cast<double>(Samples.size());
  size_t Index = Rank <= 1.0 ? 0
                             : static_cast<size_t>(Rank + 0.5) - 1;
  if (Index >= Samples.size())
    Index = Samples.size() - 1;
  return Samples[Index];
}
