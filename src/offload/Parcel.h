//===- offload/Parcel.h - Worker-to-worker staged dataflow -----*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parcel dataflow driver: a staged parallel region where stage
/// boundaries are crossed accelerator-side instead of through the host.
/// The host seeds only the first stage's descriptors; each completed
/// descriptor then spawns its continuation straight into a peer
/// worker's mailbox (Mailbox::pushParcel, charged to worker clocks), so
/// the per-stage host round trip — join, re-carve, re-doorbell — of the
/// staged schedule is deleted. This is the HPX-parcel / active-message
/// shape on top of the resident-worker runtime: a descriptor carries
/// its continuation (WorkDescriptor::{Kernel, NextKernel, Policy}) and
/// the pool's stage chain (its NumStages) links stage k to k+1.
///
/// Determinism and fault composition follow the runtime's contract:
/// workers die at the descriptor-pop boundary, *before* the body, so a
/// dead worker never spawned its continuation — re-running the parent
/// descriptor (through the ordinary orphan path) re-spawns exactly
/// once, and parcels sitting undelivered in a dead recipient's mailbox
/// drain back through the same path. With NumStages == 1 (or
/// ParcelPolicy::None) no descriptor carries a continuation and the
/// region is the plain host-paced job queue, bit for bit.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_OFFLOAD_PARCEL_H
#define OMM_OFFLOAD_PARCEL_H

#include "offload/Offload.h"
#include "offload/OffloadContext.h"
#include "offload/ResidentWorker.h"

#include <algorithm>
#include <optional>
#include <vector>

namespace omm::offload {

/// Tuning knobs for runDataflow.
struct DataflowOptions {
  /// Indices per seeded descriptor; continuations inherit their parent's
  /// [Begin, End) span unchanged. 0 is promoted to 1.
  uint32_t ChunkSize = 16;
  /// Accelerator budget; the pool opens min(numAccelerators, MaxWorkers)
  /// resident workers.
  unsigned MaxWorkers = ~0u;
  /// Stages in the chain: seeded descriptors run kernel 1 and chain
  /// through kernel NumStages. 0 is promoted to 1 (a plain job queue).
  uint16_t NumStages = 1;
  /// How a worker picks the recipient of each spawned continuation.
  /// None disables continuations entirely: every stage's descriptors
  /// would then need host seeding, so with None the driver runs only
  /// stage 1 — the bit-identity escape hatch, not a schedule.
  sim::ParcelPolicy Policy = sim::ParcelPolicy::Ring;
};

/// Runs a NumStages-deep staged dataflow over [0, Count): the host
/// seeds stage-1 descriptors of ChunkSize indices each, and every
/// completed stage-k descriptor spawns its same-span stage-(k+1)
/// continuation into a peer mailbox under Opts.Policy, worker to
/// worker. \p Body is invoked as Body(Ctx, Desc) — it dispatches on
/// Desc.Kernel (1-based stage id) and must confine its writes to state
/// derived from [Desc.Begin, Desc.End), so stages of different spans
/// commute and the drain interleaving cannot affect final state.
///
/// The host blocks only on region completion (every chain run to its
/// end), not on any stage boundary. Survives worker death, machines
/// with no usable accelerator, and every timing fault the resident
/// runtime handles, provided the body is host-invocable; a descriptor
/// that falls back to the host runs its remaining chain there too (the
/// chain's ordering guarantee must survive the pool emptying). Every
/// parcel spawned (RegionStats::Counters.ParcelsSpawned) is a host round
/// trip — join, re-carve, doorbell — the host-staged schedule would
/// have paid.
template <typename BodyFn>
RegionStats runDataflow(sim::Machine &M, uint32_t Count,
                        const DataflowOptions &Opts, BodyFn &&Body) {
  if (Count == 0)
    return {};
  uint32_t ChunkSize = std::max(1u, Opts.ChunkSize);
  uint16_t NumStages = std::max<uint16_t>(1, Opts.NumStages);
  sim::ParcelPolicy Policy =
      NumStages > 1 ? Opts.Policy : sim::ParcelPolicy::None;

  // The pool chains the stage kernels: a spawned child running kernel K
  // continues to K+1 until the last stage ends the chain. Seeds carry
  // the 1 -> 2 link themselves.
  ResidentWorkerPool Pool(M, Opts.MaxWorkers, /*FirstAccel=*/0, NumStages);

  // Stage-1 descriptors the host seeded, host-run ones included.
  uint32_t Seeds = 0;
  DispatchPlan Plan(Count);
  Plan.stage(/*Kernel=*/1, NumStages > 1 ? 2 : 0, Policy);
  if (NumStages == 1) {
    // Degenerate single-stage region: no parcel ever exists, so this
    // must BE the host-paced job queue — the same eager loop, cycle for
    // cycle (the bit-identity spine).
    Pool.runEager(Body, [&]() -> std::optional<sim::WorkDescriptor> {
      if (Plan.done())
        return std::nullopt;
      ++Seeds;
      return Plan.chunk(ChunkSize);
    });
  } else {
    // Staged region: doorbell every seed upfront, round-robin across
    // the live workers, before pacing a single pop. Host doorbells are
    // cheap and happen "at once" in simulated time; pacing executions
    // between them (the job queue's eager alternation) would instead
    // let early continuation parcels land at mailbox HEADS, head-
    // blocking a still-idle recipient on its producer's clock. Seeded
    // first, every worker opens with a run of ready stage-1 shards and
    // the parcels queue up behind them — the pipeline self-primes.
    unsigned Next = 0;
    while (!Plan.done()) {
      if (Pool.liveCount() == 0) {
        ++Seeds;
        Pool.runOnHost(Body, Plan.chunk(ChunkSize));
        continue;
      }
      if (Next >= Pool.liveCount())
        Next = 0;
      if (Pool.mailbox(Next).full()) {
        // Make room by letting the backed-up worker run a descriptor (a
        // death here orphans its backlog; the drain re-places it).
        Pool.executeNext(Next, Body);
        continue;
      }
      ++Seeds;
      Pool.dispatch(Next, Plan.chunk(ChunkSize));
      ++Next;
    }
  }

  // Drain the continuations still in flight: the host's only remaining
  // job is pacing pops (and re-placing orphans) until every chain has
  // run to its end — there is no per-stage join anywhere, and no steal.
  Pool.drain(Body, /*MaySteal=*/false);

  Pool.close();
  RegionStats Stats = Pool.stats();
  Stats.Seeds = Seeds;
  return Stats;
}

} // namespace omm::offload

#endif // OMM_OFFLOAD_PARCEL_H
