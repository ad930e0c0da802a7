//===- offload/JobQueue.h - Dynamic work distribution ----------*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dynamic chunked work distribution across the accelerators — the
/// job-queue style production Cell engines used when per-item costs are
/// skewed and a static split (ParallelFor.h) leaves cores idle. The
/// queue runs on the persistent-worker runtime (ResidentWorker.h): one
/// resident worker is launched on each of the first MaxWorkers
/// accelerators (every one by default) for the duration of the run,
/// and every chunk after that is a work descriptor pushed
/// through the worker's mailbox — a doorbell write on the host and a
/// descriptor fetch on the core, two orders of magnitude cheaper than a
/// fresh launch. Each descriptor goes to the worker whose simulated
/// clock is lowest (ties to the least-fed worker, then the lowest id),
/// which is exactly what a hardware work-stealing queue converges to,
/// and is deterministic here.
///
/// The queue is fault-tolerant: a worker that dies (fault injection, or
/// an accelerator that was already dead) has its popped descriptor and
/// its mailbox backlog re-queued onto the surviving workers, and when
/// no worker is left — including the degenerate machines with zero
/// accelerators or MaxWorkers == 0 — the remaining chunks run on the
/// host. Workers die at descriptor boundaries (after popping, before
/// the body runs), so every chunk executes exactly once and results are
/// bit-identical to a fault-free run.
///
/// Use parallelForRange for uniform work (lower overhead, contiguous
/// slices); use distributeJobs when items vary wildly (e.g. collision
/// clusters, path queries of different lengths).
///
//===----------------------------------------------------------------------===//

#ifndef OMM_OFFLOAD_JOBQUEUE_H
#define OMM_OFFLOAD_JOBQUEUE_H

#include "offload/Offload.h"
#include "offload/OffloadContext.h"
#include "offload/ResidentWorker.h"

#include <algorithm>
#include <optional>
#include <vector>

namespace omm::offload {

/// Tuning knobs for distributeJobs.
struct JobQueueOptions {
  /// Smallest chunk of indices per descriptor (floor for the adaptive
  /// policy; the fixed size otherwise). 0 is promoted to 1.
  uint32_t ChunkSize = 16;
  /// Accelerator budget; the pool opens min(numAccelerators, MaxWorkers)
  /// resident workers on accelerators [0, that count).
  unsigned MaxWorkers = ~0u;
  /// Guided self-scheduling: start with coarse chunks while the queue is
  /// long (cutting mailbox traffic) and shrink toward ChunkSize as it
  /// drains (keeping the tail balanced).
  bool Adaptive = false;
};

/// Runs Body(Ctx, Begin, End) for chunks of [0, Count), dynamically
/// assigning each chunk to the least-loaded accelerator through the
/// resident workers' mailboxes. Bodies of different chunks must touch
/// disjoint outer state (as with parallelForRange). Survives
/// accelerator death and machines with no usable accelerator at all,
/// provided the body is host-invocable (takes its context parameter as
/// auto&); see RegionStats for what went wrong and where the work ended
/// up.
template <typename BodyFn>
RegionStats distributeJobs(sim::Machine &M, uint32_t Count,
                           const JobQueueOptions &Opts, BodyFn &&Body) {
  if (Count == 0)
    return {};
  uint32_t ChunkSize = std::max(1u, Opts.ChunkSize);
  // Adaptive target: cut the *remaining* range into about this many
  // descriptors per live worker.
  constexpr uint32_t TargetChunksPerWorker = 4;

  ResidentWorkerPool Pool(M, Opts.MaxWorkers);
  // All carving goes through the shared plan (the runtime's single
  // descriptor-construction site).
  DispatchPlan Plan(Count);

  if (M.config().WorkStealing != sim::StealPolicy::None &&
      Pool.liveCount() > 0) {
    // Stealing mode: bulk initial placement instead of host-paced eager
    // dispatch. The range is carved into fixed ChunkSize descriptors
    // (the adaptive policy is moot — rebalancing is the workers' job
    // now) and each worker receives one contiguous region with a single
    // doorbell; imbalance is then corrected accelerator-side by steals.
    const unsigned Workers = Pool.liveCount();
    const uint32_t NumChunks = (Count + ChunkSize - 1) / ChunkSize;
    // Domain-first carving: each domain's chunk count is settled before
    // the per-worker split inside it, so a region never has to straddle
    // the interconnect to balance a remainder. On a flat machine (one
    // domain) this is the historical flat arithmetic bit for bit.
    std::vector<unsigned> WorkerDomains(Workers);
    for (unsigned W = 0; W != Workers; ++W)
      WorkerDomains[W] = M.domainOf(Pool.accelId(W));
    const std::vector<uint32_t> Shares =
        DispatchPlan::domainShares(NumChunks, WorkerDomains);
    std::vector<sim::WorkDescriptor> Region;
    for (unsigned W = 0; W != Workers; ++W) {
      uint32_t ChunksHere = Shares[W];
      Region.clear();
      for (uint32_t C = 0; C != ChunksHere && !Plan.done(); ++C)
        Region.push_back(Plan.chunk(ChunkSize));
      Pool.dispatchBulk(W, Region);
    }
  }

  // Host-paced mode (stealing off, or no worker opened): every chunk
  // left is pushed to the least-loaded worker and popped at once. In
  // stealing mode the plan is already carved and this returns at once.
  Pool.runEager(Body, [&]() -> std::optional<sim::WorkDescriptor> {
    if (Plan.done())
      return std::nullopt;
    uint32_t Chunk = ChunkSize;
    if (Opts.Adaptive && Pool.liveCount() > 0)
      // Guided self-scheduling: hand out 1/(target * workers) of what
      // remains, never below the configured floor.
      Chunk = std::max(ChunkSize, Plan.remaining() / (TargetChunksPerWorker *
                                                      Pool.liveCount()));
    return Plan.chunk(Chunk);
  });
  Pool.drain(Body, /*MaySteal=*/true);

  Pool.close();
  return Pool.stats();
}

} // namespace omm::offload

#endif // OMM_OFFLOAD_JOBQUEUE_H
