//===- offload/ParallelFor.h - Multi-accelerator data parallelism -*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TBB-style data-parallel helpers over the accelerators, after the
/// authors' companion work the paper cites ("Programming heterogeneous
/// multicore systems using threading building blocks", HPPC 2010): an
/// index range is split into contiguous sub-ranges, one per
/// accelerator. The split runs on the persistent-worker runtime
/// (ResidentWorker.h) as its degenerate one-descriptor-per-worker
/// case: each resident worker receives its slice through its mailbox,
/// and a slice whose home core is dead or dies mid-run fails over into
/// a survivor's mailbox with its boundaries untouched. Sub-ranges are
/// disjoint, so the workers share nothing writable and the schedule is
/// race-checker clean by construction — and bit-identical under
/// faults, because the boundaries never move.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_OFFLOAD_PARALLELFOR_H
#define OMM_OFFLOAD_PARALLELFOR_H

#include "offload/DoubleBuffer.h"
#include "offload/Offload.h"
#include "offload/ResidentWorker.h"
#include "support/MathExtras.h"

#include <algorithm>
#include <numeric>
#include <vector>

namespace omm::offload {

/// Runs Body(Ctx, Begin, End) on up to \p MaxAccelerators accelerators,
/// with [0, Count) split into contiguous sub-ranges, and joins them.
/// Body must only touch outer state derived from its own sub-range.
/// Slices whose home accelerator is dead or rejects the launch fail
/// over to the next live core; if none will take a slice it runs on
/// the host (requires a host-invocable body — take the context as
/// auto&). The slice boundaries never change, so results match the
/// fault-free run bit for bit. In the returned stats zero FailedLaunches
/// and all-zero recovery mean the static split ran as planned.
template <typename BodyFn>
RegionStats parallelForRange(sim::Machine &M, uint32_t Count, BodyFn &&Body,
                             unsigned MaxAccelerators = ~0u) {
  if (Count == 0)
    return {};
  unsigned NumAccels = M.numAccelerators();
  unsigned Workers = std::min({NumAccels, MaxAccelerators, Count});
  ResidentWorkerPool Pool(M, Workers);
  if (Workers == 0) {
    // No accelerator budget at all: the whole range is one host slice.
    Pool.runOnHost(Body, sim::WorkDescriptor{0, Count});
    Pool.close();
    return Pool.stats();
  }
  // Domain-first static split: slice lengths are balanced across
  // domains before the per-worker split inside each one (slice homes
  // are the accelerator ids 0..Workers-1, so worker W's domain is
  // domainOf(W) whether or not its launch succeeds — the boundaries
  // must not depend on fault outcomes). Single-domain machines get the
  // historical Count/Workers + remainder arithmetic bit for bit.
  std::vector<unsigned> SliceDomains(Workers);
  for (unsigned W = 0; W != Workers; ++W)
    SliceDomains[W] = M.domainOf(W);
  const std::vector<uint32_t> SliceLens =
      DispatchPlan::domainShares(Count, SliceDomains);

  // Publish the static split up front — the slice boundaries are fixed
  // by the full budget and never move, whatever happens to the workers.
  // A slice goes to its home worker through the pool's placement
  // routine, which fails it over to the least-loaded survivor when that
  // home never opened (or the host when nobody did). With stealing
  // enabled each slice is published as StealSliceChunks
  // sub-descriptors through one bulk doorbell, so a thief can later
  // claim part of a slice instead of all-or-nothing.
  const bool Stealing = M.config().WorkStealing != sim::StealPolicy::None &&
                        Pool.liveCount() > 0;
  // Slices are carved through the shared plan (the runtime's single
  // descriptor-construction site); only the per-worker lengths are
  // computed here, because they depend on the worker budget.
  DispatchPlan Plan(Count);
  std::vector<sim::WorkDescriptor> Region;
  for (unsigned W = 0; W != Workers; ++W) {
    uint32_t Len = SliceLens[W];
    if (!Stealing) {
      Pool.place(Body, Plan.slice(Len, /*Home=*/W));
      continue;
    }
    uint32_t Subs = std::max(1u, std::min(M.config().StealSliceChunks, Len));
    uint32_t PerSub = Len / Subs;
    uint32_t SubRem = Len % Subs;
    Region.clear();
    for (uint32_t S = 0; S != Subs; ++S) {
      uint32_t SubLen = PerSub + (S < SubRem ? 1 : 0);
      Region.push_back(Plan.slice(SubLen, /*Home=*/W));
    }
    unsigned LiveW = Pool.findWorkerFor(W);
    if (LiveW != ResidentWorkerPool::NoWorker)
      Pool.dispatchBulk(LiveW, Region);
    else
      for (const sim::WorkDescriptor &Desc : Region)
        Pool.place(Body, Desc);
  }

  Pool.drain(Body, /*MaySteal=*/true);
  Pool.close();
  return Pool.stats();
}

/// Data-parallel in-place transform of an outer array: each
/// accelerator double-buffers its contiguous slice. The uniform-type
/// batched pattern of Section 4.1, scaled across the chip.
/// PerElement is invoked as PerElement(Ctx, GlobalIndex, Value&) so it
/// can charge its computation cost.
template <typename T, typename ElemFn>
RegionStats parallelTransform(sim::Machine &M, OuterPtr<T> Base,
                              uint32_t Count, uint32_t ChunkElems,
                              ElemFn &&PerElement,
                              unsigned MaxAccelerators = ~0u) {
  if (Count == 0)
    return {};
  // Slice boundaries must fall on DMA-alignment boundaries: group
  // elements so every slice start is 16-byte aligned relative to Base.
  constexpr uint32_t Group =
      16 / std::gcd<uint32_t>(static_cast<uint32_t>(sizeof(T)), 16u);
  static_assert(Group * sizeof(T) % 16 == 0, "grouping arithmetic");
  uint32_t NumGroups = static_cast<uint32_t>(divideCeil(Count, Group));

  return parallelForRange(
      M, NumGroups,
      [&](OffloadContext &Ctx, uint32_t GroupBegin, uint32_t GroupEnd) {
        uint32_t Begin = GroupBegin * Group;
        uint32_t End = std::min(Count, GroupEnd * Group);
        if (Begin >= End)
          return;
        transformDoubleBuffered<T>(
            Ctx, Base + Begin, End - Begin, ChunkElems,
            [&](ChunkView<T> &Chunk) {
              for (uint32_t I = 0, E = Chunk.size(); I != E; ++I) {
                uint32_t Global = Begin + Chunk.firstIndex() + I;
                Chunk.update(I, [&](T &Value) {
                  PerElement(Ctx, Global, Value);
                });
              }
            });
      },
      MaxAccelerators);
}

} // namespace omm::offload

#endif // OMM_OFFLOAD_PARALLELFOR_H
