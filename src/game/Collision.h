//===- game/Collision.h - Broadphase and collision response ----*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The detectCollisions task of Figure 2 plus the collision-response
/// workload of Figure 1: a uniform-grid broadphase produces
/// CollisionPair records, and do_collision_response pulls each pair's
/// entities in, resolves the contact and writes them back. Drivers exist
/// for the host, for Figure-1-style explicit DMA on an accelerator (with
/// both the overlapped-tags idiom and a deliberately serialised
/// variant — experiment E1 contrasts them), and a deliberately racy
/// variant for the race-checker demo.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_GAME_COLLISION_H
#define OMM_GAME_COLLISION_H

#include "game/EntityStore.h"
#include "offload/OffloadContext.h"

#include <cstdint>
#include <vector>

namespace omm::game {

/// Tuning for collision detection and response. The grid cell and the
/// response price are static constexpr: no experiment varies them.
struct CollisionParams {
  static constexpr float CellSize = 8.0f; ///< Broadphase grid cell edge.
  uint64_t CyclesPerHash = 12;      ///< Cost of binning one entity.
  uint64_t CyclesPerPairTest = 30;  ///< Cost of one candidate pair test.
  static constexpr uint64_t CyclesPerResponse = 120; ///< Per contact.
};

/// Pure contact resolution (Figure 1's do_collision_response): if the
/// entities' spheres overlap, separates them, exchanges an impulse and
/// applies damage. \returns true if a contact was resolved.
bool respondToCollision(GameEntity &First, GameEntity &Second);

/// Host-side uniform-grid broadphase over all entities; \returns the
/// candidate pairs (each entity pair at most once, FirstId < SecondId).
/// Charges the host clock CyclesPerHash per entity, each after that
/// entity's two costed bound reads (in entity order), then one charge of
/// count × CyclesPerPairTest for every candidate pair tested. Nothing
/// in between touches the host, so the total is what a charge per test
/// would bill.
///
/// Pair order is part of the contract, because narrowphaseHost applies
/// responses in sequence: cells are visited in lexicographic (X, Y, Z)
/// order; within a cell, ids ascend and pairs are tested in that order;
/// then each of the 13 forward neighbour cells is tested, in a fixed
/// offset order. Every cell coordinate must satisfy |cell| < 2^20 - 1
/// (the packed-key range): |position| < ~8.4M world units at the
/// default 8-unit cell (asserted).
///
/// Neighbours are found through a dense grid index, not a search. Each
/// axis is compressed: occupied coordinates keep their order and every
/// run of empty ones shrinks to one, so an axis of d occupied
/// coordinates spans at most 2d + 1 slots and adjacency is unchanged.
/// The index holds one offset per slot of the compressed grid, so a
/// world must need at most 2^20 + 64 × (entity count) slots (asserted):
/// at most 4 MiB plus 256 bytes an entity. Dense and clustered worlds
/// need a few slots an entity; only entities spread apart on all three
/// axes at once (up to (2N + 1)^3 slots) break the bound.
std::vector<CollisionPair> broadphaseHost(const EntityStore &Entities,
                                          const CollisionParams &Params);

/// Exact narrowphase *detection* (no mutation): filters \p Candidates to
/// the pairs whose spheres really overlap, reading bounds from main
/// memory. Read-only, so it can run on the host in parallel with
/// offloaded AI (Figure 2's "safely performed in parallel"); the
/// mutating response runs after the join.
std::vector<CollisionPair>
detectContactsHost(const EntityStore &Entities,
                   const std::vector<CollisionPair> &Candidates,
                   const CollisionParams &Params);

/// Copies \p Pairs into main memory (for consumption by offloaded
/// narrowphase passes); \returns the array base, owned by the caller.
sim::GlobalAddr materializePairs(sim::Machine &M,
                                 const std::vector<CollisionPair> &Pairs);

/// Host narrowphase: response for every pair, host loads/stores.
/// \returns the number of resolved contacts.
uint32_t narrowphaseHost(EntityStore &Entities,
                         const std::vector<CollisionPair> &Pairs);

/// How the explicit-DMA narrowphase issues its transfers.
enum class DmaStyle {
  OverlappedTags, ///< Figure 1: both gets in flight, one wait (fast).
  Serialised,     ///< get+wait, get+wait (the naive translation).
  MissingWait,    ///< Figure 1 with the dma_wait omitted: a seeded race
                  ///< for the checker demo (results are still computed).
  DmaList,        ///< Both entities gathered by one MFC list command
                  ///< (getl): a single startup latency per pair.
};

/// Accelerator narrowphase over materialised pairs using explicit DMA in
/// the given style. \returns the number of resolved contacts.
uint32_t narrowphaseOffload(offload::OffloadContext &Ctx,
                            sim::GlobalAddr PairsAddr, uint32_t PairCount,
                            DmaStyle Style);

} // namespace omm::game

#endif // OMM_GAME_COLLISION_H
