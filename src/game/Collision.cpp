//===- game/Collision.cpp - Broadphase and collision response ------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "game/Collision.h"

#include "support/MathExtras.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>
#include <vector>

using namespace omm;
using namespace omm::game;
using namespace omm::sim;

bool omm::game::respondToCollision(GameEntity &First, GameEntity &Second) {
  Vec3 Delta = Second.Position - First.Position;
  float R = First.Radius + Second.Radius;
  float Dist2 = Delta.lengthSq();
  if (Dist2 > R * R)
    return false;

  float Dist = std::sqrt(Dist2 > 1e-12f ? Dist2 : 1e-12f);
  Vec3 Normal = Dist > 1e-6f ? Delta * (1.0f / Dist) : Vec3(1.0f, 0.0f, 0.0f);

  // Positional separation, split evenly (equal masses).
  float Penetration = R - Dist;
  First.Position -= Normal * (Penetration * 0.5f);
  Second.Position += Normal * (Penetration * 0.5f);

  // Impulse along the contact normal with mild restitution.
  float RelativeSpeed =
      Second.Velocity.dot(Normal) - First.Velocity.dot(Normal);
  Vec3 Impulse = Normal * (RelativeSpeed * 0.45f);
  First.Velocity += Impulse;
  Second.Velocity -= Impulse;

  First.Health -= 1.0f;
  Second.Health -= 1.0f;
  ++First.HitCount;
  ++Second.HitCount;
  return true;
}

namespace {

/// A cell's integer coordinates packed into one key: each coordinate,
/// biased by 2^20, fills a 21-bit field with X in the high bits, so the
/// integer order of keys is the lexicographic (X, Y, Z) order of cells.
constexpr unsigned CellFieldBits = 21;
constexpr int64_t CellBias = int64_t(1) << (CellFieldBits - 1);

/// Cells stay one step inside the field, so adding a neighbour's key
/// delta never carries into or borrows from the next field.
constexpr float CellLimit = float(CellBias - 1);

/// The biased field of the cell holding \p Coord.
uint64_t cellField(float Coord, float InvCell) {
  float Cell = std::floor(Coord * InvCell);
  assert(Cell > -CellLimit && Cell < CellLimit &&
         "position outside the broadphase grid's packed-key range");
  return static_cast<uint64_t>(static_cast<int32_t>(Cell) + CellBias);
}

/// The key distance from a cell to its neighbour at offset (X, Y, Z).
constexpr uint64_t keyDelta(int64_t X, int64_t Y, int64_t Z) {
  return static_cast<uint64_t>(X * (int64_t(1) << (2 * CellFieldBits)) +
                               Y * (int64_t(1) << CellFieldBits) + Z);
}

/// The 13 "forward" neighbour offsets, so each unordered cell pair is
/// visited once. Each is lexicographically positive, so its key delta is
/// positive and a cell's neighbour keys grow with the cell's key.
constexpr uint64_t ForwardDelta[13] = {
    keyDelta(1, 0, 0),  keyDelta(0, 1, 0),   keyDelta(0, 0, 1),
    keyDelta(1, 1, 0),  keyDelta(1, -1, 0),  keyDelta(1, 0, 1),
    keyDelta(1, 0, -1), keyDelta(0, 1, 1),   keyDelta(0, 1, -1),
    keyDelta(1, 1, 1),  keyDelta(1, 1, -1),  keyDelta(1, -1, 1),
    keyDelta(1, -1, -1)};

} // namespace

std::vector<CollisionPair>
omm::game::broadphaseHost(const EntityStore &Entities,
                          const CollisionParams &Params) {
  Machine &M = Entities.machine();

  // Bin every entity, reading its bounds from main memory (costed).
  struct Snapshot {
    Vec3 Position;
    float Radius;
  };
  struct Binned {
    uint64_t Key;
    uint32_t Id;
  };
  std::vector<Snapshot> Snapshots;
  std::vector<Binned> Bins;
  Snapshots.reserve(Entities.size());
  Bins.reserve(Entities.size());
  float InvCell = 1.0f / Params.CellSize;
  for (uint32_t I = 0, E = Entities.size(); I != E; ++I) {
    auto Ptr = Entities.entity(I);
    Vec3 Position = Ptr.field<Vec3>(offsetof(GameEntity, Position)).hostRead(M);
    float Radius = Ptr.field<float>(offsetof(GameEntity, Radius)).hostRead(M);
    Snapshots.push_back(Snapshot{Position, Radius});
    uint64_t Key = cellField(Position.X, InvCell) << (2 * CellFieldBits) |
                   cellField(Position.Y, InvCell) << CellFieldBits |
                   cellField(Position.Z, InvCell);
    Bins.push_back(Binned{Key, I});
    M.hostCompute(Params.CyclesPerHash);
  }

  // Cells in key order, ids ascending within a cell.
  std::sort(Bins.begin(), Bins.end(), [](const Binned &A, const Binned &B) {
    return A.Key != B.Key ? A.Key < B.Key : A.Id < B.Id;
  });
  std::vector<uint64_t> CellKeys;
  std::vector<uint32_t> CellBegin;
  for (uint32_t I = 0; I != Bins.size(); ++I)
    if (CellKeys.empty() || CellKeys.back() != Bins[I].Key) {
      CellKeys.push_back(Bins[I].Key);
      CellBegin.push_back(I);
    }
  CellBegin.push_back(static_cast<uint32_t>(Bins.size()));

  std::vector<CollisionPair> Pairs;
  auto Consider = [&](uint32_t A, uint32_t B) {
    M.hostCompute(Params.CyclesPerPairTest);
    const Snapshot &SA = Snapshots[A];
    const Snapshot &SB = Snapshots[B];
    // Coarse test with margin; the narrowphase does the exact test.
    if (!spheresOverlap(SA.Position, SA.Radius * 1.2f, SB.Position,
                        SB.Radius * 1.2f))
      return;
    CollisionPair Pair;
    uint32_t First = std::min(A, B);
    uint32_t Second = std::max(A, B);
    Pair.FirstAddr = Entities.entity(First).addr().Value;
    Pair.SecondAddr = Entities.entity(Second).addr().Value;
    Pair.FirstId = First;
    Pair.SecondId = Second;
    Pairs.push_back(Pair);
  };

  // Candidate pairs: within a cell, then against each forward neighbour.
  // Cells are visited in key order, so each offset's neighbour key only
  // grows and one forward-only cursor per offset finds it (a merge join).
  size_t NumCells = CellKeys.size();
  size_t Cursor[std::size(ForwardDelta)] = {};
  for (size_t C = 0; C != NumCells; ++C) {
    for (uint32_t A = CellBegin[C]; A != CellBegin[C + 1]; ++A)
      for (uint32_t B = A + 1; B != CellBegin[C + 1]; ++B)
        Consider(Bins[A].Id, Bins[B].Id);
    for (size_t K = 0; K != std::size(ForwardDelta); ++K) {
      uint64_t Neighbour = CellKeys[C] + ForwardDelta[K];
      size_t &N = Cursor[K];
      while (N != NumCells && CellKeys[N] < Neighbour)
        ++N;
      if (N == NumCells || CellKeys[N] != Neighbour)
        continue;
      for (uint32_t A = CellBegin[C]; A != CellBegin[C + 1]; ++A)
        for (uint32_t B = CellBegin[N]; B != CellBegin[N + 1]; ++B)
          Consider(Bins[A].Id, Bins[B].Id);
    }
  }
  return Pairs;
}

std::vector<CollisionPair>
omm::game::detectContactsHost(const EntityStore &Entities,
                              const std::vector<CollisionPair> &Candidates,
                              const CollisionParams &Params) {
  Machine &M = Entities.machine();
  std::vector<CollisionPair> Contacts;
  for (const CollisionPair &Pair : Candidates) {
    auto First = Entities.entity(Pair.FirstId);
    auto Second = Entities.entity(Pair.SecondId);
    Vec3 PosA = First.field<Vec3>(offsetof(GameEntity, Position)).hostRead(M);
    float RadA = First.field<float>(offsetof(GameEntity, Radius)).hostRead(M);
    Vec3 PosB =
        Second.field<Vec3>(offsetof(GameEntity, Position)).hostRead(M);
    float RadB =
        Second.field<float>(offsetof(GameEntity, Radius)).hostRead(M);
    M.hostCompute(Params.CyclesPerPairTest);
    if (spheresOverlap(PosA, RadA, PosB, RadB))
      Contacts.push_back(Pair);
  }
  return Contacts;
}

GlobalAddr omm::game::materializePairs(Machine &M,
                                       const std::vector<CollisionPair> &Pairs) {
  uint64_t Bytes = std::max<uint64_t>(Pairs.size(), 1) * sizeof(CollisionPair);
  GlobalAddr Base = M.allocGlobal(Bytes);
  for (size_t I = 0; I != Pairs.size(); ++I)
    M.mainMemory().writeValue(Base + I * sizeof(CollisionPair), Pairs[I]);
  return Base;
}

uint32_t omm::game::narrowphaseHost(EntityStore &Entities,
                                    const std::vector<CollisionPair> &Pairs,
                                    const CollisionParams &Params) {
  Machine &M = Entities.machine();
  uint32_t Contacts = 0;
  for (const CollisionPair &Pair : Pairs) {
    GameEntity First = Entities.read(Pair.FirstId);
    GameEntity Second = Entities.read(Pair.SecondId);
    M.hostCompute(Params.CyclesPerResponse);
    if (respondToCollision(First, Second))
      ++Contacts;
    Entities.write(Pair.FirstId, First);
    Entities.write(Pair.SecondId, Second);
  }
  return Contacts;
}

uint32_t omm::game::narrowphaseOffload(offload::OffloadContext &Ctx,
                                       GlobalAddr PairsAddr,
                                       uint32_t PairCount,
                                       const CollisionParams &Params,
                                       DmaStyle Style) {
  // Local staging: the pair record and the two entities (Figure 1's
  // "GameEntity e1, e2; // Allocated in local store").
  LocalAddr PairLocal = Ctx.localAlloc(sizeof(CollisionPair));
  LocalAddr E1 = Ctx.localAlloc(sizeof(GameEntity));
  LocalAddr E2 = Ctx.localAlloc(sizeof(GameEntity));
  constexpr unsigned Tag = 1;

  uint32_t Contacts = 0;
  for (uint32_t I = 0; I != PairCount; ++I) {
    Ctx.dmaGet(PairLocal, PairsAddr + uint64_t(I) * sizeof(CollisionPair),
               sizeof(CollisionPair), Tag);
    Ctx.dmaWait(Tag);
    auto Pair = Ctx.localRead<CollisionPair>(PairLocal);

    // Fetch the two game entities associated with the collision.
    switch (Style) {
    case DmaStyle::OverlappedTags:
      // dma_get(&e1, ...t); dma_get(&e2, ...t); dma_wait(t);
      Ctx.dmaGet(E1, GlobalAddr(Pair.FirstAddr), sizeof(GameEntity), Tag);
      Ctx.dmaGet(E2, GlobalAddr(Pair.SecondAddr), sizeof(GameEntity), Tag);
      Ctx.dmaWait(Tag);
      break;
    case DmaStyle::Serialised:
      Ctx.dmaGet(E1, GlobalAddr(Pair.FirstAddr), sizeof(GameEntity), Tag);
      Ctx.dmaWait(Tag);
      Ctx.dmaGet(E2, GlobalAddr(Pair.SecondAddr), sizeof(GameEntity), Tag);
      Ctx.dmaWait(Tag);
      break;
    case DmaStyle::MissingWait:
      // The Figure 1 bug class: reading e1/e2 before dma_wait.
      Ctx.dmaGet(E1, GlobalAddr(Pair.FirstAddr), sizeof(GameEntity), Tag);
      Ctx.dmaGet(E2, GlobalAddr(Pair.SecondAddr), sizeof(GameEntity), Tag);
      break;
    case DmaStyle::DmaList: {
      // getl: both entities in one scatter/gather command.
      sim::DmaEngine::ListElement Elements[2] = {
          {E1, GlobalAddr(Pair.FirstAddr), sizeof(GameEntity)},
          {E2, GlobalAddr(Pair.SecondAddr), sizeof(GameEntity)}};
      Ctx.dmaGetList(Elements, 2, Tag);
      Ctx.dmaWait(Tag);
      break;
    }
    }

    auto First = Ctx.localRead<GameEntity>(E1);
    auto Second = Ctx.localRead<GameEntity>(E2);
    if (Style == DmaStyle::MissingWait)
      Ctx.dmaWait(Tag); // Late wait: the damage (race) is already done.

    Ctx.compute(Params.CyclesPerResponse);
    if (respondToCollision(First, Second))
      ++Contacts;
    Ctx.localWrite(E1, First);
    Ctx.localWrite(E2, Second);

    // Write back updated entities.
    if (Style == DmaStyle::DmaList) {
      sim::DmaEngine::ListElement Elements[2] = {
          {E1, GlobalAddr(Pair.FirstAddr), sizeof(GameEntity)},
          {E2, GlobalAddr(Pair.SecondAddr), sizeof(GameEntity)}};
      Ctx.dmaPutList(Elements, 2, Tag);
    } else {
      Ctx.dmaPut(GlobalAddr(Pair.FirstAddr), E1, sizeof(GameEntity), Tag);
      Ctx.dmaPut(GlobalAddr(Pair.SecondAddr), E2, sizeof(GameEntity),
                 Tag);
    }
    // Wait before the buffers are reused by the next iteration (and so
    // a later get of the same entity cannot race these puts).
    Ctx.dmaWait(Tag);
  }
  return Contacts;
}
