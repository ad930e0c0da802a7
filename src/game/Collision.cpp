//===- game/Collision.cpp - Broadphase and collision response ------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "game/Collision.h"

#include <algorithm>
#include <bit>
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

/// Cell coordinates a packed key can hold: |cell| < 2^20 - 1, so the
/// occupied span of an axis is at most 2^21 - 3 cells and its field,
/// which also holds one cell of margin on either side, fits 21 bits.
constexpr float CellLimit = float((1 << 20) - 1);
constexpr unsigned MaxFieldBits = 21;

/// The cell holding \p Coord.
int32_t cellOf(float Coord, float InvCell) {
  float Cell = std::floor(Coord * InvCell);
  assert(Cell > -CellLimit && Cell < CellLimit &&
         "position outside the broadphase grid's packed-key range");
  return static_cast<int32_t>(Cell);
}

/// The 13 "forward" neighbour offsets, so each unordered cell pair is
/// visited once, in the order their pairs are tested. Each is
/// lexicographically positive, so a cell's neighbour keys grow with the
/// cell's key. They lie in five rows of cells that share (X, Y): the
/// cell's own row (Z + 1 only) and the rows at (X, Y) offsets (0, 1),
/// (1, -1), (1, 0) and (1, 1) (Z - 1, Z and Z + 1).
constexpr unsigned NumRows = 5;
constexpr int8_t RowOffset[NumRows][2] = {
    {0, 0}, {0, 1}, {1, -1}, {1, 0}, {1, 1}};

struct ForwardNeighbour {
  int8_t X, Y, Z;
  /// This neighbour's row, as an index into RowOffset.
  constexpr unsigned row() const { return X == 0 ? Y : 3 + Y; }
};
constexpr ForwardNeighbour Forward[13] = {
    {1, 0, 0},  {0, 1, 0},  {0, 0, 1},  {1, 1, 0},  {1, -1, 0},
    {1, 0, 1},  {1, 0, -1}, {0, 1, 1},  {0, 1, -1}, {1, 1, 1},
    {1, 1, -1}, {1, -1, 1}, {1, -1, -1}};
static_assert([] {
  for (const ForwardNeighbour &F : Forward)
    if (RowOffset[F.row()][0] != F.X || RowOffset[F.row()][1] != F.Y)
      return false;
  return true;
}());

struct Binned {
  uint64_t Key;
  uint32_t Id;
};

/// Stable LSD radix sort of \p Bins by the low \p KeyBits bits of Key,
/// 8 bits a pass. A pass whose digit is the same for every key moves
/// nothing and is skipped.
void radixSortByKey(std::vector<Binned> &Bins, unsigned KeyBits) {
  std::vector<Binned> Scratch(Bins.size());
  for (unsigned Shift = 0; Shift < KeyBits; Shift += 8) {
    uint32_t Count[257] = {};
    for (const Binned &B : Bins)
      ++Count[((B.Key >> Shift) & 0xFF) + 1];
    if (Count[((Bins.front().Key >> Shift) & 0xFF) + 1] == Bins.size())
      continue;
    for (unsigned D = 1; D != 257; ++D)
      Count[D] += Count[D - 1];
    for (const Binned &B : Bins)
      Scratch[Count[(B.Key >> Shift) & 0xFF]++] = B;
    Bins.swap(Scratch);
  }
}

} // namespace

std::vector<CollisionPair>
omm::game::broadphaseHost(const EntityStore &Entities,
                          const CollisionParams &Params) {
  Machine &M = Entities.machine();
  uint32_t NumEntities = Entities.size();
  if (NumEntities == 0)
    return {};

  // Bin every entity, reading its bounds from main memory (costed).
  struct Snapshot {
    Vec3 Position;
    float Radius;
  };
  struct Cell {
    int32_t Axis[3];
  };
  std::vector<Snapshot> Snapshots;
  std::vector<Cell> Cells;
  Snapshots.reserve(NumEntities);
  Cells.reserve(NumEntities);
  int32_t Lo[3] = {INT32_MAX, INT32_MAX, INT32_MAX};
  int32_t Hi[3] = {INT32_MIN, INT32_MIN, INT32_MIN};
  float InvCell = 1.0f / Params.CellSize;
  for (uint32_t I = 0; I != NumEntities; ++I) {
    auto Ptr = Entities.entity(I);
    Vec3 Position = Ptr.field<Vec3>(offsetof(GameEntity, Position)).hostRead(M);
    float Radius = Ptr.field<float>(offsetof(GameEntity, Radius)).hostRead(M);
    Snapshots.push_back(Snapshot{Position, Radius});
    Cell C{{cellOf(Position.X, InvCell), cellOf(Position.Y, InvCell),
            cellOf(Position.Z, InvCell)}};
    for (unsigned A = 0; A != 3; ++A) {
      Lo[A] = std::min(Lo[A], C.Axis[A]);
      Hi[A] = std::max(Hi[A], C.Axis[A]);
    }
    Cells.push_back(C);
    M.hostCompute(Params.CyclesPerHash);
  }

  // Pack each cell into a key of three fields, X high, so the integer
  // order of keys is the lexicographic (X, Y, Z) order of cells. Field
  // A holds cell - Lo[A] + 1 and spans the occupied cells plus one on
  // either side, so adding a neighbour's key delta never carries into
  // or borrows from the next field.
  unsigned Bits[3], Shift[3];
  for (unsigned A = 0; A != 3; ++A) {
    Bits[A] = static_cast<unsigned>(
        std::bit_width(static_cast<uint32_t>(Hi[A] - Lo[A] + 2)));
    assert(Bits[A] <= MaxFieldBits && "cell span outside a key field");
  }
  Shift[2] = 0;
  Shift[1] = Bits[2];
  Shift[0] = Bits[1] + Bits[2];
  std::vector<Binned> Bins(NumEntities);
  for (uint32_t I = 0; I != NumEntities; ++I) {
    uint64_t Key = 0;
    for (unsigned A = 0; A != 3; ++A)
      Key |= uint64_t(Cells[I].Axis[A] - Lo[A] + 1) << Shift[A];
    Bins[I] = Binned{Key, I};
  }

  // Cells in key order, ids ascending within a cell: the bins were
  // pushed in id order and the sort is stable.
  radixSortByKey(Bins, Shift[0] + Bits[0]);

  // Snapshots in sorted order, each radius with the coarse test's margin
  // already applied; cell C holds sorted entities [CellBegin[C],
  // CellBegin[C + 1]).
  struct Sorted {
    Vec3 Position;
    float Reach;
    uint32_t Id;
  };
  std::vector<Sorted> Order(NumEntities);
  std::vector<uint64_t> CellKeys;
  std::vector<uint32_t> CellBegin;
  for (uint32_t I = 0; I != NumEntities; ++I) {
    const Snapshot &S = Snapshots[Bins[I].Id];
    Order[I] = Sorted{S.Position, S.Radius * 1.2f, Bins[I].Id};
    if (CellKeys.empty() || CellKeys.back() != Bins[I].Key) {
      CellKeys.push_back(Bins[I].Key);
      CellBegin.push_back(I);
    }
  }
  size_t NumCells = CellKeys.size();
  CellBegin.push_back(NumEntities);
  // A sentinel above every key ends each forward scan.
  CellKeys.push_back(UINT64_MAX);

  std::vector<CollisionPair> Pairs;
  auto Consider = [&](const Sorted &SA, const Sorted &SB) {
    // Coarse test with margin; the narrowphase does the exact test.
    if (!spheresOverlap(SA.Position, SA.Reach, SB.Position, SB.Reach))
      return;
    CollisionPair Pair;
    uint32_t First = std::min(SA.Id, SB.Id);
    uint32_t Second = std::max(SA.Id, SB.Id);
    Pair.FirstAddr = Entities.entity(First).addr().Value;
    Pair.SecondAddr = Entities.entity(Second).addr().Value;
    Pair.FirstId = First;
    Pair.SecondId = Second;
    Pairs.push_back(Pair);
  };
  // Tests the pairs of cell C with cell N, or within C when N == C.
  uint64_t Tests = 0;
  auto TestCells = [&](size_t C, size_t N) {
    uint32_t Begin = CellBegin[C], End = CellBegin[C + 1];
    if (C == N) {
      Tests += uint64_t(End - Begin) * (End - Begin - 1) / 2;
      for (uint32_t A = Begin; A != End; ++A)
        for (uint32_t B = A + 1; B != End; ++B)
          Consider(Order[A], Order[B]);
      return;
    }
    Tests += uint64_t(End - Begin) * (CellBegin[N + 1] - CellBegin[N]);
    for (uint32_t A = Begin; A != End; ++A)
      for (uint32_t B = CellBegin[N]; B != CellBegin[N + 1]; ++B)
        Consider(Order[A], Order[B]);
  };

  // Candidate pairs: within a cell, then against each forward neighbour.
  // Cells are visited in key order, so the key of each row's Z - 1 cell
  // only grows and one forward-only cursor per row finds it (a merge
  // join); the row's next two cells, if present, follow it directly.
  uint64_t RowStart[NumRows];
  for (unsigned R = 0; R != NumRows; ++R)
    RowStart[R] = static_cast<uint64_t>(
        int64_t(RowOffset[R][0]) * (int64_t(1) << Shift[0]) +
        int64_t(RowOffset[R][1]) * (int64_t(1) << Shift[1]) - 1);
  constexpr size_t NoCell = SIZE_MAX;
  size_t Cursor[NumRows] = {};
  for (size_t C = 0; C != NumCells; ++C) {
    TestCells(C, C);
    size_t Near[NumRows][3];
    for (unsigned R = 0; R != NumRows; ++R) {
      uint64_t Start = CellKeys[C] + RowStart[R];
      size_t N = Cursor[R];
      while (CellKeys[N] < Start)
        ++N;
      Cursor[R] = N;
      for (unsigned Z = 0; Z != 3; ++Z)
        Near[R][Z] = CellKeys[N] == Start + Z ? N++ : NoCell;
    }
    for (const ForwardNeighbour &F : Forward)
      if (size_t N = Near[F.row()][F.Z + 1]; N != NoCell)
        TestCells(C, N);
  }
  // The join makes no host access, so one charge for every pair test
  // reaches the same clock as one charge per test would.
  M.hostCompute(Tests * Params.CyclesPerPairTest);
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
                                    const std::vector<CollisionPair> &Pairs) {
  Machine &M = Entities.machine();
  uint32_t Contacts = 0;
  for (const CollisionPair &Pair : Pairs) {
    GameEntity First = Entities.read(Pair.FirstId);
    GameEntity Second = Entities.read(Pair.SecondId);
    M.hostCompute(CollisionParams::CyclesPerResponse);
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

    Ctx.compute(CollisionParams::CyclesPerResponse);
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
