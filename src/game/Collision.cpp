//===- game/Collision.cpp - Broadphase and collision response ------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "game/Collision.h"

#include <algorithm>
#include <array>
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

/// Cell coordinates the grid accepts (its packed-key range): |cell| <
/// 2^20 - 1, so an axis's occupied span, the radix key compressAxis
/// sorts by, fits 21 bits.
constexpr float CellLimit = float((1 << 20) - 1);

/// The cell holding \p Coord.
int32_t cellOf(float Coord, float InvCell) {
  float Cell = std::floor(Coord * InvCell);
  assert(Cell > -CellLimit && Cell < CellLimit &&
         "position outside the broadphase grid's packed-key range");
  return static_cast<int32_t>(Cell);
}

/// The 13 "forward" neighbour offsets, so each unordered cell pair is
/// visited once, in the order their pairs are tested. They lie in five
/// rows of cells that share (X, Y): the cell's own row (Z + 1 only) and
/// the rows at (X, Y) offsets (0, 1), (1, -1), (1, 0) and (1, 1)
/// (Z - 1, Z and Z + 1).
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

/// NeighbourRank[R][Z + 1]: the position in Forward of the neighbour in
/// row R at Z offset Z (row 0 holds only Z + 1).
constexpr auto NeighbourRank = [] {
  std::array<std::array<uint8_t, 3>, NumRows> Rank{};
  for (uint8_t F = 0; F != std::size(Forward); ++F)
    Rank[Forward[F].row()][Forward[F].Z + 1] = F;
  return Rank;
}();
static_assert([] {
  for (const ForwardNeighbour &F : Forward)
    if (RowOffset[F.row()][0] != F.X || RowOffset[F.row()][1] != F.Y)
      return false;
  return true;
}());

struct Binned {
  uint32_t Key;
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

/// Compresses one axis: \p Bins holds each entity's cell on the axis,
/// as an offset from the lowest occupied cell (at most \p MaxKey), and
/// Slot[Id] receives its slot. Occupied cells keep their order; each
/// run of empty cells between two of them shrinks to one empty slot,
/// and one empty slot lies below the first and above the last. So two
/// cells are adjacent exactly when their slots are. \returns the
/// number of slots, at most 2 × (occupied cells) + 1.
uint32_t compressAxis(std::vector<Binned> &Bins, uint32_t MaxKey,
                      std::vector<uint32_t> &Slot) {
  radixSortByKey(Bins, static_cast<unsigned>(std::bit_width(MaxKey)));
  uint32_t Prev = Bins.front().Key, S = 1;
  for (const Binned &B : Bins) {
    if (B.Key != Prev)
      S += B.Key == Prev + 1 ? 1 : 2;
    Prev = B.Key;
    Slot[B.Id] = S;
  }
  return S + 2;
}

/// The most cells the grid index of \p NumEntities entities may hold:
/// 2^20 + 64 per entity, so the index costs at most 4 MiB plus 256
/// bytes an entity. A dense or clustered world needs a few cells an
/// entity; only one whose entities are spread out on every axis at
/// once needs more (up to (2 × N + 1)^3).
uint64_t maxIndexCells(uint32_t NumEntities) {
  return (uint64_t(1) << 20) + 64 * uint64_t(NumEntities);
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

  // Index every cell of the compressed grid, X major, so index order is
  // the lexicographic (X, Y, Z) order of cells and a cell's neighbour
  // at (DX, DY, DZ) is DX × Size[1] × Size[2] + DY × Size[2] + DZ
  // indices away. The index may hold at most maxIndexCells(NumEntities)
  // cells, checked before each axis is folded into CellIndex, so no
  // index overflows 32 bits.
  uint32_t Size[3];
  uint64_t NumSlots = 1;
  std::vector<uint32_t> CellIndex(NumEntities, 0), Slot(NumEntities);
  std::vector<Binned> Bins(NumEntities);
  for (unsigned A = 0; A != 3; ++A) {
    for (uint32_t I = 0; I != NumEntities; ++I)
      Bins[I] = Binned{static_cast<uint32_t>(Cells[I].Axis[A] - Lo[A]), I};
    Size[A] = compressAxis(Bins, static_cast<uint32_t>(Hi[A] - Lo[A]), Slot);
    NumSlots *= Size[A];
    assert(NumSlots <= maxIndexCells(NumEntities) &&
           "world too sparse for the broadphase grid index");
    for (uint32_t I = 0; I != NumEntities; ++I)
      CellIndex[I] = CellIndex[I] * Size[A] + Slot[I];
  }

  // Counting sort into the index, ids ascending within a cell (entities
  // are placed in id order); then CellBegin[C] is the first sorted
  // entity of cell C and CellBegin[C + 1] one past its last.
  std::vector<uint32_t> CellBegin(NumSlots + 2, 0);
  for (uint32_t C : CellIndex)
    ++CellBegin[C + 2];
  for (uint64_t C = 2; C < NumSlots + 2; ++C)
    CellBegin[C] += CellBegin[C - 1];
  // Sorted entities as parallel arrays, each radius with the coarse
  // test's margin already applied.
  std::vector<float> X(NumEntities), Y(NumEntities), Z(NumEntities),
      Reach(NumEntities);
  std::vector<uint32_t> Id(NumEntities), SortedCell(NumEntities);
  for (uint32_t I = 0; I != NumEntities; ++I) {
    uint32_t P = CellBegin[CellIndex[I] + 1]++;
    X[P] = Snapshots[I].Position.X;
    Y[P] = Snapshots[I].Position.Y;
    Z[P] = Snapshots[I].Position.Z;
    Reach[P] = Snapshots[I].Radius * 1.2f;
    Id[P] = I;
    SortedCell[P] = CellIndex[I];
  }

  // Writes to Hits the sorted entities in [Begin, End) whose sphere
  // overlaps A's, without a branch per test, and \returns how many.
  // It evaluates spheresOverlap(A, B) exactly.
  std::vector<uint32_t> Hits(NumEntities);
  auto Overlapping = [&](uint32_t A, uint32_t Begin, uint32_t End) {
    float AX = X[A], AY = Y[A], AZ = Z[A], AReach = Reach[A];
    uint32_t Count = 0;
    for (uint32_t B = Begin; B != End; ++B) {
      float DX = AX - X[B], DY = AY - Y[B], DZ = AZ - Z[B];
      float R = AReach + Reach[B];
      Hits[Count] = B;
      Count += DX * DX + DY * DY + DZ * DZ <= R * R;
    }
    return Count;
  };
  std::vector<CollisionPair> Pairs;
  auto Emit = [&](uint32_t A, uint32_t B) {
    CollisionPair Pair;
    uint32_t First = std::min(Id[A], Id[B]);
    uint32_t Second = std::max(Id[A], Id[B]);
    Pair.FirstAddr = Entities.entity(First).addr().Value;
    Pair.SecondAddr = Entities.entity(Second).addr().Value;
    Pair.FirstId = First;
    Pair.SecondId = Second;
    Pairs.push_back(Pair);
  };

  // Candidate pairs, cell by cell in index order: within the cell, then
  // against the forward neighbours. Each of the five neighbour rows is
  // one contiguous run of sorted entities (Z + 1 alone in the cell's
  // own row, Z - 1 to Z + 1 in the others), so each is tested as one
  // span; the few hits are then sorted back into Forward order.
  int64_t RowStep[NumRows];
  for (unsigned R = 0; R != NumRows; ++R)
    RowStep[R] = int64_t(RowOffset[R][0]) * Size[1] * Size[2] +
                 int64_t(RowOffset[R][1]) * Size[2];
  struct NeighbourHit {
    uint32_t Rank, A, B;
  };
  std::vector<NeighbourHit> Found;
  uint64_t Tests = 0;
  for (uint32_t Begin = 0, End; Begin != NumEntities; Begin = End) {
    uint32_t C = SortedCell[Begin];
    End = CellBegin[C + 1];
    Tests += uint64_t(End - Begin) * (End - Begin - 1) / 2;
    for (uint32_t A = Begin; A != End; ++A)
      for (uint32_t H = 0, N = Overlapping(A, A + 1, End); H != N; ++H)
        Emit(A, Hits[H]);

    Found.clear();
    for (unsigned R = 0; R != NumRows; ++R) {
      uint64_t Row = C + RowStep[R];
      uint32_t First = CellBegin[R == 0 ? Row + 1 : Row - 1];
      uint32_t Last = CellBegin[Row + 2];
      if (First == Last)
        continue;
      Tests += uint64_t(End - Begin) * (Last - First);
      for (uint32_t A = Begin; A != End; ++A)
        for (uint32_t H = 0, N = Overlapping(A, First, Last); H != N; ++H) {
          uint32_t B = Hits[H];
          unsigned DZ = B < CellBegin[Row] ? 0 : B < CellBegin[Row + 1] ? 1 : 2;
          Found.push_back(NeighbourHit{NeighbourRank[R][DZ], A, B});
        }
    }
    // Hits were found row by row, each row's in (A, B) order; a stable
    // sort by neighbour rank gives the (neighbour, A, B) test order.
    std::stable_sort(Found.begin(), Found.end(),
                     [](const NeighbourHit &L, const NeighbourHit &R) {
                       return L.Rank < R.Rank;
                     });
    for (const NeighbourHit &Hit : Found)
      Emit(Hit.A, Hit.B);
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
