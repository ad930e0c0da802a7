//===- tests/game_collision_test.cpp - Collision pipeline tests ------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "game/Collision.h"

#include "dmacheck/DmaRaceChecker.h"
#include "game/GameWorld.h"
#include "offload/Offload.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <map>
#include <set>

using namespace omm;
using namespace omm::game;
using namespace omm::sim;

TEST(CollisionResponse, NonOverlappingPairsUntouched) {
  GameEntity A{}, B{};
  A.Position = Vec3(0, 0, 0);
  A.Radius = 1.0f;
  B.Position = Vec3(10, 0, 0);
  B.Radius = 1.0f;
  GameEntity A0 = A, B0 = B;
  EXPECT_FALSE(respondToCollision(A, B));
  EXPECT_EQ(A.mixInto(1), A0.mixInto(1));
  EXPECT_EQ(B.mixInto(1), B0.mixInto(1));
}

TEST(CollisionResponse, OverlappingPairsSeparate) {
  GameEntity A{}, B{};
  A.Position = Vec3(0, 0, 0);
  A.Radius = 1.0f;
  B.Position = Vec3(1, 0, 0); // Overlap of 1 unit.
  B.Radius = 1.0f;
  EXPECT_TRUE(respondToCollision(A, B));
  float Dist = (B.Position - A.Position).length();
  EXPECT_NEAR(Dist, A.Radius + B.Radius, 1e-4f);
  EXPECT_EQ(A.HitCount, 1u);
  EXPECT_EQ(B.HitCount, 1u);
  EXPECT_LT(A.Health, 0.01f); // Damage applied (started at 0).
}

TEST(CollisionResponse, MomentumExchangeIsSymmetric) {
  GameEntity A{}, B{};
  A.Position = Vec3(0, 0, 0);
  A.Radius = 1.0f;
  A.Velocity = Vec3(2, 0, 0);
  B.Position = Vec3(1.5f, 0, 0);
  B.Radius = 1.0f;
  B.Velocity = Vec3(-2, 0, 0);
  Vec3 TotalBefore = A.Velocity + B.Velocity;
  EXPECT_TRUE(respondToCollision(A, B));
  Vec3 TotalAfter = A.Velocity + B.Velocity;
  // Equal masses, equal-and-opposite impulse: total momentum conserved.
  EXPECT_NEAR(TotalBefore.X, TotalAfter.X, 1e-4f);
  EXPECT_NEAR(TotalBefore.Y, TotalAfter.Y, 1e-4f);
  // The approach speed decreased.
  EXPECT_LT(std::abs((B.Velocity - A.Velocity).X),
            std::abs(4.0f));
}

TEST(CollisionResponse, CoincidentCentersStillSeparate) {
  GameEntity A{}, B{};
  A.Position = B.Position = Vec3(5, 5, 5);
  A.Radius = B.Radius = 1.0f;
  EXPECT_TRUE(respondToCollision(A, B));
  EXPECT_GT((B.Position - A.Position).length(), 1.0f);
}

namespace {

/// A world with two known overlapping entities and the rest far away.
struct PairedWorld {
  PairedWorld() : Store(M, 64, 99, 400.0f) {
    GameEntity A = Store.peek(0);
    A.Position = Vec3(0, 0, 0);
    A.Radius = 2.0f;
    Store.poke(0, A);
    GameEntity B = Store.peek(1);
    B.Position = Vec3(1, 0, 0);
    B.Radius = 2.0f;
    Store.poke(1, B);
  }

  Machine M;
  EntityStore Store;
};

} // namespace

TEST(Broadphase, FindsKnownOverlap) {
  PairedWorld World;
  auto Pairs = broadphaseHost(World.Store, CollisionParams());
  bool Found = false;
  for (const CollisionPair &Pair : Pairs)
    if (Pair.FirstId == 0 && Pair.SecondId == 1)
      Found = true;
  EXPECT_TRUE(Found);
}

TEST(Broadphase, PairsAreCanonicalAndUnique) {
  Machine M;
  EntityStore Store(M, 300, 5, 30.0f); // Dense world: many pairs.
  auto Pairs = broadphaseHost(Store, CollisionParams());
  ASSERT_FALSE(Pairs.empty());
  std::set<std::pair<uint32_t, uint32_t>> Seen;
  for (const CollisionPair &Pair : Pairs) {
    EXPECT_LT(Pair.FirstId, Pair.SecondId);
    EXPECT_TRUE(Seen.insert({Pair.FirstId, Pair.SecondId}).second)
        << "duplicate pair";
  }
}

TEST(Broadphase, ChargesHostTime) {
  Machine M;
  EntityStore Store(M, 100, 5, 30.0f);
  uint64_t Before = M.hostClock().now();
  broadphaseHost(Store, CollisionParams());
  EXPECT_GT(M.hostClock().now(), Before);
}

namespace {

/// Integer cell coordinate key with a total order (deterministic
/// iteration; see the LLVM guidance on pointer/unordered iteration).
struct CellKey {
  int32_t X, Y, Z;
  bool operator<(const CellKey &O) const {
    if (X != O.X)
      return X < O.X;
    if (Y != O.Y)
      return Y < O.Y;
    return Z < O.Z;
  }
};

/// The broadphase as first written, over a std::map grid: the oracle
/// for broadphaseHost's pair order and simulated cost.
std::vector<CollisionPair>
referenceBroadphase(const EntityStore &Entities,
                    const CollisionParams &Params) {
  Machine &M = Entities.machine();

  // Bin every entity, reading its bounds from main memory (costed).
  struct Snapshot {
    Vec3 Position;
    float Radius;
    uint32_t Id;
  };
  std::vector<Snapshot> Snapshots;
  Snapshots.reserve(Entities.size());
  std::map<CellKey, std::vector<uint32_t>> Grid;
  float InvCell = 1.0f / Params.CellSize;
  for (uint32_t I = 0, E = Entities.size(); I != E; ++I) {
    auto Ptr = Entities.entity(I);
    Vec3 Position = Ptr.field<Vec3>(offsetof(GameEntity, Position)).hostRead(M);
    float Radius = Ptr.field<float>(offsetof(GameEntity, Radius)).hostRead(M);
    Snapshots.push_back(Snapshot{Position, Radius, I});
    CellKey Key{static_cast<int32_t>(std::floor(Position.X * InvCell)),
                static_cast<int32_t>(std::floor(Position.Y * InvCell)),
                static_cast<int32_t>(std::floor(Position.Z * InvCell))};
    Grid[Key].push_back(I);
    M.hostCompute(Params.CyclesPerHash);
  }

  // Candidate pairs: within a cell, and against the 13 "forward"
  // neighbour cells so each unordered cell pair is visited once.
  static constexpr int32_t Forward[13][3] = {
      {1, 0, 0},  {0, 1, 0},  {0, 0, 1},  {1, 1, 0},  {1, -1, 0},
      {1, 0, 1},  {1, 0, -1}, {0, 1, 1},  {0, 1, -1}, {1, 1, 1},
      {1, 1, -1}, {1, -1, 1}, {1, -1, -1}};

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
    uint32_t First = std::min(SA.Id, SB.Id);
    uint32_t Second = std::max(SA.Id, SB.Id);
    Pair.FirstAddr = Entities.entity(First).addr().Value;
    Pair.SecondAddr = Entities.entity(Second).addr().Value;
    Pair.FirstId = First;
    Pair.SecondId = Second;
    Pairs.push_back(Pair);
  };

  for (const auto &[Key, Cell] : Grid) {
    for (size_t A = 0; A != Cell.size(); ++A)
      for (size_t B = A + 1; B != Cell.size(); ++B)
        Consider(Cell[A], Cell[B]);
    for (const auto &Offset : Forward) {
      CellKey Neighbour{Key.X + Offset[0], Key.Y + Offset[1],
                        Key.Z + Offset[2]};
      auto It = Grid.find(Neighbour);
      if (It == Grid.end())
        continue;
      for (uint32_t A : Cell)
        for (uint32_t B : It->second)
          Consider(A, B);
    }
  }
  return Pairs;
}

/// Host accesses in order, timed relative to the first one.
struct HostAccessLog : DmaObserver {
  std::vector<std::array<uint64_t, 4>> Accesses;
  void onHostAccess(GlobalAddr Addr, uint64_t Size, bool IsWrite,
                    uint64_t Time) override {
    Accesses.push_back({Addr.Value, Size, IsWrite, Time});
  }
};

struct BroadphaseRun {
  std::vector<CollisionPair> Pairs;
  uint64_t HostCycles;
  PerfCounters Counters;
  HostAccessLog Log;
};

template <typename BroadphaseFn>
BroadphaseRun runBroadphase(BroadphaseFn Broadphase,
                            const EntityStore &Store) {
  Machine &M = Store.machine();
  BroadphaseRun Run;
  M.addObserver(&Run.Log);
  uint64_t Start = M.hostClock().now();
  PerfCounters Before = M.totalCounters();
  Run.Pairs = Broadphase(Store, CollisionParams());
  Run.HostCycles = M.hostClock().now() - Start;
  Run.Counters = M.countersSince(Before);
  M.removeObserver(&Run.Log);
  for (auto &Access : Run.Log.Accesses)
    Access[3] -= Start;
  return Run;
}

/// Both broadphases over the same (unmodified) store must produce the
/// same pairs in the same order at the same simulated cost. Every world
/// must test some pair, so the cost check covers the join; \p HasPairs
/// is false only for a world too sparse for any candidate to survive.
void expectMatchesReference(const EntityStore &Store, bool HasPairs = true) {
  BroadphaseRun Ref = runBroadphase(referenceBroadphase, Store);
  BroadphaseRun Got = runBroadphase(broadphaseHost, Store);
  ASSERT_GT(Ref.Counters.ComputeCycles,
            uint64_t(Store.size()) * CollisionParams().CyclesPerHash);
  ASSERT_NE(Ref.Pairs.empty(), HasPairs);
  ASSERT_EQ(Got.Pairs.size(), Ref.Pairs.size());
  for (size_t I = 0; I != Ref.Pairs.size(); ++I) {
    EXPECT_EQ(Got.Pairs[I].FirstId, Ref.Pairs[I].FirstId) << "pair " << I;
    EXPECT_EQ(Got.Pairs[I].SecondId, Ref.Pairs[I].SecondId) << "pair " << I;
    EXPECT_EQ(Got.Pairs[I].FirstAddr, Ref.Pairs[I].FirstAddr) << "pair " << I;
    EXPECT_EQ(Got.Pairs[I].SecondAddr, Ref.Pairs[I].SecondAddr)
        << "pair " << I;
  }
  EXPECT_EQ(Got.HostCycles, Ref.HostCycles);
  EXPECT_EQ(Got.Counters.HostLoads, Ref.Counters.HostLoads);
  EXPECT_EQ(Got.Counters.ComputeCycles, Ref.Counters.ComputeCycles);
  EXPECT_EQ(Got.Log.Accesses, Ref.Log.Accesses);
}

void placeEntity(EntityStore &Store, uint32_t Index, Vec3 Position,
                 float Radius) {
  GameEntity Entity = Store.peek(Index);
  Entity.Position = Position;
  Entity.Radius = Radius;
  Store.poke(Index, Entity);
}

} // namespace

TEST(Broadphase, MatchesReferenceOrderAndCost) {
  {
    SCOPED_TRACE("2000 entities at extent 100");
    Machine M;
    expectMatchesReference(EntityStore(M, 2000, 7, 100.0f));
  }
  {
    SCOPED_TRACE("dense 300 entities at extent 30");
    Machine M;
    expectMatchesReference(EntityStore(M, 300, 5, 30.0f));
  }
  {
    SCOPED_TRACE("every entity inside one cell");
    Machine M;
    EntityStore Store(M, 100, 11, 30.0f);
    for (uint32_t I = 0; I != Store.size(); ++I)
      placeEntity(Store, I,
                  Vec3(8.25f + 0.5f * float(I % 15),
                       8.25f + 0.5f * float(I / 15 % 15),
                       8.25f + 0.5f * float(I % 7)),
                  1.0f);
    expectMatchesReference(Store);
  }
  {
    SCOPED_TRACE("entities exactly on cell boundaries");
    const float Coords[] = {-16.0f, -8.0f, -0.0f, 0.0f, 8.0f};
    Machine M;
    EntityStore Store(M, 125, 13, 30.0f);
    for (uint32_t I = 0; I != Store.size(); ++I)
      placeEntity(Store, I,
                  Vec3(Coords[I % 5], Coords[I / 5 % 5], Coords[I / 25]),
                  5.0f);
    expectMatchesReference(Store);
  }
  {
    SCOPED_TRACE("clustered world after 200 host-only frames");
    Machine M;
    GameWorld World(M, GameWorldParams());
    for (int Frame = 0; Frame != 200; ++Frame)
      World.doFrameHostOnly();
    expectMatchesReference(World.entities());
  }
  // The tenant worlds: the smallest and largest entity counts
  // serve_tenants draws, at the default extent of 60. The 96-entity
  // world is sparse enough that no candidate passes the coarse test, so
  // only its pair-test count is compared.
  for (uint32_t Count : {96u, 768u}) {
    SCOPED_TRACE(std::to_string(Count) + " entities at extent 60");
    Machine M;
    GameWorldParams Params;
    Params.NumEntities = Count;
    GameWorld World(M, Params);
    for (int Frame = 0; Frame != 100; ++Frame)
      World.doFrameHostOnly();
    expectMatchesReference(World.entities(), /*HasPairs=*/Count != 96);
  }
  {
    // Every key field at its widest: entities in the outermost cells a
    // packed key holds, +-(2^20 - 2) on every axis, with touching pairs
    // across the last cell boundary, plus a dense cluster at the origin.
    SCOPED_TRACE("outermost cells on every axis plus an origin cluster");
    constexpr float Edge = 8388592.0f; // Cell 2^20 - 2.
    Machine M;
    EntityStore Store(M, 128, 19, 30.0f);
    uint32_t I = 0;
    for (; I != 64; ++I)
      placeEntity(Store, I,
                  Vec3(-4.0f + 0.5f * float(I % 16), -2.0f + float(I / 16),
                       -1.0f + 0.25f * float(I % 8)),
                  1.0f);
    for (uint32_t Corner = 0; Corner != 8; ++Corner) {
      Vec3 Sign(Corner & 1 ? -1.0f : 1.0f, Corner & 2 ? -1.0f : 1.0f,
                Corner & 4 ? -1.0f : 1.0f);
      for (float Inset : {0.0f, 1.0f, 2.0f})
        placeEntity(Store, I++,
                    Vec3(Sign.X * (Edge - Inset), Sign.Y * Edge,
                         Sign.Z * Edge),
                    1.5f);
      // One cell in from the corner on each axis, touching the corner.
      placeEntity(Store, I++, Vec3(Sign.X * Edge, Sign.Y * Edge,
                                   Sign.Z * (Edge - 1.0f)), 1.5f);
      placeEntity(Store, I++, Vec3(Sign.X * Edge, Sign.Y * (Edge - 1.0f),
                                   Sign.Z * Edge), 1.5f);
      placeEntity(Store, I++, Vec3(Sign.X * (Edge - 8.0f), Sign.Y * Edge,
                                   Sign.Z * Edge), 1.5f);
      placeEntity(Store, I++, Vec3(Sign.X * Edge, Sign.Y * (Edge - 8.0f),
                                   Sign.Z * (Edge - 8.0f)), 1.5f);
      placeEntity(Store, I++, Vec3(Sign.X * (Edge - 8.0f),
                                   Sign.Y * (Edge - 8.0f),
                                   Sign.Z * (Edge - 8.0f)), 1.5f);
    }
    ASSERT_EQ(I, Store.size());
    expectMatchesReference(Store);
  }
}

TEST(BroadphaseDeath, PositionOutsidePackedKeyRangeAborts) {
  // At the default 8-unit cell, +-8388592 lies in cell +-(2^20 - 2), the
  // outermost cell a packed key holds; 8388600 is one cell further.
  Machine M;
  EntityStore Store(M, 2, 3, 10.0f);
  placeEntity(Store, 0, Vec3(8388592.0f, -8388592.0f, 0.0f), 1.0f);
  placeEntity(Store, 1, Vec3(0.0f, 0.0f, -8388592.0f), 1.0f);
  EXPECT_TRUE(broadphaseHost(Store, CollisionParams()).empty());
  placeEntity(Store, 1, Vec3(8388600.0f, 0.0f, 0.0f), 1.0f);
  EXPECT_DEATH(broadphaseHost(Store, CollisionParams()), "packed-key range");
}

TEST(DetectContacts, FiltersToExactOverlaps) {
  PairedWorld World;
  CollisionParams Params;
  auto Candidates = broadphaseHost(World.Store, Params);
  auto Contacts = detectContactsHost(World.Store, Candidates, Params);
  EXPECT_LE(Contacts.size(), Candidates.size());
  bool Found = false;
  for (const CollisionPair &Pair : Contacts)
    if (Pair.FirstId == 0 && Pair.SecondId == 1)
      Found = true;
  EXPECT_TRUE(Found);
}

namespace {

/// Runs narrowphase on two identical worlds, host vs offload style, and
/// expects identical final state.
void compareHostAndOffloadNarrowphase(DmaStyle Style) {
  CollisionParams Params;

  Machine MHost;
  EntityStore HostStore(MHost, 200, 17, 25.0f);
  auto Pairs = broadphaseHost(HostStore, Params);
  ASSERT_FALSE(Pairs.empty());
  uint32_t HostContacts = narrowphaseHost(HostStore, Pairs);
  uint64_t HostChecksum = HostStore.checksum();

  Machine MAccel;
  EntityStore AccelStore(MAccel, 200, 17, 25.0f);
  auto AccelPairs = broadphaseHost(AccelStore, Params);
  ASSERT_EQ(AccelPairs.size(), Pairs.size());
  GlobalAddr PairsAddr = materializePairs(MAccel, AccelPairs);
  uint32_t AccelContacts = 0;
  offload::offloadSync(MAccel, [&](offload::OffloadContext &Ctx) {
    AccelContacts = narrowphaseOffload(
        Ctx, PairsAddr, static_cast<uint32_t>(AccelPairs.size()), Style);
  });

  EXPECT_EQ(HostContacts, AccelContacts);
  EXPECT_EQ(HostChecksum, AccelStore.checksum());
}

} // namespace

TEST(Narrowphase, OffloadOverlappedMatchesHost) {
  compareHostAndOffloadNarrowphase(DmaStyle::OverlappedTags);
}

TEST(Narrowphase, OffloadSerialisedMatchesHost) {
  compareHostAndOffloadNarrowphase(DmaStyle::Serialised);
}

TEST(Narrowphase, OffloadDmaListMatchesHost) {
  compareHostAndOffloadNarrowphase(DmaStyle::DmaList);
}

TEST(Narrowphase, DmaListBeatsOverlappedTags) {
  // One getl command per pair: a single startup latency where the
  // overlapped idiom pipelines two.
  CollisionParams Params;
  uint64_t Times[2];
  for (int Case = 0; Case != 2; ++Case) {
    Machine M;
    EntityStore Store(M, 200, 17, 25.0f);
    auto Pairs = broadphaseHost(Store, Params);
    GlobalAddr PairsAddr = materializePairs(M, Pairs);
    offload::offloadSync(M, [&](offload::OffloadContext &Ctx) {
      uint64_t Start = Ctx.clock().now();
      narrowphaseOffload(Ctx, PairsAddr, static_cast<uint32_t>(Pairs.size()),
                         Case == 0 ? DmaStyle::DmaList
                                   : DmaStyle::OverlappedTags);
      Times[Case] = Ctx.clock().now() - Start;
    });
  }
  EXPECT_LT(Times[0], Times[1]);
}

TEST(Narrowphase, OverlappedTagsAreFasterThanSerialised) {
  CollisionParams Params;
  uint64_t Times[2];
  for (int Case = 0; Case != 2; ++Case) {
    Machine M;
    EntityStore Store(M, 200, 17, 25.0f);
    auto Pairs = broadphaseHost(Store, Params);
    GlobalAddr PairsAddr = materializePairs(M, Pairs);
    offload::offloadSync(M, [&](offload::OffloadContext &Ctx) {
      uint64_t Start = Ctx.clock().now();
      narrowphaseOffload(Ctx, PairsAddr, static_cast<uint32_t>(Pairs.size()),
                         Case == 0 ? DmaStyle::OverlappedTags
                                   : DmaStyle::Serialised);
      Times[Case] = Ctx.clock().now() - Start;
    });
  }
  EXPECT_LT(Times[0], Times[1]);
}

TEST(Narrowphase, MissingWaitIsCaughtByChecker) {
  // Figure 1 with the dma_wait omitted: the functional result is still
  // produced (the simulator copies eagerly) but the race checker reports
  // the read-before-wait on e1/e2.
  Machine M;
  DiagSink Diags;
  dmacheck::DmaRaceChecker Checker(Diags);
  M.addObserver(&Checker);

  EntityStore Store(M, 64, 23, 10.0f);
  CollisionParams Params;
  auto Pairs = broadphaseHost(Store, Params);
  ASSERT_FALSE(Pairs.empty());
  GlobalAddr PairsAddr = materializePairs(M, Pairs);
  offload::offloadSync(M, [&](offload::OffloadContext &Ctx) {
    narrowphaseOffload(Ctx, PairsAddr, static_cast<uint32_t>(Pairs.size()),
                       DmaStyle::MissingWait);
  });
  EXPECT_GT(Checker.raceCount(dmacheck::RaceKind::CoreAccessDuringGet), 0u);
  EXPECT_TRUE(Diags.containsMessage("missing dma_wait"));
}

TEST(Narrowphase, CorrectStylesAreCheckerClean) {
  Machine M;
  DiagSink Diags;
  dmacheck::DmaRaceChecker Checker(Diags);
  M.addObserver(&Checker);

  EntityStore Store(M, 64, 23, 10.0f);
  CollisionParams Params;
  auto Pairs = broadphaseHost(Store, Params);
  GlobalAddr PairsAddr = materializePairs(M, Pairs);
  offload::offloadSync(M, [&](offload::OffloadContext &Ctx) {
    narrowphaseOffload(Ctx, PairsAddr, static_cast<uint32_t>(Pairs.size()),
                       DmaStyle::OverlappedTags);
  });
  EXPECT_EQ(Checker.raceCount(), 0u) << "Figure 1 idiom must be race-free";
}
