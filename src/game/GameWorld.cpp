//===- game/GameWorld.cpp - The per-frame task schedule ------------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "game/GameWorld.h"

#include "offload/Accessors.h"
#include "offload/DoubleBuffer.h"
#include "offload/JobQueue.h"
#include "offload/Offload.h"
#include "offload/Parcel.h"
#include "offload/SetAssociativeCache.h"

#include <type_traits>
#include <vector>

using namespace omm;
using namespace omm::game;
using namespace omm::sim;

namespace {

/// Folds one resident region's recovery work into a frame's stats.
void addRecovery(FrameStats &Stats, const offload::RegionStats &Run) {
  Stats.FailedBlocks += Run.FailedLaunches;
  Stats.FailoverSlices += Run.RequeuedDescriptors;
  Stats.HostFallbackSlices +=
      static_cast<uint32_t>(Run.Counters.HostFallbackChunks);
}

} // namespace

GameWorld::GameWorld(Machine &M, const GameWorldParams &Params)
    : M(M), Params(Params),
      Entities(M, Params.NumEntities, Params.Seed, Params.WorldHalfExtent),
      Anim(M, Params.NumEntities) {
  Snapshot = M.allocGlobal(uint64_t(Params.NumEntities) *
                           sizeof(TargetInfo));
}

GameWorld::~GameWorld() { M.freeGlobal(Snapshot); }

uint64_t GameWorld::checksum() const {
  uint64_t Hash = Entities.checksum();
  return Hash ^ Anim.checksum();
}

uint32_t GameWorld::degradedAiEnd() const {
  uint32_t Count = Entities.size();
  if (Params.FrameBudgetCycles == 0 || DegradeLevel == 0)
    return Count;
  unsigned Level = std::min(DegradeLevel, MaxDegradeLevel);
  return Count -
         static_cast<uint32_t>(uint64_t(Count) * Level / ShedDenominator);
}

uint32_t GameWorld::degradedAnimEnd() const {
  uint32_t Count = Anim.size();
  if (Params.FrameBudgetCycles == 0 || DegradeLevel < ShedAnimFromLevel)
    return Count;
  unsigned Level =
      std::min(DegradeLevel, MaxDegradeLevel) - (ShedAnimFromLevel - 1);
  return Count -
         static_cast<uint32_t>(uint64_t(Count) * Level / ShedDenominator);
}

void GameWorld::finishFrame(FrameStats &Stats, uint64_t FrameStart) {
  ++Frame;
  Stats.FrameCycles = M.hostClock().now() - FrameStart;
  if (Params.FrameBudgetCycles == 0)
    return;
  if (Stats.FrameCycles > Params.FrameBudgetCycles) {
    // Over budget: record the miss and shed more next frame. The shed
    // work is not made up later — stale decisions and held poses are
    // the degradation contract (DESIGN.md §8).
    Stats.DeadlineMissed = true;
    ++M.hostCounters().DeadlineMissedFrames;
    M.emitFault({FaultKind::FrameDeadlineMissed, offload::NoAccelerator,
                 /*BlockId=*/0, M.hostClock().now(), Stats.FrameCycles});
    if (DegradeLevel < MaxDegradeLevel)
      ++DegradeLevel;
  } else if (DegradeLevel > 0 &&
             Stats.FrameCycles * 5 <= Params.FrameBudgetCycles * 4) {
    // Comfortably under (<= 80% of budget): restore quality one level
    // at a time, with the 80% band as hysteresis against flapping.
    --DegradeLevel;
  }
}

void GameWorld::buildTargetSnapshot() {
  uint32_t Count = Entities.size();
  for (uint32_t I = 0; I != Count; ++I) {
    auto Ptr = Entities.entity(I);
    TargetInfo Info;
    Info.Position =
        Ptr.field<Vec3>(offsetof(GameEntity, Position)).hostRead(M);
    Info.Id = I;
    M.hostWrite(Snapshot + uint64_t(I) * sizeof(TargetInfo), Info);
  }
}

void GameWorld::aiPassHost(uint32_t Begin, uint32_t End) {
  uint32_t Count = Entities.size();
  for (uint32_t I = Begin; I != End; ++I) {
    GameEntity Self = Entities.read(I);
    TargetInfo Target = M.hostRead<TargetInfo>(
        Snapshot + uint64_t(defaultTargetFor(I, Count)) *
                       sizeof(TargetInfo));
    AiDecision Decision =
        calculateStrategy(Self, Target, Params.Dt, Params.Ai);
    M.hostCompute(uint64_t(Decision.NodesEvaluated) *
                  Params.Ai.CyclesPerNode * Params.aiCostMult(I));
    Entities.write(I, Self);
  }
}

void GameWorld::aiPassOffload(offload::OffloadContext &Ctx, uint32_t Begin,
                              uint32_t End) {
  uint32_t Count = Entities.size();
  auto Base = Entities.base() + Begin;
  offload::OuterPtr<TargetInfo> Targets(Snapshot);
  float Dt = Params.Dt;
  const AiParams &Ai = Params.Ai;

  // Target snapshots are a random-access, read-only pattern with
  // temporal re-use (several entities track the same target): route
  // those reads through an associative software cache — "the programmer
  // must decide, based on profiling, which cache is most suitable for a
  // given offload" (Section 4.2).
  offload::SetAssociativeCache TargetCache(
      Ctx, offload::SetAssociativeCache::Params{128, 32, 4, 16});
  Ctx.bindCache(&TargetCache);

  bool Prefetch = Params.PrefetchAiTargets;
  offload::transformDoubleBuffered<GameEntity>(
      Ctx, Base, End - Begin, Params.AiChunkElems,
      [&](offload::ChunkView<GameEntity> &Chunk) {
        for (uint32_t I = 0, E = Chunk.size(); I != E; ++I) {
          // Overlap the next target's cache fill with this entity's
          // decision making (entity ids equal array indices, so the
          // next target is computable without touching memory).
          uint32_t Global = Begin + Chunk.firstIndex() + I;
          if (Prefetch && Global + 1 < Count)
            TargetCache.prefetch(
                (Targets + defaultTargetFor(Global + 1, Count)).addr());

          GameEntity Self = Chunk.get(I);
          uint32_t TargetId = defaultTargetFor(Self.Id, Count);
          TargetInfo Target = (Targets + TargetId).read(Ctx);
          AiDecision Decision = calculateStrategy(Self, Target, Dt, Ai);
          Ctx.compute(uint64_t(Decision.NodesEvaluated) * Ai.CyclesPerNode *
                      Params.aiCostMult(Global));
          Chunk.set(I, Self);
        }
      });

  Ctx.bindCache(nullptr);
}

void GameWorld::collisionPassHost(FrameStats &Stats) {
  std::vector<CollisionPair> Candidates =
      broadphaseHost(Entities, Params.Collision);
  std::vector<CollisionPair> Contacts =
      detectContactsHost(Entities, Candidates, Params.Collision);
  Stats.PairsTested = static_cast<uint32_t>(Candidates.size());

  // The response itself belongs to updateEntities (it mutates state the
  // offloaded AI also owns); stash the contacts for it.
  PendingContacts = std::move(Contacts);
}

void GameWorld::updateAndRender(FrameStats &Stats) {
  uint64_t Start = M.hostClock().now();

  Stats.Contacts = narrowphaseHost(Entities, PendingContacts,
                                   Params.Collision);
  PendingContacts.clear();
  physicsPassHost(Entities, Params.Dt, Params.Physics);
  uint32_t AnimEnd = degradedAnimEnd();
  Stats.AnimEntitiesShed = Anim.size() - AnimEnd;
  Anim.blendPassHost(Frame, Params.Animation, 0, AnimEnd);
  Stats.UpdateCycles = M.hostClock().now() - Start;

  // renderFrame: command submission cost on the host.
  Start = M.hostClock().now();
  M.hostCompute(uint64_t(Entities.size()) * Params.RenderCyclesPerEntity);
  Stats.RenderCycles = M.hostClock().now() - Start;
}

FrameStats GameWorld::doFrameHostOnly() {
  FrameStats Stats;
  uint64_t FrameStart = M.hostClock().now();
  uint32_t AiEnd = degradedAiEnd();
  Stats.AiEntitiesShed = Entities.size() - AiEnd;

  uint64_t Start = M.hostClock().now();
  buildTargetSnapshot();
  aiPassHost(0, AiEnd);
  Stats.AiCycles = M.hostClock().now() - Start;

  Start = M.hostClock().now();
  collisionPassHost(Stats);
  Stats.CollisionCycles = M.hostClock().now() - Start;

  updateAndRender(Stats);

  finishFrame(Stats, FrameStart);
  return Stats;
}

FrameStats GameWorld::doFrameOffloadAiParallel(unsigned MaxAccelerators) {
  FrameStats Stats;
  uint64_t FrameStart = M.hostClock().now();
  uint32_t AiCount = degradedAiEnd();
  Stats.AiEntitiesShed = Entities.size() - AiCount;

  buildTargetSnapshot();

  // One offload block per accelerator, each owning a contiguous slice.
  // The slice boundaries come from the full worker budget and never
  // move when a core refuses its slice — the slice fails over to the
  // next live core (or the host), so recovered frames compute
  // bit-identical state.
  unsigned NumAccels = M.numAccelerators();
  unsigned Workers = std::min({NumAccels, MaxAccelerators, AiCount});
  offload::OffloadGroup Group;
  uint64_t LastFinish = FrameStart;
  uint64_t HostAiEnd = FrameStart;
  if (Workers == 0) {
    // No accelerator budget at all: the host runs the whole pass, in
    // the host-only schedule's position (before collision detection).
    ++Stats.HostFallbackSlices;
    ++M.hostCounters().HostFallbackChunks;
    M.emitFault({FaultKind::HostFallback, offload::NoAccelerator,
                 /*BlockId=*/0, M.hostClock().now(), /*Detail=*/0});
    aiPassHost(0, AiCount);
    HostAiEnd = M.hostClock().now();
  }
  uint32_t PerWorker = Workers != 0 ? AiCount / Workers : 0;
  uint32_t Remainder = Workers != 0 ? AiCount % Workers : 0;
  uint32_t Begin = 0;
  for (unsigned W = 0; W != Workers; ++W) {
    uint32_t End = Begin + PerWorker + (W < Remainder ? 1 : 0);
    bool Launched = false, Retried = false;
    for (unsigned Try = 0; Try != NumAccels; ++Try) {
      unsigned A = (W + Try) % NumAccels;
      if (!M.accel(A).Alive) {
        Retried = true;
        continue;
      }
      offload::OffloadStatus St = Group.launchOn(
          M, A, [&, Begin, End](offload::OffloadContext &Ctx) {
            aiPassOffload(Ctx, Begin, End);
          });
      if (St == offload::OffloadStatus::Ok) {
        if (Retried) {
          ++Stats.FailoverSlices;
          ++M.hostCounters().FailoverChunks;
        }
        LastFinish = std::max(LastFinish, M.accel(A).FreeAt);
        Launched = true;
        break;
      }
      ++Stats.FailedBlocks;
      Retried = true;
    }
    if (!Launched) {
      ++Stats.HostFallbackSlices;
      ++M.hostCounters().HostFallbackChunks;
      M.emitFault({FaultKind::HostFallback, offload::NoAccelerator,
                   /*BlockId=*/0, M.hostClock().now(), Begin});
      aiPassHost(Begin, End);
      HostAiEnd = M.hostClock().now();
    }
    Begin = End;
  }
  Stats.AiCycles = std::max(LastFinish, HostAiEnd) - FrameStart;

  uint64_t Start = M.hostClock().now();
  collisionPassHost(Stats);
  Stats.CollisionCycles = M.hostClock().now() - Start;

  Group.joinAll(M);
  updateAndRender(Stats);

  finishFrame(Stats, FrameStart);
  return Stats;
}

FrameStats GameWorld::doFrameOffloadAiResident(unsigned MaxAccelerators,
                                               unsigned FirstAccelerator) {
  FrameStats Stats;
  uint64_t FrameStart = M.hostClock().now();
  uint32_t AiCount = degradedAiEnd();
  Stats.AiEntitiesShed = Entities.size() - AiCount;

  buildTargetSnapshot();

  // The AI pass as a dynamic queue over the resident workers: chunks
  // start at a few descriptors per worker and shrink toward
  // AiChunkElems as the queue drains. The join is inside distributeJobs
  // (the host paces the mailboxes), so unlike the block schedules the
  // collision pass does not overlap the AI — what this schedule buys is
  // launch amortization and balance, measured by experiment E10.
  offload::JobQueueOptions Opts;
  Opts.ChunkSize = Params.AiChunkElems;
  Opts.MaxWorkers = MaxAccelerators;
  Opts.FirstAccelerator = FirstAccelerator;
  Opts.Adaptive = true;
  addRecovery(Stats, offload::distributeJobs(
      M, AiCount, Opts,
      [&](auto &Ctx, uint32_t Begin, uint32_t End) {
        if constexpr (std::is_same_v<std::decay_t<decltype(Ctx)>,
                                     offload::OffloadContext>)
          aiPassOffload(Ctx, Begin, End);
        else
          aiPassHost(Begin, End);
      }));
  Stats.AiCycles = M.hostClock().now() - FrameStart;

  uint64_t Start = M.hostClock().now();
  collisionPassHost(Stats);
  Stats.CollisionCycles = M.hostClock().now() - Start;

  updateAndRender(Stats);

  finishFrame(Stats, FrameStart);
  return Stats;
}

uint32_t GameWorld::beginServedFrame() {
  ServedStats = FrameStats();
  ServedFrameStart = M.hostClock().now();
  uint32_t AiCount = degradedAiEnd();
  ServedStats.AiEntitiesShed = Entities.size() - AiCount;
  buildTargetSnapshot();
  return AiCount;
}

void GameWorld::servedAiChunk(offload::OffloadContext &Ctx, uint32_t Begin,
                              uint32_t End) {
  aiPassOffload(Ctx, Begin, End);
}

void GameWorld::servedAiChunkHost(uint32_t Begin, uint32_t End) {
  aiPassHost(Begin, End);
}

FrameStats GameWorld::finishServedFrame() {
  FrameStats Stats = ServedStats;
  Stats.AiCycles = M.hostClock().now() - ServedFrameStart;

  uint64_t Start = M.hostClock().now();
  collisionPassHost(Stats);
  Stats.CollisionCycles = M.hostClock().now() - Start;

  updateAndRender(Stats);

  finishFrame(Stats, ServedFrameStart);
  return Stats;
}

namespace {

/// True for the accelerator instantiation of a shard stage, which stages
/// the shard through local store; the HostContext instantiation (host
/// fallback) keeps plain per-entity outer accesses.
template <typename ContextT>
constexpr bool StagesInLocalStore =
    std::is_same_v<ContextT, offload::OffloadContext>;

/// Tag of the AI stage's batched target-snapshot gets (a low tag; the
/// runtime reserves the top ones).
constexpr unsigned TargetTag = 0;

} // namespace

template <typename ContextT>
void GameWorld::aiStageShard(ContextT &Ctx, uint32_t Begin, uint32_t End) {
  uint32_t Count = Entities.size();
  offload::OuterPtr<TargetInfo> Targets(Snapshot);
  auto Think = [&](uint32_t I, GameEntity &Self, const TargetInfo &Target) {
    AiDecision Decision =
        calculateStrategy(Self, Target, Params.Dt, Params.Ai);
    Ctx.compute(uint64_t(Decision.NodesEvaluated) * Params.Ai.CyclesPerNode *
                Params.aiCostMult(I));
  };
  if constexpr (StagesInLocalStore<ContextT>) {
    // The target snapshots are random-access (a hash of the id), so
    // they cannot be one contiguous get: issue all of them back to back
    // on one tag, stage the shard itself in with one bulk get while
    // they fly, and wait once (Figure 1's issue-then-wait instead of a
    // blocking transfer per read).
    uint32_t N = End - Begin;
    offload::OffloadContext::LocalScope Scope(Ctx);
    auto Local = offload::allocLocalArray<TargetInfo>(Ctx, N);
    for (uint32_t I = 0; I != N; ++I)
      Ctx.dmaGet((Local + I).addr(),
                 (Targets + defaultTargetFor(Begin + I, Count)).addr(),
                 sizeof(TargetInfo), TargetTag);
    offload::ArrayAccessor<GameEntity> Shard(Ctx, Entities.entity(Begin), N);
    Ctx.dmaWait(TargetTag);
    for (uint32_t I = 0; I != N; ++I) {
      GameEntity Self = Shard.get(I);
      Think(Begin + I, Self, (Local + I).read(Ctx));
      Shard.set(I, Self);
    }
  } else {
    for (uint32_t I = Begin; I != End; ++I) {
      GameEntity Self =
          Ctx.template outerRead<GameEntity>(Entities.entity(I).addr());
      TargetInfo Target = Ctx.template outerRead<TargetInfo>(
          (Targets + defaultTargetFor(I, Count)).addr());
      Think(I, Self, Target);
      Ctx.outerWrite(Entities.entity(I).addr(), Self);
    }
  }
}

template <typename ContextT>
void GameWorld::collisionStageShard(ContextT &Ctx, uint32_t Begin,
                                    uint32_t End, FrameStats &Stats) {
  // The whole shard stages into a plain C++ scratch copy, all pairs
  // inside it are tested in ascending (A, B) order, and the shard writes
  // back. The simulated costs are the transfers plus the per-entity
  // hash and per-test/response compute charges. Entities outside
  // [Begin, End) are never touched, which is what lets this stage run
  // while a neighbouring shard is still in its AI stage.
  uint32_t N = End - Begin;
  std::vector<GameEntity> Shard(N);
  auto TestPairs = [&] {
    for (uint32_t A = 0; A != N; ++A)
      for (uint32_t B = A + 1; B != N; ++B) {
        Ctx.compute(Params.Collision.CyclesPerPairTest);
        ++Stats.PairsTested;
        if (!spheresOverlap(Shard[A].Position, Shard[A].Radius,
                            Shard[B].Position, Shard[B].Radius))
          continue;
        Ctx.compute(Params.Collision.CyclesPerResponse);
        if (respondToCollision(Shard[A], Shard[B]))
          ++Stats.Contacts;
      }
  };
  if constexpr (StagesInLocalStore<ContextT>) {
    // One bulk get in, one bulk put out (on the accessor's destruction).
    offload::OffloadContext::LocalScope Scope(Ctx);
    offload::ArrayAccessor<GameEntity> Staged(Ctx, Entities.entity(Begin),
                                              N);
    for (uint32_t I = 0; I != N; ++I) {
      Shard[I] = Staged.get(I);
      Ctx.compute(Params.Collision.CyclesPerHash);
    }
    TestPairs();
    for (uint32_t I = 0; I != N; ++I)
      Staged.set(I, Shard[I]);
  } else {
    for (uint32_t I = 0; I != N; ++I) {
      Shard[I] = Ctx.template outerRead<GameEntity>(
          Entities.entity(Begin + I).addr());
      Ctx.compute(Params.Collision.CyclesPerHash);
    }
    TestPairs();
    for (uint32_t I = 0; I != N; ++I)
      Ctx.outerWrite(Entities.entity(Begin + I).addr(), Shard[I]);
  }
}

template <typename ContextT>
void GameWorld::physicsStageShard(ContextT &Ctx, uint32_t Begin,
                                  uint32_t End) {
  auto Integrate = [&](GameEntity &E) {
    Ctx.compute(Params.Physics.CyclesPerIntegrate);
    integrateEntity(E, Params.Dt, Params.WorldHalfExtent, Params.Physics);
  };
  if constexpr (StagesInLocalStore<ContextT>) {
    offload::OffloadContext::LocalScope Scope(Ctx);
    offload::ArrayAccessor<GameEntity> Shard(Ctx, Entities.entity(Begin),
                                             End - Begin);
    for (uint32_t I = 0; I != Shard.size(); ++I)
      Shard.update(I, Integrate);
  } else {
    for (uint32_t I = Begin; I != End; ++I) {
      GameEntity E =
          Ctx.template outerRead<GameEntity>(Entities.entity(I).addr());
      Integrate(E);
      Ctx.outerWrite(Entities.entity(I).addr(), E);
    }
  }
}

void GameWorld::blendAndRender(FrameStats &Stats) {
  uint64_t Start = M.hostClock().now();
  Anim.blendPassHost(Frame, Params.Animation, 0, Anim.size());
  Stats.UpdateCycles += M.hostClock().now() - Start;

  Start = M.hostClock().now();
  M.hostCompute(uint64_t(Entities.size()) * Params.RenderCyclesPerEntity);
  Stats.RenderCycles = M.hostClock().now() - Start;
}

FrameStats GameWorld::doFrameStaged(unsigned MaxAccelerators) {
  FrameStats Stats;
  uint64_t FrameStart = M.hostClock().now();

  buildTargetSnapshot();

  // Three resident passes with a full host round trip between them:
  // each distributeJobs opens its own pool, doorbells every shard,
  // joins, and closes before the next stage may start. Fixed-size
  // shards (no adaptive carving) so the shard boundaries — and with
  // them the collision pair set — match doFrameDataflow's exactly.
  offload::JobQueueOptions Opts;
  Opts.ChunkSize = std::max(1u, Params.StageShardElems);
  Opts.MaxWorkers = MaxAccelerators;

  uint64_t Start = M.hostClock().now();
  addRecovery(Stats, offload::distributeJobs(
      M, Entities.size(), Opts, [&](auto &Ctx, uint32_t Begin, uint32_t End) {
        aiStageShard(Ctx, Begin, End);
      }));
  Stats.AiCycles = M.hostClock().now() - Start;

  Start = M.hostClock().now();
  addRecovery(Stats, offload::distributeJobs(
      M, Entities.size(), Opts, [&](auto &Ctx, uint32_t Begin, uint32_t End) {
        collisionStageShard(Ctx, Begin, End, Stats);
      }));
  Stats.CollisionCycles = M.hostClock().now() - Start;

  Start = M.hostClock().now();
  addRecovery(Stats, offload::distributeJobs(
      M, Entities.size(), Opts, [&](auto &Ctx, uint32_t Begin, uint32_t End) {
        physicsStageShard(Ctx, Begin, End);
      }));
  Stats.UpdateCycles = M.hostClock().now() - Start;

  blendAndRender(Stats);
  finishFrame(Stats, FrameStart);
  return Stats;
}

FrameStats GameWorld::doFrameDataflow(sim::ParcelPolicy Policy,
                                      unsigned MaxAccelerators) {
  FrameStats Stats;
  uint64_t FrameStart = M.hostClock().now();

  buildTargetSnapshot();

  // One pool, one seeding pass, one join: AI shards chain into their
  // collision shard, collision into physics, entirely worker-to-worker.
  offload::DataflowOptions Opts;
  Opts.ChunkSize = std::max(1u, Params.StageShardElems);
  Opts.MaxWorkers = MaxAccelerators;
  Opts.NumStages = 3;
  Opts.Policy = Policy;
  uint64_t Start = M.hostClock().now();
  addRecovery(Stats, offload::runDataflow(
      M, Entities.size(), Opts,
      [&](auto &Ctx, const sim::WorkDescriptor &Desc) {
        switch (Desc.Kernel) {
        case 1:
          aiStageShard(Ctx, Desc.Begin, Desc.End);
          break;
        case 2:
          collisionStageShard(Ctx, Desc.Begin, Desc.End, Stats);
          break;
        default:
          physicsStageShard(Ctx, Desc.Begin, Desc.End);
          break;
        }
      }));
  // The stages pipeline, so there is no per-stage wall time to report:
  // the whole region lands in AiCycles and the frame total tells the
  // story (bench_e13 compares it against doFrameStaged's).
  Stats.AiCycles = M.hostClock().now() - Start;

  blendAndRender(Stats);
  finishFrame(Stats, FrameStart);
  return Stats;
}
