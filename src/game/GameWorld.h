//===- game/GameWorld.h - The per-frame task schedule ----------*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 2's GameWorld::doFrame: "computation is specified as parallel,
/// distinct tasks with well defined synchronisation points executing in
/// a pre-defined and fixed schedule each frame" (Section 4). The two
/// schedules the paper compares are:
///
///   doFrameHostOnly             : calculateStrategy; detectCollisions;
///                                 updateEntities; renderFrame — all on
///                                 the host (the split-phase skeleton
///                                 below with a host AI pass).
///   doFrameOffloadAiParallel(1) : the Figure 2 schedule — strategy
///                                 calculation in one offload block on
///                                 one accelerator, collision detection
///                                 on the host in parallel, join, then
///                                 update and render.
///
/// Both produce bit-identical world state; the difference is frame time,
/// which experiment E2 compares against the paper's "~50% performance
/// increase" claim.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_GAME_GAMEWORLD_H
#define OMM_GAME_GAMEWORLD_H

#include "game/AI.h"
#include "game/Animation.h"
#include "game/Collision.h"
#include "game/EntityStore.h"
#include "game/Physics.h"
#include "offload/SetAssociativeCache.h"
#include "sim/Mailbox.h"
#include "support/Random.h"

#include <cstdint>

namespace omm::game {

/// All frame-level tuning in one place.
struct GameWorldParams {
  uint32_t NumEntities = 1000;
  uint64_t Seed = 0x0FF10AD;
  float WorldHalfExtent = 60.0f;
  static constexpr float Dt = 1.0f / 30.0f; ///< Fixed frame step.
  AiParams Ai;
  CollisionParams Collision;
  PhysicsParams Physics;
  AnimationParams Animation;
  uint64_t RenderCyclesPerEntity = 150; ///< Host-side render submission.
  uint32_t AiChunkElems = 32; ///< Double-buffer chunk for offloaded AI.
  /// Shard width of the staged schedules (doFrameStaged /
  /// doFrameDataflow): every stage — AI, shard-confined collision,
  /// physics — runs over fixed [k*N, (k+1)*N) shards of this many
  /// entities, so both schedules agree on the collision pair set. An
  /// accelerator stages a whole shard in its local store (the AI stage
  /// holds 80 bytes per entity: the entity and its target snapshot).
  uint32_t StageShardElems = 64;
  /// When true the offloaded AI pass issues an asynchronous cache
  /// prefetch for the *next* entity's target snapshot while processing
  /// the current one (the Balart-style async cache elaboration;
  /// ablation E8).
  bool PrefetchAiTargets = false;
  /// Frame cycle budget for the graceful-degradation policy; 0 means
  /// no budget (never shed, never count a missed deadline). A frame
  /// over budget raises the degradation level for following frames;
  /// a frame comfortably under (<= 80% of budget) lowers it.
  uint64_t FrameBudgetCycles = 0;
  /// Skewed entity mix: about PathologicalAiEntities entities pay
  /// PathologicalAiCostMult times the usual AI decision cost (a few
  /// squad leaders running deep planners amid a crowd of cheap
  /// followers — the load shape that makes static splits lose to
  /// stealing). The pathological entities are hash-scattered across
  /// the index range, the shape a live population has: clumps land in
  /// some dispatch chunks and not others, whatever the chunk width.
  /// Cost-only: decisions and world state are bit-identical to the
  /// uniform mix, whatever the multiplier, so every schedule still
  /// checksums alike. Defaults (0 / 1) charge exactly the historical
  /// cost.
  uint32_t PathologicalAiEntities = 0;
  uint64_t PathologicalAiCostMult = 1;

  /// Cost multiplier for entity \p EntityIndex's AI decision
  /// (SplitMix64-finalizer threshold draw; deterministic per index).
  uint64_t aiCostMult(uint32_t EntityIndex) const {
    if (PathologicalAiEntities == 0 || NumEntities == 0)
      return 1;
    return splitMix64(EntityIndex) % NumEntities < PathologicalAiEntities
               ? PathologicalAiCostMult
               : 1;
  }
};

/// Timing breakdown of one frame (simulated cycles). Dispatch, steal,
/// parcel, deadline and recovery events (failed launches are
/// LaunchFaults, host-run slices HostFallbackChunks) are machine
/// counters: snapshot Machine::totalCounters() before the frame and
/// read Machine::countersSince() after it to attribute them.
struct FrameStats {
  uint64_t FrameCycles = 0;
  uint64_t AiCycles = 0;        ///< Wall time of the AI stage (either core).
  uint64_t CollisionCycles = 0; ///< Host broadphase + narrowphase.
  uint64_t UpdateCycles = 0;    ///< Physics + animation.
  uint64_t RenderCycles = 0;
  /// In the frames whose collision pass is the host broadphase, the
  /// candidate pairs that pass its 1.2x-margin coarse test (not the
  /// pair tests it charges for; ~437 a frame on the 2,000-entity
  /// benchmark world). In the shard frames, every pair tested.
  uint32_t PairsTested = 0;
  uint32_t Contacts = 0;
  /// Descriptors a resident region re-ran on another core (zero on a
  /// healthy machine and in doFrameOffloadAiParallel): the sum of the
  /// frame's RegionStats::RequeuedDescriptors. The FailoverChunks
  /// counter is not the same count, since it also counts descriptors
  /// run away from their Home (orphaned parcels included) and slices
  /// doFrameOffloadAiParallel launched on a core other than their own.
  uint32_t FailoverSlices = 0;
  /// Graceful degradation: what this frame shed to claw back budget
  /// (lowest-priority == highest-index entities hold last frame's
  /// decision/pose).
  uint32_t AiEntitiesShed = 0;
  uint32_t AnimEntitiesShed = 0;
};

/// The game world: entities, poses, and the fixed frame schedule.
class GameWorld {
public:
  GameWorld(sim::Machine &M, const GameWorldParams &Params);
  ~GameWorld();

  sim::Machine &machine() { return M; }
  EntityStore &entities() { return Entities; }
  AnimationSystem &animation() { return Anim; }
  const GameWorldParams &params() const { return Params; }

  /// Runs one frame entirely on the host. \returns its timing breakdown.
  FrameStats doFrameHostOnly();

  /// Runs one frame with the AI pass split over up to \p MaxAccelerators
  /// accelerators, one offload block each (each double-buffering its own
  /// entity slice with its own target cache), while the host detects
  /// collisions; the join precedes updateEntities. MaxAccelerators = 1
  /// is the paper's Figure 2 schedule: one offload block on one
  /// accelerator. A faulted slice fails over to the next live
  /// accelerator, or to the host when none is left (a machine without
  /// accelerators runs its one slice there); world state stays
  /// bit-identical either way (the machine counters record the recovery
  /// work). \p MaxAccelerators must not be 0.
  FrameStats doFrameOffloadAiParallel(unsigned MaxAccelerators = ~0u);

  /// The persistent-worker schedule: the AI pass runs as adaptively
  /// sized chunks dispatched through resident workers' mailboxes
  /// (offload/JobQueue.h) instead of one block per accelerator — many
  /// chunks, one launch per core. World state is bit-identical to every
  /// other schedule, including under injected faults (a dying worker's
  /// mailbox drains back to the queue). The pool opens a worker on
  /// every accelerator of the machine; the machine counters record the
  /// dispatch and recovery work.
  FrameStats doFrameOffloadAiResident();

  /// The host-staged shard schedule: three sequential resident passes —
  /// AI, shard-confined collision, physics — each a distributeJobs
  /// region over fixed StageShardElems shards, with the host joining
  /// and re-seeding between stages (the per-stage round trip
  /// doFrameDataflow deletes). Collision is restricted to pairs whose
  /// entities share a shard, so this schedule's state differs from the
  /// global-broadphase schedules — its bit-identity partner is
  /// doFrameDataflow, which computes the same shards in dataflow order.
  FrameStats doFrameStaged(unsigned MaxAccelerators = ~0u);

  /// The parcel dataflow schedule: the same three shard stages as
  /// doFrameStaged, but chained accelerator-side — the host seeds only
  /// the AI stage, each completed AI shard spawns its collision shard
  /// as a parcel into a peer worker's mailbox (under \p Policy), and
  /// collision spawns physics the same way; the host blocks only on
  /// frame completion. Bit-identical world state to doFrameStaged by
  /// construction (stages are shard-confined, so the drain interleaving
  /// cannot matter); the machine's ParcelsSpawned counter records the
  /// parcel traffic, one deleted host round trip per parcel.
  /// ParcelPolicy::None degenerates to the AI stage alone (no
  /// continuations exist to run the later stages), so callers wanting
  /// the full frame must pass a real policy.
  FrameStats doFrameDataflow(sim::ParcelPolicy Policy = sim::ParcelPolicy::Ring,
                             unsigned MaxAccelerators = ~0u);

  /// Split-phase resident frame, for callers that interleave this
  /// world's AI stage with other work (the tenant server's cross-tenant
  /// batching: one shared dispatch carries many worlds' AI chunks).
  ///
  ///   uint32_t N = W.beginServedFrame();      // snapshot + frame start
  ///   ... run W.servedAiChunk/servedAiChunkHost over [0, N) in any
  ///       chunking (per-entity AI state is chunk-boundary independent,
  ///       the same property the adaptive resident carving relies on) ...
  ///   FrameStats S = W.finishServedFrame();   // collision + update +
  ///                                           // render + budget ladder
  ///
  /// doFrameOffloadAiResident is this skeleton with one distributeJobs
  /// region over [0, N), and doFrameHostOnly is it with one
  /// servedAiChunkHost(0, N), so world state is bit-identical to both
  /// for any chunking; frame *cycles* depend on the caller's dispatch
  /// schedule, which is the point.
  uint32_t beginServedFrame();

  /// Accelerator-side AI pass over [Begin, End): streams entities
  /// double-buffered, reads target snapshots through a software cache
  /// (random access).
  void servedAiChunk(offload::OffloadContext &Ctx, uint32_t Begin,
                     uint32_t End);

  /// servedAiChunkHost, for a dispatch body that takes its context as
  /// auto& and runs on the host when no accelerator will take a chunk.
  void servedAiChunk(offload::HostContext &, uint32_t Begin, uint32_t End) {
    servedAiChunkHost(Begin, End);
  }

  /// Host-side AI pass over [Begin, End) (reads targets with ordinary
  /// loads).
  void servedAiChunkHost(uint32_t Begin, uint32_t End);

  FrameStats finishServedFrame();

  /// Bit-exact world state checksum (entities + poses).
  uint64_t checksum() const;

  uint32_t frameIndex() const { return Frame; }

  /// Current graceful-degradation level (0 = full quality). Each level
  /// sheds one eighth of the AI pass from the top of the entity range;
  /// levels past ShedAnimFromLevel shed animation too.
  unsigned degradeLevel() const { return DegradeLevel; }

private:
  /// Degradation shed granularity: 1/ShedDenominator of the entity
  /// range per level, capped at MaxDegradeLevel (half the AI pass).
  static constexpr unsigned ShedDenominator = 8;
  static constexpr unsigned MaxDegradeLevel = 4;
  /// Animation is shed only at the deepest levels — AI decisions go
  /// stale more gracefully than poses freeze.
  static constexpr unsigned ShedAnimFromLevel = 3;

  /// End of the AI pass under the current degradation level: the
  /// highest-index (lowest-priority) entities are shed first.
  uint32_t degradedAiEnd() const;

  /// End of the animation blend under the current degradation level.
  uint32_t degradedAnimEnd() const;

  /// Frame epilogue shared by every schedule: stamps FrameCycles,
  /// advances the frame index, and applies the budget policy (count
  /// and report a missed deadline, adjust the degradation level).
  void finishFrame(FrameStats &Stats, uint64_t FrameStart);
  /// Builds the per-frame TargetInfo snapshot on the host (both
  /// schedules run this as the first step of the AI stage).
  void buildTargetSnapshot();

  /// detectCollisions: broadphase + narrowphase on the host.
  void collisionPassHost(FrameStats &Stats);

  /// The staged-schedule shard stages. Each stage's float math is
  /// written once and shared by both instantiations, so a shard
  /// computes the same entities on a resident worker as in host
  /// fallback; the staged/dataflow bit-identity rests on that. Only the
  /// data movement differs. An OffloadContext stages the whole shard
  /// in with one bulk get and out with one bulk put (an ArrayAccessor;
  /// the AI stage also batches its target-snapshot gets under one
  /// wait). A HostContext keeps one cache-modelled host access per
  /// entity. Each stage reads and writes entities in [Begin, End) only.
  template <typename ContextT>
  void aiStageShard(ContextT &Ctx, uint32_t Begin, uint32_t End);
  /// Shard-confined collision: every (A, B) pair inside the shard is
  /// tested in ascending order and resolved in place. Bumps
  /// \p Stats.PairsTested / Contacts (descriptors run exactly once even
  /// under faults, so the counts are deterministic).
  template <typename ContextT>
  void collisionStageShard(ContextT &Ctx, uint32_t Begin, uint32_t End,
                           FrameStats &Stats);
  template <typename ContextT>
  void physicsStageShard(ContextT &Ctx, uint32_t Begin, uint32_t End);

  /// Shared epilogue of the shard schedules: host-side animation blend
  /// and render submission (neither is staged), timed into \p Stats.
  void blendAndRender(FrameStats &Stats);

  /// updateEntities + renderFrame (host).
  void updateAndRender(FrameStats &Stats);

  sim::Machine &M;
  GameWorldParams Params;
  EntityStore Entities;
  AnimationSystem Anim;
  uint32_t Frame = 0;
  /// Graceful-degradation level carried across frames (see above).
  unsigned DegradeLevel = 0;
  /// Split-phase frame state (beginServedFrame/finishServedFrame).
  uint64_t ServedFrameStart = 0;
  FrameStats ServedStats;
  /// Per-frame immutable target snapshot (TargetInfo per entity).
  sim::GlobalAddr Snapshot;
  /// Contacts detected this frame, resolved in updateEntities.
  std::vector<CollisionPair> PendingContacts;
  /// The line table of servedAiChunk's target cache. Chunks run one at
  /// a time, so each chunk's cache takes it over empty instead of
  /// allocating and scanning a table of its own.
  offload::SetAssociativeCache::LineTable AiTargetLines;
};

} // namespace omm::game

#endif // OMM_GAME_GAMEWORLD_H
