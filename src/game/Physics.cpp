//===- game/Physics.cpp - Entity integration -----------------------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "game/Physics.h"

#include "offload/DoubleBuffer.h"

using namespace omm;
using namespace omm::game;

void omm::game::integrateEntity(GameEntity &E, float Dt,
                                float WorldHalfExtent) {
  E.Position += E.Velocity * Dt;
  E.Velocity = E.Velocity * PhysicsParams::Damping;

  // Bounce off the world box.
  auto Bounce = [&](float &Coord, float &Vel) {
    if (Coord > WorldHalfExtent) {
      Coord = WorldHalfExtent;
      Vel = -Vel;
    } else if (Coord < -WorldHalfExtent) {
      Coord = -WorldHalfExtent;
      Vel = -Vel;
    }
  };
  Bounce(E.Position.X, E.Velocity.X);
  Bounce(E.Position.Y, E.Velocity.Y);
  Bounce(E.Position.Z, E.Velocity.Z);
}

void omm::game::physicsPassHost(EntityStore &Entities, float Dt,
                                const PhysicsParams &Params) {
  sim::Machine &M = Entities.machine();
  for (uint32_t I = 0, E = Entities.size(); I != E; ++I) {
    GameEntity Entity = Entities.read(I);
    integrateEntity(Entity, Dt, Entities.worldHalfExtent());
    M.hostCompute(Params.CyclesPerIntegrate);
    Entities.write(I, Entity);
  }
}

void omm::game::physicsPassOffload(offload::OffloadContext &Ctx,
                                   EntityStore &Entities, float Dt,
                                   const PhysicsParams &Params,
                                   uint32_t ChunkElems) {
  float HalfExtent = Entities.worldHalfExtent();
  offload::transformDoubleBuffered<GameEntity>(
      Ctx, Entities.base(), Entities.size(), ChunkElems,
      [&](offload::ChunkView<GameEntity> &Chunk) {
        for (uint32_t I = 0, E = Chunk.size(); I != E; ++I) {
          Chunk.update(I, [&](GameEntity &Entity) {
            integrateEntity(Entity, Dt, HalfExtent);
          });
          Ctx.compute(Params.CyclesPerIntegrate);
        }
      });
}
