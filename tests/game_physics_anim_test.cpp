//===- tests/game_physics_anim_test.cpp - Physics/animation tests ----------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "game/Animation.h"
#include "game/Physics.h"
#include "offload/Offload.h"

#include <gtest/gtest.h>

using namespace omm::game;
using namespace omm::sim;

TEST(Physics, IntegrationMovesByVelocity) {
  GameEntity E{};
  E.Position = Vec3(0, 0, 0);
  E.Velocity = Vec3(10, -5, 2);
  integrateEntity(E, 0.1f, 100.0f);
  EXPECT_NEAR(E.Position.X, 1.0f, 1e-5f);
  EXPECT_NEAR(E.Position.Y, -0.5f, 1e-5f);
  EXPECT_NEAR(E.Position.Z, 0.2f, 1e-5f);
}

TEST(Physics, DampingSlowsEntities) {
  GameEntity E{};
  E.Velocity = Vec3(10, 0, 0);
  integrateEntity(E, 0.1f, 100.0f);
  EXPECT_LT(E.Velocity.X, 10.0f);
  EXPECT_GT(E.Velocity.X, 9.0f);
}

TEST(Physics, BouncesOffWorldBounds) {
  GameEntity E{};
  E.Position = Vec3(99.9f, 0, 0);
  E.Velocity = Vec3(50, 0, 0);
  integrateEntity(E, 1.0f, 100.0f);
  EXPECT_EQ(E.Position.X, 100.0f); // Clamped to the wall...
  EXPECT_LT(E.Velocity.X, 0.0f);   // ...and reflected.
}

TEST(Physics, EntitiesStayInsideBoundsOverManySteps) {
  GameEntity E{};
  E.Position = Vec3(0, 0, 0);
  E.Velocity = Vec3(37, -23, 51);
  for (int I = 0; I != 1000; ++I) {
    integrateEntity(E, 0.05f, 20.0f);
    ASSERT_LE(std::abs(E.Position.X), 20.0f);
    ASSERT_LE(std::abs(E.Position.Y), 20.0f);
    ASSERT_LE(std::abs(E.Position.Z), 20.0f);
  }
}

TEST(Physics, HostAndOffloadPassesAgreeBitExactly) {
  Machine MHost, MAccel;
  EntityStore HostStore(MHost, 333, 11, 40.0f);
  EntityStore AccelStore(MAccel, 333, 11, 40.0f);
  PhysicsParams Params;

  physicsPassHost(HostStore, 1.0f / 30.0f, Params);
  omm::offload::offloadSync(MAccel, [&](omm::offload::OffloadContext &Ctx) {
    physicsPassOffload(Ctx, AccelStore, 1.0f / 30.0f, Params, 64);
  });
  EXPECT_EQ(HostStore.checksum(), AccelStore.checksum());
}

TEST(Physics, OffloadChunkSizeDoesNotChangeResults) {
  uint64_t Checksums[3];
  uint32_t Chunks[3] = {1, 7, 256};
  for (int Case = 0; Case != 3; ++Case) {
    Machine M;
    EntityStore Store(M, 100, 3, 40.0f);
    omm::offload::offloadSync(M, [&](omm::offload::OffloadContext &Ctx) {
      physicsPassOffload(Ctx, Store, 0.033f, PhysicsParams(),
                         Chunks[Case]);
    });
    Checksums[Case] = Store.checksum();
  }
  EXPECT_EQ(Checksums[0], Checksums[1]);
  EXPECT_EQ(Checksums[1], Checksums[2]);
}

TEST(Animation, KeyPoseIsDeterministic) {
  Pose A = AnimationSystem::keyPose(3, 17);
  Pose B = AnimationSystem::keyPose(3, 17);
  EXPECT_EQ(A.mixInto(1), B.mixInto(1));
  Pose C = AnimationSystem::keyPose(4, 17);
  EXPECT_NE(A.mixInto(1), C.mixInto(1));
}

TEST(Animation, BlendConvergesToKey) {
  Pose Current{}; // All zeros.
  Pose Key = AnimationSystem::keyPose(1, 1);
  for (int I = 0; I != 200; ++I)
    AnimationSystem::blendPose(Current, Key, 0.2f);
  for (unsigned J = 0; J != Pose::NumJoints; ++J)
    for (unsigned C = 0; C != 4; ++C)
      EXPECT_NEAR(Current.Joints[J][C], Key.Joints[J][C], 1e-3f);
}
