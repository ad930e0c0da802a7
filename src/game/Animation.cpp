//===- game/Animation.cpp - Pose blending ---------------------------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "game/Animation.h"

#include "game/Math.h"

using namespace omm;
using namespace omm::game;
using namespace omm::sim;

uint64_t Pose::mixInto(uint64_t Hash) const {
  for (const auto &Joint : Joints)
    for (float Component : Joint)
      Hash = hashMix(Hash, Component);
  return Hash;
}

AnimationSystem::AnimationSystem(Machine &M, uint32_t Count)
    : M(M), Count(Count) {
  Base = M.allocGlobal(uint64_t(Count) * sizeof(Pose));
  for (uint32_t I = 0; I != Count; ++I) {
    Pose Initial = keyPose(I, 0);
    M.mainMemory().writeValue(Base + uint64_t(I) * sizeof(Pose), Initial);
  }
}

AnimationSystem::~AnimationSystem() { M.freeGlobal(Base); }

Pose AnimationSystem::keyPose(uint32_t Id, uint32_t Frame) {
  Pose Key;
  for (unsigned J = 0; J != Pose::NumJoints; ++J) {
    // Deterministic pseudo-pose from (id, frame, joint).
    uint32_t Basis = Id * 73u + Frame * 31u + J * 7u;
    Key.Joints[J][0] = static_cast<float>(Basis % 17) * 0.0625f;
    Key.Joints[J][1] = static_cast<float>(Basis % 13) * 0.078125f;
    Key.Joints[J][2] = static_cast<float>(Basis % 11) * 0.09375f;
    Key.Joints[J][3] = 1.0f - static_cast<float>(Basis % 7) * 0.125f;
  }
  return Key;
}

void AnimationSystem::blendPose(Pose &Current, const Pose &Key, float Rate) {
  for (unsigned J = 0; J != Pose::NumJoints; ++J)
    for (unsigned C = 0; C != 4; ++C)
      Current.Joints[J][C] += (Key.Joints[J][C] - Current.Joints[J][C]) * Rate;
}

void AnimationSystem::blendPassHost(uint32_t Frame,
                                    const AnimationParams &Params,
                                    uint32_t Begin, uint32_t End) {
  for (uint32_t I = Begin; I != End; ++I) {
    GlobalAddr Addr = Base + uint64_t(I) * sizeof(Pose);
    Pose Current = M.hostRead<Pose>(Addr);
    blendPose(Current, keyPose(I, Frame), Params.BlendRate);
    M.hostCompute(Params.CyclesPerJoint * Pose::NumJoints);
    M.hostWrite(Addr, Current);
  }
}

uint64_t AnimationSystem::checksum() const {
  uint64_t Hash = 0xCBF29CE484222325ull;
  for (uint32_t I = 0; I != Count; ++I)
    Hash = M.mainMemory()
               .readValue<Pose>(Base + uint64_t(I) * sizeof(Pose))
               .mixInto(Hash);
  return Hash;
}
