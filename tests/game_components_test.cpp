//===- tests/game_components_test.cpp - Component system tests -------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// The Section 4.1 case study, with the paper's numbers as assertions:
// ~1300 virtual calls per frame, "upwards of 100" annotations for the
// monolithic offload, a maximum of 40 after type specialisation, and
// identical game state on every schedule.
//
//===----------------------------------------------------------------------===//

#include "game/Components.h"

#include <gtest/gtest.h>

using namespace omm::domains;
using namespace omm::game;
using namespace omm::sim;

namespace {

constexpr uint32_t PerKind = 9;
constexpr uint64_t Seed = 0xC0DE;

} // namespace

TEST(ComponentSystem, ThirteenKinds) {
  EXPECT_EQ(ComponentSystem::NumKinds, 13u);
  unsigned TotalMethods = 0;
  for (const auto &Spec : ComponentSystem::kinds()) {
    EXPECT_GE(Spec.NumMethods, 3u);
    EXPECT_LE(Spec.ServicesUsed, ComponentSystem::NumServiceMethods);
    TotalMethods += Spec.NumMethods;
  }
  EXPECT_EQ(TotalMethods, 82u);
}

TEST(ComponentSystem, MonolithicAnnotationBurdenIsOver100) {
  // "it was necessary to annotate a portion of offloaded code with
  // upwards of 100 virtual functions."
  Machine M;
  ComponentSystem System(M, PerKind, Seed);
  OffloadDomain &Dom = System.monolithicDomain();
  EXPECT_GT(Dom.annotationCount(), 100u);
  EXPECT_EQ(Dom.annotationCount(), 82u + 28u);
}

TEST(ComponentSystem, SpecialisedMaximumIsForty) {
  // "After the restructuring, the maximum number of virtual functions
  // associated with a portion of offloaded code ... is 40."
  Machine M;
  ComponentSystem System(M, PerKind, Seed);
  unsigned MaxAnnotations = 0;
  for (unsigned K = 0; K != ComponentSystem::NumKinds; ++K)
    MaxAnnotations =
        std::max(MaxAnnotations, System.kindDomain(K).annotationCount());
  EXPECT_EQ(MaxAnnotations, 40u);
  EXPECT_EQ(System.kindDomain(ComponentSystem::heaviestKind())
                .annotationCount(),
            40u);
}

TEST(ComponentSystem, HostFramePerformsAbout1300VirtualCalls) {
  // "performing more than 1300 virtual calls per frame."
  Machine M;
  ComponentSystem System(M, PerKind, Seed);
  uint64_t Before = System.hostDispatchCount();
  System.updateAllHost();
  uint64_t Calls = System.hostDispatchCount() - Before;
  EXPECT_GT(Calls, 1300u);
  EXPECT_LT(Calls, 1500u);
}

TEST(ComponentSystem, HostScheduleAdvancesState) {
  Machine M;
  ComponentSystem System(M, PerKind, Seed);
  uint64_t Before = System.stateChecksum();
  System.updateAllHost();
  EXPECT_NE(System.stateChecksum(), Before);
}

TEST(ComponentSystem, AllSchedulesProduceIdenticalState) {
  // "We therefore restructured the component system to be type
  // specialised, in ~1 day, and without loss of generality" — the
  // restructuring must not change behaviour.
  uint64_t Checksums[4];

  {
    Machine M;
    ComponentSystem System(M, PerKind, Seed);
    System.updateAllHost();
    Checksums[0] = System.stateChecksum();
  }
  {
    Machine M;
    ComponentSystem System(M, PerKind, Seed);
    System.updateMonolithicOffload();
    Checksums[1] = System.stateChecksum();
  }
  {
    Machine M;
    ComponentSystem System(M, PerKind, Seed);
    System.updateSpecialisedOffloads(/*SpreadAccelerators=*/false);
    Checksums[2] = System.stateChecksum();
  }
  {
    Machine M;
    ComponentSystem System(M, PerKind, Seed);
    System.updateSpecialisedOffloads(/*SpreadAccelerators=*/true);
    Checksums[3] = System.stateChecksum();
  }

  EXPECT_EQ(Checksums[0], Checksums[1]);
  EXPECT_EQ(Checksums[0], Checksums[2]);
  EXPECT_EQ(Checksums[0], Checksums[3]);
}

TEST(ComponentSystem, SpecialisedBeatsMonolithicOnOneAccelerator) {
  // Specialisation wins even without multi-core scaling: prefetchable
  // uniform batches + small domains vs. per-field outer transfers +
  // 110-entry domain scans.
  uint64_t MonolithicTime, SpecialisedTime;
  {
    Machine M;
    ComponentSystem System(M, PerKind, Seed);
    uint64_t Start = M.globalTime();
    System.updateMonolithicOffload();
    MonolithicTime = M.globalTime() - Start;
  }
  {
    Machine M;
    ComponentSystem System(M, PerKind, Seed);
    uint64_t Start = M.globalTime();
    System.updateSpecialisedOffloads(/*SpreadAccelerators=*/false);
    SpecialisedTime = M.globalTime() - Start;
  }
  EXPECT_LT(SpecialisedTime, MonolithicTime);
}

TEST(ComponentSystem, SpreadingAcrossAcceleratorsHelpsFurther) {
  uint64_t Single, Spread;
  {
    Machine M;
    ComponentSystem System(M, PerKind, Seed);
    uint64_t Start = M.globalTime();
    System.updateSpecialisedOffloads(/*SpreadAccelerators=*/false);
    Single = M.globalTime() - Start;
  }
  {
    Machine M;
    ComponentSystem System(M, PerKind, Seed);
    uint64_t Start = M.globalTime();
    System.updateSpecialisedOffloads(/*SpreadAccelerators=*/true);
    Spread = M.globalTime() - Start;
  }
  EXPECT_LT(Spread, Single);
}

TEST(ComponentSystem, DomainStatsCountAcceleratorDispatches) {
  Machine M;
  ComponentSystem System(M, PerKind, Seed);
  System.updateMonolithicOffload();
  uint64_t Lookups = System.monolithicDomain().stats().Lookups;
  // Every host virtual call has an accelerator-side counterpart.
  EXPECT_GT(Lookups, 1300u);
  EXPECT_EQ(System.monolithicDomain().stats().Misses, 0u);

  // Each specialised domain holds every method its offload reaches:
  // the kind's own methods and the service slots its update calls.
  System.updateSpecialisedOffloads();
  for (unsigned K = 0; K != ComponentSystem::NumKinds; ++K) {
    const DomainStats &Stats = System.kindDomain(K).stats();
    EXPECT_GT(Stats.Lookups, 0u) << ComponentSystem::kinds()[K].Name;
    EXPECT_EQ(Stats.Misses, 0u) << ComponentSystem::kinds()[K].Name;
  }
}

TEST(ComponentSystem, CodeFootprintShrinksWithSpecialisation) {
  Machine M;
  ComponentSystem System(M, PerKind, Seed);
  uint64_t MonolithicCode = System.monolithicDomain().codeBytes();
  uint64_t MaxKindCode = 0;
  for (unsigned K = 0; K != ComponentSystem::NumKinds; ++K)
    MaxKindCode =
        std::max(MaxKindCode, System.kindDomain(K).codeBytes());
  EXPECT_LT(MaxKindCode, MonolithicCode / 2);
  // E4's footprints: 110 and 40 duplicates of 1536 B each.
  EXPECT_EQ(MonolithicCode, 110u * 1536u);
  EXPECT_EQ(MaxKindCode, 40u * 1536u);
}

TEST(ComponentSystem, DeterministicAcrossRuns) {
  uint64_t A, B;
  {
    Machine M;
    ComponentSystem System(M, PerKind, Seed);
    System.updateAllHost();
    System.updateAllHost();
    A = System.stateChecksum();
  }
  {
    Machine M;
    ComponentSystem System(M, PerKind, Seed);
    System.updateAllHost();
    System.updateAllHost();
    B = System.stateChecksum();
  }
  EXPECT_EQ(A, B);
}
