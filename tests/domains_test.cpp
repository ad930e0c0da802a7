//===- tests/domains_test.cpp - Dispatch domain tests ----------------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "domains/Domain.h"
#include "offload/Offload.h"

#include <gtest/gtest.h>

using namespace omm;
using namespace omm::domains;
using namespace omm::sim;

namespace {

/// A small hierarchy: Base { move() }, Soldier : Base { move(), shoot() },
/// Vehicle : Base { move() }.
class DomainTest : public ::testing::Test {
protected:
  DomainTest() {
    BaseClass = Registry.createClass(2);
    MoveBase = Registry.createMethod("Base::move");
    Registry.setSlot(BaseClass, 0, MoveBase);

    SoldierClass = Registry.createClass(2, BaseClass);
    MoveSoldier = Registry.createMethod("Soldier::move");
    ShootSoldier = Registry.createMethod("Soldier::shoot");
    Registry.setSlot(SoldierClass, 0, MoveSoldier);
    Registry.setSlot(SoldierClass, 1, ShootSoldier);

    VehicleClass = Registry.createClass(2, BaseClass);
    MoveVehicle = Registry.createMethod("Vehicle::move");
    Registry.setSlot(VehicleClass, 0, MoveVehicle);

    Registry.materialize(M);
  }

  /// Allocates an object of \p Class with an 8-byte payload.
  GlobalAddr makeObject(ClassId Class) {
    GlobalAddr Obj = M.allocGlobal(ClassRegistry::objectSize(8));
    Registry.initObject(M, Obj, Class);
    M.mainMemory().writeValue<uint64_t>(
        Obj + ClassRegistry::payloadOffset(), 0);
    return Obj;
  }

  Machine M;
  ClassRegistry Registry;
  ClassId BaseClass = 0, SoldierClass = 0, VehicleClass = 0;
  MethodId MoveBase = 0, MoveSoldier = 0, ShootSoldier = 0,
           MoveVehicle = 0;
};

} // namespace

//===----------------------------------------------------------------------===//
// ClassRegistry / object model.
//===----------------------------------------------------------------------===//

TEST_F(DomainTest, InheritanceCopiesParentSlots) {
  // Vehicle overrides slot 0 but inherits Base's (empty) slot 1.
  EXPECT_EQ(Registry.slot(VehicleClass, 0), MoveVehicle);
  EXPECT_EQ(Registry.slot(VehicleClass, 1), NoMethod);
  EXPECT_EQ(Registry.slot(SoldierClass, 1), ShootSoldier);
}

TEST_F(DomainTest, MaterialisedVtablesAreReadable) {
  GlobalAddr Vt = Registry.vtableAddr(SoldierClass);
  EXPECT_EQ(M.mainMemory().readValue<uint32_t>(Vt), SoldierClass);
  EXPECT_EQ(M.mainMemory().readValue<uint32_t>(Vt + 4), 2u); // NumSlots.
  EXPECT_EQ(M.mainMemory().readValue<MethodId>(Vt + 8), MoveSoldier);
  EXPECT_EQ(M.mainMemory().readValue<MethodId>(Vt + 12), ShootSoldier);
}

TEST_F(DomainTest, HostDispatchSelectsDynamicType) {
  int SoldierMoves = 0, VehicleMoves = 0;
  Registry.setHostImpl(MoveSoldier, [&](Machine &, GlobalAddr, uint64_t) {
    ++SoldierMoves;
  });
  Registry.setHostImpl(MoveVehicle, [&](Machine &, GlobalAddr, uint64_t) {
    ++VehicleMoves;
  });

  GlobalAddr S = makeObject(SoldierClass);
  GlobalAddr V = makeObject(VehicleClass);
  Registry.callVirtualHost(M, S, 0, 0);
  Registry.callVirtualHost(M, V, 0, 0);
  Registry.callVirtualHost(M, S, 0, 0);
  EXPECT_EQ(SoldierMoves, 2);
  EXPECT_EQ(VehicleMoves, 1);
  EXPECT_EQ(Registry.hostDispatchCount(), 3u);
}

TEST_F(DomainTest, HostDispatchCostsTwoDependentLoads) {
  Registry.setHostImpl(MoveSoldier, [](Machine &, GlobalAddr, uint64_t) {});
  GlobalAddr S = makeObject(SoldierClass);
  uint64_t Loads = M.hostCounters().HostLoads;
  Registry.callVirtualHost(M, S, 0, 0);
  EXPECT_EQ(M.hostCounters().HostLoads - Loads, 2u);
}

TEST_F(DomainTest, PureVirtualCallAborts) {
  GlobalAddr V = makeObject(VehicleClass);
  EXPECT_DEATH(Registry.callVirtualHost(M, V, 1, 0), "pure virtual");
}

//===----------------------------------------------------------------------===//
// OffloadDomain: the Figure 3 machinery.
//===----------------------------------------------------------------------===//

TEST_F(DomainTest, AnnotationAndDuplicateCounts) {
  OffloadDomain Dom(Registry);
  Dom.addDuplicate(MoveSoldier, DuplicateId::thisLocal(),
                   [](offload::OffloadContext &, DispatchTarget, uint64_t) {});
  Dom.addDuplicate(MoveSoldier, DuplicateId::thisOuter(),
                   [](offload::OffloadContext &, DispatchTarget, uint64_t) {});
  Dom.addDuplicate(ShootSoldier, DuplicateId::thisLocal(),
                   [](offload::OffloadContext &, DispatchTarget, uint64_t) {});
  EXPECT_EQ(Dom.annotationCount(), 2u); // Two methods in the outer domain.
  EXPECT_EQ(Dom.duplicateCount(), 3u);  // Three (id, address) pairs.
  EXPECT_EQ(Dom.codeBytes(), 3u * 1024u);
}

TEST_F(DomainTest, DispatchRunsTheRightDuplicate) {
  OffloadDomain Dom(Registry);
  int LocalRuns = 0, OuterRuns = 0;
  Dom.addDuplicate(MoveSoldier, DuplicateId::thisLocal(),
                   [&](offload::OffloadContext &, DispatchTarget, uint64_t) {
                     ++LocalRuns;
                   });
  Dom.addDuplicate(MoveSoldier, DuplicateId::thisOuter(),
                   [&](offload::OffloadContext &, DispatchTarget, uint64_t) {
                     ++OuterRuns;
                   });

  GlobalAddr S = makeObject(SoldierClass);
  offload::offloadSync(M, [&](offload::OffloadContext &Ctx) {
    // Outer-object dispatch.
    EXPECT_TRUE(Dom.callOnOuterObject(Ctx, S, 0, 0));
    // Local-object dispatch: copy the object in first.
    LocalAddr L = Ctx.localAlloc(
        static_cast<uint32_t>(ClassRegistry::objectSize(8)));
    Ctx.dmaGet(L, S, 16, 0);
    Ctx.dmaWait(0);
    EXPECT_TRUE(Dom.callOnLocalObject(Ctx, L, 0, 0));
  });
  EXPECT_EQ(OuterRuns, 1);
  EXPECT_EQ(LocalRuns, 1);
  EXPECT_EQ(Dom.stats().Hits, 2u);
}

TEST_F(DomainTest, MissEmitsActionableDiagnostic) {
  OffloadDomain Dom(Registry);
  DiagSink Diags;
  Dom.setDiagSink(&Diags);
  Dom.addDuplicate(MoveSoldier, DuplicateId::thisLocal(),
                   [](offload::OffloadContext &, DispatchTarget, uint64_t) {});

  GlobalAddr V = makeObject(VehicleClass); // Vehicle::move not annotated.
  offload::offloadSync(M, [&](offload::OffloadContext &Ctx) {
    EXPECT_FALSE(Dom.callOnOuterObject(Ctx, V, 0, 0));
  });
  EXPECT_EQ(Dom.stats().Misses, 1u);
  // The paper: "an exception is generated, providing information which
  // the programmer can use to tell the compiler which methods should be
  // pre-compiled."
  EXPECT_TRUE(Diags.containsMessage("Vehicle::move"));
  EXPECT_TRUE(Diags.containsMessage("(outer)"));
  EXPECT_TRUE(Diags.containsMessage("annotate it for this offload"));
}

TEST_F(DomainTest, MissOnSignatureMismatch) {
  OffloadDomain Dom(Registry);
  Dom.addDuplicate(MoveSoldier, DuplicateId::thisLocal(),
                   [](offload::OffloadContext &, DispatchTarget, uint64_t) {});
  GlobalAddr S = makeObject(SoldierClass);
  offload::offloadSync(M, [&](offload::OffloadContext &Ctx) {
    // Only the local duplicate exists; outer dispatch must miss.
    EXPECT_FALSE(Dom.callOnOuterObject(Ctx, S, 0, 0));
  });
  EXPECT_EQ(Dom.stats().Misses, 1u);
}

TEST_F(DomainTest, OnDemandLoadingRecovers) {
  OffloadDomain Dom(Registry);
  int Loaded = 0, Ran = 0;
  Dom.setOnDemandLoader([&](MethodId Method, DuplicateId Id) -> LocalMethod {
    EXPECT_EQ(Method, MoveVehicle);
    EXPECT_EQ(Id, DuplicateId::thisOuter());
    ++Loaded;
    return [&Ran](offload::OffloadContext &, DispatchTarget, uint64_t) {
      ++Ran;
    };
  });

  GlobalAddr V = makeObject(VehicleClass);
  offload::offloadSync(M, [&](offload::OffloadContext &Ctx) {
    uint64_t Before = Ctx.clock().now();
    EXPECT_TRUE(Dom.callOnOuterObject(Ctx, V, 0, 0)); // Load + run.
    uint64_t FirstCost = Ctx.clock().now() - Before;
    Before = Ctx.clock().now();
    EXPECT_TRUE(Dom.callOnOuterObject(Ctx, V, 0, 0)); // Now cached.
    uint64_t SecondCost = Ctx.clock().now() - Before;
    EXPECT_GT(FirstCost, SecondCost); // The load cost is paid once.
  });
  EXPECT_EQ(Loaded, 1);
  EXPECT_EQ(Ran, 2);
  EXPECT_EQ(Dom.stats().OnDemandLoads, 1u);
  EXPECT_EQ(Dom.annotationCount(), 1u); // Now annotated.
}

TEST_F(DomainTest, LookupCostGrowsWithOuterDomainSize) {
  // The outer domain is a linear scan: dispatching the *last* annotated
  // method costs proportionally to the annotation count — why the
  // monolithic 100+-method domain hurts (Section 4.1 / experiment E3).
  OffloadDomain Dom(Registry);
  auto Noop = [](offload::OffloadContext &, DispatchTarget, uint64_t) {};
  Dom.addDuplicate(MoveBase, DuplicateId::thisOuter(), Noop);
  Dom.addDuplicate(MoveVehicle, DuplicateId::thisOuter(), Noop);
  Dom.addDuplicate(ShootSoldier, DuplicateId::thisOuter(), Noop);
  Dom.addDuplicate(MoveSoldier, DuplicateId::thisOuter(), Noop);

  GlobalAddr S = makeObject(SoldierClass);
  GlobalAddr B = makeObject(BaseClass);
  offload::offloadSync(M, [&](offload::OffloadContext &Ctx) {
    Dom.resetStats();
    EXPECT_TRUE(Dom.callOnOuterObject(Ctx, B, 0, 0)); // First entry.
    uint64_t FirstSteps = Dom.stats().OuterScanSteps;
    Dom.resetStats();
    EXPECT_TRUE(Dom.callOnOuterObject(Ctx, S, 0, 0)); // Last entry.
    uint64_t LastSteps = Dom.stats().OuterScanSteps;
    EXPECT_EQ(FirstSteps, 1u);
    EXPECT_EQ(LastSteps, 4u);
  });
}

TEST_F(DomainTest, VtableMemoElidesRepeatVtableReads) {
  OffloadDomain Dom(Registry);
  int Runs = 0;
  Dom.addDuplicate(MoveSoldier, DuplicateId::thisOuter(),
                   [&](offload::OffloadContext &, DispatchTarget, uint64_t) {
                     ++Runs;
                   });
  Dom.setVtableMemo(true);

  GlobalAddr S1 = makeObject(SoldierClass);
  GlobalAddr S2 = makeObject(SoldierClass);
  offload::offloadSync(M, [&](offload::OffloadContext &Ctx) {
    uint64_t GetsBase = Ctx.accel().Counters.DmaGetsIssued;
    EXPECT_TRUE(Dom.callOnOuterObject(Ctx, S1, 0, 0));
    uint64_t FirstGets = Ctx.accel().Counters.DmaGetsIssued - GetsBase;
    GetsBase = Ctx.accel().Counters.DmaGetsIssued;
    EXPECT_TRUE(Dom.callOnOuterObject(Ctx, S2, 0, 0));
    uint64_t SecondGets = Ctx.accel().Counters.DmaGetsIssued - GetsBase;
    // Same class: the second dispatch skips the vtable read.
    EXPECT_LT(SecondGets, FirstGets);
  });
  EXPECT_EQ(Runs, 2);
  EXPECT_EQ(Dom.stats().MemoHits, 1u);
  EXPECT_EQ(Dom.stats().MemoMisses, 1u);
}

TEST_F(DomainTest, VtableMemoStillSelectsDynamicType) {
  OffloadDomain Dom(Registry);
  int SoldierRuns = 0, VehicleRuns = 0;
  Dom.addDuplicate(MoveSoldier, DuplicateId::thisOuter(),
                   [&](offload::OffloadContext &, DispatchTarget, uint64_t) {
                     ++SoldierRuns;
                   });
  Dom.addDuplicate(MoveVehicle, DuplicateId::thisOuter(),
                   [&](offload::OffloadContext &, DispatchTarget, uint64_t) {
                     ++VehicleRuns;
                   });
  Dom.setVtableMemo(true);

  GlobalAddr S = makeObject(SoldierClass);
  GlobalAddr V = makeObject(VehicleClass);
  offload::offloadSync(M, [&](offload::OffloadContext &Ctx) {
    for (int I = 0; I != 3; ++I) {
      EXPECT_TRUE(Dom.callOnOuterObject(Ctx, S, 0, 0));
      EXPECT_TRUE(Dom.callOnOuterObject(Ctx, V, 0, 0));
    }
  });
  EXPECT_EQ(SoldierRuns, 3);
  EXPECT_EQ(VehicleRuns, 3);
  EXPECT_EQ(Dom.stats().MemoMisses, 2u); // One cold read per class.
  EXPECT_EQ(Dom.stats().MemoHits, 4u);
}

TEST_F(DomainTest, VtableMemoSpeedsUniformBatches) {
  auto MeasureBatch = [&](bool Memo) {
    OffloadDomain Dom(Registry);
    Dom.addDuplicate(
        MoveSoldier, DuplicateId::thisLocal(),
        [](offload::OffloadContext &, DispatchTarget, uint64_t) {});
    Dom.setVtableMemo(Memo);
    GlobalAddr S = makeObject(SoldierClass);
    uint64_t Cycles = 0;
    offload::offloadSync(M, [&](offload::OffloadContext &Ctx) {
      LocalAddr L = Ctx.localAlloc(16);
      Ctx.dmaGet(L, S, 16, 0);
      Ctx.dmaWait(0);
      uint64_t Start = Ctx.clock().now();
      for (int I = 0; I != 100; ++I)
        Dom.callOnLocalObject(Ctx, L, 0, 0);
      Cycles = Ctx.clock().now() - Start;
    });
    return Cycles;
  };
  uint64_t Without = MeasureBatch(false);
  uint64_t With = MeasureBatch(true);
  // 100 dispatches on one class: one vtable round trip instead of 100.
  EXPECT_LT(With * 3, Without);
}

TEST_F(DomainTest, ClearVtableMemoForcesRefetch) {
  OffloadDomain Dom(Registry);
  Dom.addDuplicate(MoveSoldier, DuplicateId::thisOuter(),
                   [](offload::OffloadContext &, DispatchTarget, uint64_t) {});
  Dom.setVtableMemo(true);
  GlobalAddr S = makeObject(SoldierClass);
  offload::offloadSync(M, [&](offload::OffloadContext &Ctx) {
    Dom.callOnOuterObject(Ctx, S, 0, 0);
    Dom.clearVtableMemo();
    Dom.callOnOuterObject(Ctx, S, 0, 0);
  });
  EXPECT_EQ(Dom.stats().MemoMisses, 2u);
  EXPECT_EQ(Dom.stats().MemoHits, 0u);
}

TEST_F(DomainTest, ReserveCodeChargesUploadAndLocalStore) {
  OffloadDomain Dom(Registry);
  auto Noop = [](offload::OffloadContext &, DispatchTarget, uint64_t) {};
  Dom.addDuplicate(MoveSoldier, DuplicateId::thisLocal(), Noop, 4096);
  Dom.addDuplicate(ShootSoldier, DuplicateId::thisLocal(), Noop, 4096);

  offload::offloadSync(M, [&](offload::OffloadContext &Ctx) {
    uint32_t FreeBefore = Ctx.accel().Store.bytesFree();
    uint64_t TimeBefore = Ctx.clock().now();
    Dom.reserveCode(Ctx);
    EXPECT_EQ(FreeBefore - Ctx.accel().Store.bytesFree(), 8192u);
    EXPECT_GT(Ctx.clock().now(), TimeBefore);
  });
}

TEST_F(DomainTest, ResolveSlotLocalReadsHeaderLocally) {
  Registry.setHostImpl(MoveSoldier, [](Machine &, GlobalAddr, uint64_t) {});
  GlobalAddr S = makeObject(SoldierClass);
  offload::offloadSync(M, [&](offload::OffloadContext &Ctx) {
    LocalAddr L = Ctx.localAlloc(16);
    Ctx.dmaGet(L, S, 16, 0);
    Ctx.dmaWait(0);
    uint64_t GetsBefore = Ctx.accel().Counters.DmaGetsIssued;
    MethodId Resolved = Registry.resolveSlotLocal(Ctx, L, 0);
    EXPECT_EQ(Resolved, MoveSoldier);
    // Only the vtable slot read crossed memory spaces (one bounce get;
    // the bounce may split across aligned chunks but stays small).
    EXPECT_LE(Ctx.accel().Counters.DmaGetsIssued - GetsBefore, 2u);
  });
}

//===----------------------------------------------------------------------===//
// Code overlays (capacity-constrained on-demand loading).
//===----------------------------------------------------------------------===//

TEST_F(DomainTest, OverlayLoadsOncePerResidentMethod) {
  OffloadDomain Dom(Registry);
  auto Noop = [](offload::OffloadContext &, DispatchTarget, uint64_t) {};
  Dom.addDuplicate(MoveSoldier, DuplicateId::thisOuter(), Noop, 4096);
  Dom.addDuplicate(ShootSoldier, DuplicateId::thisOuter(), Noop, 4096);
  Dom.setCodeBudget(16384); // Everything fits.

  GlobalAddr S = makeObject(SoldierClass);
  offload::offloadSync(M, [&](offload::OffloadContext &Ctx) {
    for (int I = 0; I != 10; ++I) {
      Dom.callOnOuterObject(Ctx, S, 0, 0);
      Dom.callOnOuterObject(Ctx, S, 1, 0);
    }
  });
  EXPECT_EQ(Dom.codeUploads(), 2u); // One per method, despite 20 calls.
  EXPECT_EQ(Dom.codeEvictions(), 0u);
  EXPECT_EQ(Dom.residentCodeBytes(), 8192u);
}

TEST_F(DomainTest, OverlayThrashesWhenBudgetIsTight) {
  OffloadDomain Dom(Registry);
  auto Noop = [](offload::OffloadContext &, DispatchTarget, uint64_t) {};
  Dom.addDuplicate(MoveSoldier, DuplicateId::thisOuter(), Noop, 4096);
  Dom.addDuplicate(ShootSoldier, DuplicateId::thisOuter(), Noop, 4096);
  Dom.setCodeBudget(4096); // Only one method fits at a time.

  GlobalAddr S = makeObject(SoldierClass);
  offload::offloadSync(M, [&](offload::OffloadContext &Ctx) {
    for (int I = 0; I != 10; ++I) {
      Dom.callOnOuterObject(Ctx, S, 0, 0);
      Dom.callOnOuterObject(Ctx, S, 1, 0); // Alternation: evict + load.
    }
  });
  EXPECT_EQ(Dom.codeUploads(), 20u);
  EXPECT_EQ(Dom.codeEvictions(), 19u);
  EXPECT_LE(Dom.residentCodeBytes(), 4096u);
}

TEST_F(DomainTest, OverlayUploadTimeIsCharged) {
  auto Measure = [&](uint64_t Budget) {
    OffloadDomain Dom(Registry);
    auto Noop = [](offload::OffloadContext &, DispatchTarget, uint64_t) {};
    Dom.addDuplicate(MoveSoldier, DuplicateId::thisOuter(), Noop, 4096);
    Dom.addDuplicate(ShootSoldier, DuplicateId::thisOuter(), Noop, 4096);
    if (Budget)
      Dom.setCodeBudget(Budget);
    GlobalAddr S = makeObject(SoldierClass);
    uint64_t Cycles = 0;
    offload::offloadSync(M, [&](offload::OffloadContext &Ctx) {
      uint64_t Start = Ctx.clock().now();
      for (int I = 0; I != 10; ++I) {
        Dom.callOnOuterObject(Ctx, S, 0, 0);
        Dom.callOnOuterObject(Ctx, S, 1, 0);
      }
      Cycles = Ctx.clock().now() - Start;
    });
    return Cycles;
  };
  uint64_t Roomy = Measure(16384);
  uint64_t Tight = Measure(4096);
  // Thrashing pays a code upload per call.
  EXPECT_GT(Tight, Roomy + 15 * 4096);
}

TEST_F(DomainTest, OverlayBudgetMustFitLargestDuplicate) {
  OffloadDomain Dom(Registry);
  auto Noop = [](offload::OffloadContext &, DispatchTarget, uint64_t) {};
  Dom.addDuplicate(MoveSoldier, DuplicateId::thisOuter(), Noop, 8192);
  EXPECT_DEATH(Dom.setCodeBudget(4096), "code budget smaller");
}

TEST(DuplicateIdTest, EncodingAndRendering) {
  EXPECT_NE(DuplicateId::thisLocal(), DuplicateId::thisOuter());
  EXPECT_EQ(DuplicateId::thisLocal().str(), "(local)");
  EXPECT_EQ(DuplicateId::thisOuter().str(), "(outer)");
}
