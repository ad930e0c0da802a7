//===- bench/bench_e5_locality_loop.cpp - Experiment E5 -------------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// E5 (Section 4.2): the pointer-chasing loop
//
//     GameObject *objects[N_OBJECTS];
//     GameObject *current = &objects[0];
//     for (int i = 0; i < N_OBJECTS; i++) { current->move(); current++; }
//
// executed from an accelerator while both the pointer array and the
// objects live in outer memory. Variants:
//
//   naive          — every iteration: outer read of objects[i], then an
//                    outer-object virtual dispatch (two dependent
//                    transfers) and outer field accesses in move().
//   cache          — same loop through a bound software cache.
//   accessor       — the paper's Array accessor: one bulk transfer of
//                    the pointer array into local store; object accesses
//                    remain outer.
//   accessor+cache — both optimisations.
//   batched        — the restructured layout: uniform-type objects
//                    processed in double-buffered batches with
//                    local-object dispatch (Section 4.1's prefetching).
//
// Swept over N_OBJECTS and per-object compute, showing the crossover:
// at high compute-per-object all variants converge (compute-bound); at
// low compute the memory organisation dominates.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "domains/Domain.h"
#include "offload/Accessors.h"
#include "offload/DoubleBuffer.h"
#include "offload/Offload.h"
#include "offload/SetAssociativeCache.h"
#include "support/Random.h"

#include <memory>
#include <vector>

using namespace omm;
using namespace omm::bench;
using namespace omm::domains;
using namespace omm::sim;

namespace {

/// The object payload move() updates.
struct MoveState {
  float Position[4];
  float Velocity[4];
  uint32_t Steps;
  uint32_t Pad[5];
};
static_assert(sizeof(MoveState) == 56);

struct MoveObject {
  ClassRegistry::ObjectHeader Header;
  MoveState State;
};
static_assert(sizeof(MoveObject) == 64);

void applyMove(MoveState &S) {
  for (int I = 0; I != 4; ++I)
    S.Position[I] += S.Velocity[I] * 0.033f;
  ++S.Steps;
}

enum class Variant { Naive, Cache, Accessor, AccessorCache, Batched };

struct Harness {
  Harness(uint32_t Count, uint64_t ComputeCost)
      : M(MachineConfig::cellLike()), Count(Count) {
    Class = Registry.createClass(1);
    Move = Registry.createMethod("GameObject::move");
    Registry.setSlot(Class, 0, Move);
    Registry.materialize(M);

    Domain = std::make_unique<OffloadDomain>(Registry);
    Domain->addDuplicate(
        Move, DuplicateId::thisOuter(),
        [ComputeCost](offload::OffloadContext &Ctx, DispatchTarget T,
                      uint64_t) {
          GlobalAddr Payload =
              T.Outer + ClassRegistry::payloadOffset();
          MoveState S = Ctx.outerRead<MoveState>(Payload);
          applyMove(S);
          Ctx.outerWrite(Payload, S);
          Ctx.compute(ComputeCost);
        });
    Domain->addDuplicate(
        Move, DuplicateId::thisLocal(),
        [ComputeCost](offload::OffloadContext &Ctx, DispatchTarget T,
                      uint64_t) {
          LocalAddr Payload =
              T.Local +
              static_cast<uint32_t>(ClassRegistry::payloadOffset());
          MoveState S = Ctx.localRead<MoveState>(Payload);
          applyMove(S);
          Ctx.localWrite(Payload, S);
          Ctx.compute(ComputeCost);
        });

    // Contiguous uniform-type object array...
    Objects = M.allocGlobal(uint64_t(Count) * sizeof(MoveObject));
    SplitMix64 Rng(0xE5);
    for (uint32_t I = 0; I != Count; ++I) {
      GlobalAddr Obj = Objects + uint64_t(I) * sizeof(MoveObject);
      Registry.initObject(M, Obj, Class);
      MoveState S{};
      for (int J = 0; J != 4; ++J) {
        S.Position[J] = Rng.nextFloatInRange(-10, 10);
        S.Velocity[J] = Rng.nextFloatInRange(-1, 1);
      }
      M.mainMemory().writeValue(Obj + ClassRegistry::payloadOffset(), S);
    }
    // ...and the abstract pointer array, shuffled.
    std::vector<uint64_t> Addrs(Count);
    for (uint32_t I = 0; I != Count; ++I)
      Addrs[I] = (Objects + uint64_t(I) * sizeof(MoveObject)).Value;
    for (uint32_t I = Count; I > 1; --I)
      std::swap(Addrs[I - 1], Addrs[Rng.nextBelow(I)]);
    PtrArray = M.allocGlobal(uint64_t(Count) * 8);
    for (uint32_t I = 0; I != Count; ++I)
      M.mainMemory().writeValue<uint64_t>(PtrArray + uint64_t(I) * 8,
                                          Addrs[I]);
  }

  uint64_t run(Variant V) {
    uint64_t Cycles = 0;
    offload::offloadSync(M, [&](offload::OffloadContext &Ctx) {
      uint64_t Start = Ctx.clock().now();
      runBody(Ctx, V);
      Cycles = Ctx.clock().now() - Start;
    });
    return Cycles;
  }

  void runBody(offload::OffloadContext &Ctx, Variant V) {
    switch (V) {
    case Variant::Naive:
      for (uint32_t I = 0; I != Count; ++I) {
        uint64_t Addr = Ctx.outerRead<uint64_t>(PtrArray + uint64_t(I) * 8);
        Domain->callOnOuterObject(Ctx, GlobalAddr(Addr), 0, 0);
      }
      return;

    case Variant::Cache: {
      offload::SetAssociativeCache Cache(Ctx, {128, 64, 4, 16});
      Ctx.bindCache(&Cache);
      for (uint32_t I = 0; I != Count; ++I) {
        uint64_t Addr = Ctx.outerRead<uint64_t>(PtrArray + uint64_t(I) * 8);
        Domain->callOnOuterObject(Ctx, GlobalAddr(Addr), 0, 0);
      }
      Ctx.bindCache(nullptr);
      return;
    }

    case Variant::Accessor: {
      // "Array<GameObject*, N_OBJECTS> local_objects;" — one bulk
      // transfer of the pointer array.
      offload::ArrayAccessor<uint64_t> Ptrs(
          Ctx, offload::OuterPtr<uint64_t>(PtrArray), Count,
          offload::AccessMode::ReadOnly);
      for (uint32_t I = 0; I != Count; ++I)
        Domain->callOnOuterObject(Ctx, GlobalAddr(Ptrs.get(I)), 0, 0);
      return;
    }

    case Variant::AccessorCache: {
      offload::SetAssociativeCache Cache(Ctx, {128, 64, 4, 16});
      offload::ArrayAccessor<uint64_t> Ptrs(
          Ctx, offload::OuterPtr<uint64_t>(PtrArray), Count,
          offload::AccessMode::ReadOnly);
      Ctx.bindCache(&Cache);
      for (uint32_t I = 0; I != Count; ++I)
        Domain->callOnOuterObject(Ctx, GlobalAddr(Ptrs.get(I)), 0, 0);
      Ctx.bindCache(nullptr);
      return;
    }

    case Variant::Batched:
      // Restructured: uniform type, contiguous, double buffered,
      // local-object dispatch.
      offload::transformDoubleBuffered<MoveObject>(
          Ctx, offload::OuterPtr<MoveObject>(Objects), Count, 16,
          [&](offload::ChunkView<MoveObject> &Chunk) {
            for (uint32_t I = 0, E = Chunk.size(); I != E; ++I)
              Domain->callOnLocalObject(Ctx, Chunk.addrOf(I), 0, 0);
          });
      return;
    }
  }

  Machine M;
  uint32_t Count;
  ClassRegistry Registry;
  ClassId Class = 0;
  MethodId Move = 0;
  std::unique_ptr<OffloadDomain> Domain;
  GlobalAddr Objects;
  GlobalAddr PtrArray;
};

void BM_LocalityLoop(benchmark::State &State) {
  auto V = static_cast<Variant>(State.range(0));
  uint32_t Count = static_cast<uint32_t>(State.range(1));
  uint64_t Compute = static_cast<uint64_t>(State.range(2));
  for (auto _ : State) {
    Harness H(Count, Compute);
    uint64_t Cycles = H.run(V);
    reportSimCycles(State, Cycles);
    State.counters["cycles_per_object"] =
        static_cast<double>(Cycles) / Count;
  }
}

void registerAll() {
  static const struct {
    Variant V;
    const char *Name;
  } Variants[] = {
      {Variant::Naive, "naive"},
      {Variant::Cache, "cache"},
      {Variant::Accessor, "accessor"},
      {Variant::AccessorCache, "accessor+cache"},
      {Variant::Batched, "batched"},
  };
  for (uint64_t Compute : {0ull, 200ull, 2000ull})
    for (uint32_t Count : {64u, 256u, 1024u})
      for (const auto &Info : Variants)
        simBench(benchmark::RegisterBenchmark(
                     ("BM_LocalityLoop/" + std::string(Info.Name) +
                      "/objects:" + std::to_string(Count) +
                      "/compute:" + std::to_string(Compute))
                         .c_str(),
                     BM_LocalityLoop)
                     ->Args({static_cast<long>(Info.V),
                             static_cast<long>(Count),
                             static_cast<long>(Compute)}));
}

[[maybe_unused]] const int Registered = (registerAll(), 0);

} // namespace
