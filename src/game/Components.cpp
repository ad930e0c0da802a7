//===- game/Components.cpp - The abstract component system ---------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "game/Components.h"

#include "game/Math.h"
#include "offload/DoubleBuffer.h"
#include "offload/Offload.h"
#include "support/Random.h"

#include <cassert>
#include <string>

using namespace omm;
using namespace omm::domains;
using namespace omm::game;
using namespace omm::sim;

uint64_t ComponentData::mixInto(uint64_t Hash) const {
  for (float Value : V)
    Hash = hashMix(Hash, Value);
  Hash = hashMix(Hash, Kind);
  Hash = hashMix(Hash, Tick);
  return Hash;
}

// Method counts sum to 82; with the 28 shared service methods the
// monolithic domain is 110 annotations ("upwards of 100"), and the
// heaviest specialised domain is AIAgent (12 + 28 = 40, the paper's
// post-restructuring maximum).
const std::array<ComponentSystem::KindSpec, ComponentSystem::NumKinds> &
ComponentSystem::kinds() {
  static const std::array<KindSpec, NumKinds> Specs = {{
      {"Transform", 4, 4, 4},
      {"Physics", 6, 8, 8},
      {"Animation", 6, 4, 4},
      {"AIAgent", 12, 28, 8},
      {"CollisionResponder", 8, 4, 4},
      {"Render", 6, 4, 4},
      {"Audio", 4, 4, 4},
      {"Particle", 6, 4, 4},
      {"Navigation", 6, 4, 4},
      {"Health", 4, 4, 4},
      {"Inventory", 4, 4, 4},
      {"Script", 10, 12, 8},
      {"Network", 6, 4, 4},
  }};
  return Specs;
}

unsigned ComponentSystem::heaviestKind() {
  unsigned Best = 0;
  unsigned BestSize = 0;
  for (unsigned K = 0; K != NumKinds; ++K) {
    unsigned Size = kinds()[K].NumMethods + kinds()[K].ServicesUsed;
    if (Size > BestSize) {
      BestSize = Size;
      Best = K;
    }
  }
  return Best;
}

unsigned ComponentSystem::methodIndexOf(unsigned Kind, unsigned Slot) const {
  unsigned Base = 0;
  for (unsigned K = 0; K != Kind; ++K)
    Base += kinds()[K].NumMethods;
  return Base + Slot;
}

void ComponentSystem::transformPayload(ComponentData &Data,
                                       unsigned MethodIndex) {
  unsigned A = MethodIndex % 12;
  unsigned B = (MethodIndex + 5) % 12;
  Data.V[A] = 0.75f * Data.V[A] + 0.25f * Data.V[B] + 0.0625f;
  Data.Tick += 1;
}

unsigned ComponentSystem::serviceSlotFor(unsigned Kind,
                                         unsigned CallIdx) const {
  unsigned Used = kinds()[Kind].ServicesUsed;
  return (CallIdx * 7 + Kind) % Used;
}

ComponentSystem::ComponentSystem(Machine &M, uint32_t ComponentsPerKind,
                                 uint64_t Seed)
    : M(M), PerKind(ComponentsPerKind) {
  assert(PerKind != 0 && "component system needs components");
  buildRegistry();
  Registry.materialize(M);
  allocateObjects(Seed);
}

ComponentSystem::~ComponentSystem() {
  for (GlobalAddr Addr : KindArrays)
    M.freeGlobal(Addr);
  M.freeGlobal(MixedArray);
  M.freeGlobal(Services);
}

void ComponentSystem::buildRegistry() {
  for (unsigned K = 0; K != NumKinds; ++K) {
    const KindSpec &Spec = kinds()[K];
    KindClass[K] = Registry.createClass(Spec.NumMethods);
    KindMethods[K].resize(Spec.NumMethods);
    for (unsigned Slot = 0; Slot != Spec.NumMethods; ++Slot) {
      std::string Name = std::string(Spec.Name) +
                         (Slot == 0 ? "::update"
                                    : "::m" + std::to_string(Slot));
      MethodId Method = Registry.createMethod(std::move(Name));
      KindMethods[K][Slot] = Method;
      Registry.setSlot(KindClass[K], Slot, Method);

      unsigned MIdx = methodIndexOf(K, Slot);
      // Host-instruction-set implementation.
      if (Slot == 0) {
        Registry.setHostImpl(Method, [this, K, MIdx](Machine &Mach,
                                                     GlobalAddr Obj,
                                                     uint64_t) {
          GlobalAddr Payload = Obj + ClassRegistry::payloadOffset();
          ComponentData Data = Mach.hostRead<ComponentData>(Payload);
          transformPayload(Data, MIdx);
          Mach.hostWrite(Payload, Data);
          Mach.hostCompute(ComponentCosts::CyclesPerMethod);
          // Cascade: every other method of this component, virtually.
          for (unsigned Sub = 1; Sub != kinds()[K].NumMethods; ++Sub)
            Registry.callVirtualHost(Mach, Obj, Sub, 0);
          // Shared services, virtually.
          for (unsigned S = 0; S != kinds()[K].ServiceCallsPerUpdate; ++S)
            Registry.callVirtualHost(Mach, Services,
                                     serviceSlotFor(K, S), 0);
        });
      } else {
        Registry.setHostImpl(Method, [MIdx](Machine &Mach, GlobalAddr Obj,
                                            uint64_t) {
          GlobalAddr Payload = Obj + ClassRegistry::payloadOffset();
          ComponentData Data = Mach.hostRead<ComponentData>(Payload);
          transformPayload(Data, MIdx);
          Mach.hostWrite(Payload, Data);
          Mach.hostCompute(ComponentCosts::CyclesPerMethod);
        });
      }
    }
  }

  ServicesClass = Registry.createClass(NumServiceMethods);
  for (unsigned S = 0; S != NumServiceMethods; ++S) {
    MethodId Method =
        Registry.createMethod("GameServices::svc" + std::to_string(S));
    ServiceMethods[S] = Method;
    Registry.setSlot(ServicesClass, S, Method);
    Registry.setHostImpl(Method, [S](Machine &Mach, GlobalAddr Obj,
                                     uint64_t) {
      GlobalAddr Counter =
          Obj + ClassRegistry::payloadOffset() + uint64_t(S) * 8;
      uint64_t Value = Mach.hostRead<uint64_t>(Counter);
      Mach.hostWrite<uint64_t>(Counter, Value + 1 + (S & 3));
      Mach.hostCompute(ComponentCosts::CyclesPerMethod / 2);
    });
  }
}

void ComponentSystem::allocateObjects(uint64_t Seed) {
  SplitMix64 Rng(Seed);

  for (unsigned K = 0; K != NumKinds; ++K) {
    KindArrays[K] =
        M.allocGlobal(uint64_t(PerKind) * sizeof(ComponentObject));
    for (uint32_t I = 0; I != PerKind; ++I) {
      GlobalAddr Addr = componentAddr(K, I);
      Registry.initObject(M, Addr, KindClass[K]);
      ComponentData Data{};
      for (float &Value : Data.V)
        Value = Rng.nextFloatInRange(-1.0f, 1.0f);
      Data.Kind = K;
      Data.Tick = 0;
      M.mainMemory().writeValue(Addr + ClassRegistry::payloadOffset(),
                                Data);
    }
  }

  // The services singleton: header + NumServiceMethods counters.
  Services = M.allocGlobal(ClassRegistry::payloadOffset() +
                           NumServiceMethods * 8);
  Registry.initObject(M, Services, ServicesClass);
  for (unsigned S = 0; S != NumServiceMethods; ++S)
    M.mainMemory().writeValue<uint64_t>(
        Services + ClassRegistry::payloadOffset() + uint64_t(S) * 8, 0);

  // The abstract system's pointer array, deterministically shuffled.
  uint32_t Total = totalComponents();
  std::vector<uint64_t> Addresses;
  Addresses.reserve(Total);
  for (unsigned K = 0; K != NumKinds; ++K)
    for (uint32_t I = 0; I != PerKind; ++I)
      Addresses.push_back(componentAddr(K, I).Value);
  for (uint32_t I = Total; I > 1; --I) {
    uint32_t J = static_cast<uint32_t>(Rng.nextBelow(I));
    std::swap(Addresses[I - 1], Addresses[J]);
  }
  MixedArray = M.allocGlobal(uint64_t(Total) * 8);
  for (uint32_t I = 0; I != Total; ++I)
    M.mainMemory().writeValue<uint64_t>(MixedArray + uint64_t(I) * 8,
                                        Addresses[I]);
}

GlobalAddr ComponentSystem::componentAddr(unsigned Kind,
                                          uint32_t Index) const {
  assert(Kind < NumKinds && Index < PerKind && "component out of range");
  return KindArrays[Kind] + uint64_t(Index) * sizeof(ComponentObject);
}

//===----------------------------------------------------------------------===//
// Method bodies for the accelerator duplicates.
//===----------------------------------------------------------------------===//

LocalMethod ComponentSystem::makeServiceBody(unsigned ServiceSlot) {
  uint64_t HalfCost = ComponentCosts::CyclesPerMethod / 2;
  GlobalAddr ServicesObj = Services;
  return [ServicesObj, ServiceSlot, HalfCost](offload::OffloadContext &Ctx,
                                              DispatchTarget Target,
                                              uint64_t) {
    (void)Target; // Services are addressed absolutely.
    GlobalAddr Counter = ServicesObj + ClassRegistry::payloadOffset() +
                         uint64_t(ServiceSlot) * 8;
    uint64_t Value = Ctx.outerRead<uint64_t>(Counter);
    Ctx.outerWrite<uint64_t>(Counter, Value + 1 + (ServiceSlot & 3));
    Ctx.compute(HalfCost);
  };
}

LocalMethod ComponentSystem::makeLocalBody(unsigned Kind, unsigned Slot,
                                           OffloadDomain *Dom) {
  unsigned MIdx = methodIndexOf(Kind, Slot);
  return [this, Kind, Slot, MIdx, Dom](offload::OffloadContext &Ctx,
                                       DispatchTarget Target, uint64_t) {
    LocalAddr Payload =
        Target.Local + static_cast<uint32_t>(ClassRegistry::payloadOffset());
    ComponentData Data = Ctx.localRead<ComponentData>(Payload);
    transformPayload(Data, MIdx);
    Ctx.localWrite(Payload, Data);
    Ctx.compute(ComponentCosts::CyclesPerMethod);
    if (Slot != 0)
      return;
    for (unsigned Sub = 1; Sub != kinds()[Kind].NumMethods; ++Sub) {
      bool Ok = Dom->callOnLocalObject(Ctx, Target.Local, Sub, 0);
      assert(Ok && "specialised domain is missing its own method");
      (void)Ok;
    }
    for (unsigned S = 0; S != kinds()[Kind].ServiceCallsPerUpdate; ++S) {
      bool Ok = Dom->callOnOuterObject(Ctx, Services,
                                       serviceSlotFor(Kind, S), 0);
      assert(Ok && "specialised domain is missing a service method");
      (void)Ok;
    }
  };
}

LocalMethod ComponentSystem::makeOuterBody(unsigned Kind, unsigned Slot,
                                           OffloadDomain *Dom) {
  unsigned MIdx = methodIndexOf(Kind, Slot);
  return [this, Kind, Slot, MIdx, Dom](offload::OffloadContext &Ctx,
                                       DispatchTarget Target, uint64_t) {
    // The abstract path: the object stayed in outer memory, so every
    // field access is an inter-memory-space transfer.
    GlobalAddr Payload = Target.Outer + ClassRegistry::payloadOffset();
    ComponentData Data = Ctx.outerRead<ComponentData>(Payload);
    transformPayload(Data, MIdx);
    Ctx.outerWrite(Payload, Data);
    Ctx.compute(ComponentCosts::CyclesPerMethod);
    if (Slot != 0)
      return;
    for (unsigned Sub = 1; Sub != kinds()[Kind].NumMethods; ++Sub) {
      bool Ok = Dom->callOnOuterObject(Ctx, Target.Outer, Sub, 0);
      assert(Ok && "monolithic domain is missing a method");
      (void)Ok;
    }
    for (unsigned S = 0; S != kinds()[Kind].ServiceCallsPerUpdate; ++S) {
      bool Ok = Dom->callOnOuterObject(Ctx, Services,
                                       serviceSlotFor(Kind, S), 0);
      assert(Ok && "monolithic domain is missing a service method");
      (void)Ok;
    }
  };
}

//===----------------------------------------------------------------------===//
// Domains.
//===----------------------------------------------------------------------===//

OffloadDomain &ComponentSystem::monolithicDomain() {
  if (MonolithicDomain)
    return *MonolithicDomain;
  MonolithicDomain = std::make_unique<OffloadDomain>(Registry);
  OffloadDomain *Dom = MonolithicDomain.get();
  // Every method of every component kind, plus every service method:
  // the "upwards of 100 virtual functions" annotation burden.
  for (unsigned K = 0; K != NumKinds; ++K)
    for (unsigned Slot = 0; Slot != kinds()[K].NumMethods; ++Slot)
      Dom->addDuplicate(KindMethods[K][Slot], DuplicateId::thisOuter(),
                        makeOuterBody(K, Slot, Dom),
                        ComponentCosts::CodeBytesPerMethod);
  for (unsigned S = 0; S != NumServiceMethods; ++S)
    Dom->addDuplicate(ServiceMethods[S], DuplicateId::thisOuter(),
                      makeServiceBody(S), ComponentCosts::CodeBytesPerMethod);
  return *MonolithicDomain;
}

OffloadDomain &ComponentSystem::kindDomain(unsigned Kind) {
  assert(Kind < NumKinds && "kind out of range");
  if (KindDomains[Kind])
    return *KindDomains[Kind];
  KindDomains[Kind] = std::make_unique<OffloadDomain>(Registry);
  OffloadDomain *Dom = KindDomains[Kind].get();
  // Only this kind's methods (operating on prefetched local objects)
  // plus the services it actually uses.
  for (unsigned Slot = 0; Slot != kinds()[Kind].NumMethods; ++Slot)
    Dom->addDuplicate(KindMethods[Kind][Slot], DuplicateId::thisLocal(),
                      makeLocalBody(Kind, Slot, Dom),
                      ComponentCosts::CodeBytesPerMethod);
  for (unsigned S = 0; S != kinds()[Kind].ServicesUsed; ++S)
    Dom->addDuplicate(ServiceMethods[S], DuplicateId::thisOuter(),
                      makeServiceBody(S), ComponentCosts::CodeBytesPerMethod);
  return *KindDomains[Kind];
}

//===----------------------------------------------------------------------===//
// Schedules.
//===----------------------------------------------------------------------===//

void ComponentSystem::updateAllHost() {
  uint32_t Total = totalComponents();
  for (uint32_t I = 0; I != Total; ++I) {
    // objects[i] -> component (the Section 4.2 pointer chase) ...
    uint64_t Addr = M.hostRead<uint64_t>(MixedArray + uint64_t(I) * 8);
    // ... then current->update(), a virtual call.
    Registry.callVirtualHost(M, GlobalAddr(Addr), 0, 0);
  }
}

void ComponentSystem::updateMonolithicOffload(unsigned AccelId) {
  OffloadDomain &Dom = monolithicDomain();
  uint32_t Total = totalComponents();
  GlobalAddr Mixed = MixedArray;
  offload::OffloadHandle Handle = offload::offloadBlock(
      M, AccelId, [&](offload::OffloadContext &Ctx) {
        // Under a code-overlay budget, uploads happen per dispatch
        // instead of as one block-start reservation.
        if (Dom.codeBudget() == 0)
          Dom.reserveCode(Ctx);
        for (uint32_t I = 0; I != Total; ++I) {
          uint64_t Addr = Ctx.outerRead<uint64_t>(Mixed + uint64_t(I) * 8);
          bool Ok = Dom.callOnOuterObject(Ctx, GlobalAddr(Addr), 0, 0);
          assert(Ok && "monolithic domain miss");
          (void)Ok;
        }
      });
  offload::offloadJoin(M, Handle);
}

void ComponentSystem::updateSpecialisedOffloads(bool SpreadAccelerators) {
  offload::OffloadGroup Group;
  for (unsigned K = 0; K != NumKinds; ++K) {
    OffloadDomain &Dom = kindDomain(K);
    GlobalAddr Array = KindArrays[K];
    uint32_t Count = PerKind;
    auto Body = [&Dom, Array, Count](offload::OffloadContext &Ctx) {
      if (Dom.codeBudget() == 0)
        Dom.reserveCode(Ctx);
      // Uniform type => prefetchable, double-buffered batches
      // (Section 4.1's optimisation).
      offload::transformDoubleBuffered<ComponentObject>(
          Ctx, offload::OuterPtr<ComponentObject>(Array), Count,
          /*ChunkElems=*/16, [&](offload::ChunkView<ComponentObject> &Chunk) {
            for (uint32_t I = 0, E = Chunk.size(); I != E; ++I) {
              bool Ok =
                  Dom.callOnLocalObject(Ctx, Chunk.addrOf(I), 0, 0);
              assert(Ok && "specialised domain miss");
              (void)Ok;
            }
          });
    };
    if (SpreadAccelerators)
      Group.launch(M, Body);
    else
      Group.launchOn(M, 0, Body);
  }
  Group.joinAll(M);
}

//===----------------------------------------------------------------------===//
// Measurement.
//===----------------------------------------------------------------------===//

uint64_t ComponentSystem::stateChecksum() const {
  uint64_t Hash = 0xCBF29CE484222325ull;
  for (unsigned K = 0; K != NumKinds; ++K)
    for (uint32_t I = 0; I != PerKind; ++I) {
      auto Data = M.mainMemory().readValue<ComponentData>(
          componentAddr(K, I) + ClassRegistry::payloadOffset());
      Hash = Data.mixInto(Hash);
    }
  for (unsigned S = 0; S != NumServiceMethods; ++S) {
    auto Counter = M.mainMemory().readValue<uint64_t>(
        Services + ClassRegistry::payloadOffset() + uint64_t(S) * 8);
    Hash = hashMix(Hash, static_cast<uint32_t>(Counter));
    Hash = hashMix(Hash, static_cast<uint32_t>(Counter >> 32));
  }
  return Hash;
}

uint64_t ComponentSystem::hostDispatchCount() const {
  return Registry.hostDispatchCount();
}
