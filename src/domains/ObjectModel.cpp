//===- domains/ObjectModel.cpp - Objects with vtables in sim memory ------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "domains/ObjectModel.h"

#include "support/Diag.h"

#include <cassert>

using namespace omm;
using namespace omm::domains;
using namespace omm::sim;

ClassId ClassRegistry::createClass(unsigned NumSlots, int Parent) {
  assert(!Materialized && "class hierarchy is frozen after materialize()");
  ClassInfo Info;
  Info.Slots.assign(NumSlots, NoMethod);
  if (Parent >= 0) {
    assert(static_cast<unsigned>(Parent) < Classes.size() &&
           "unknown parent class");
    const ClassInfo &ParentInfo = Classes[Parent];
    assert(ParentInfo.Slots.size() <= NumSlots &&
           "derived class narrows its parent's vtable");
    for (size_t I = 0; I != ParentInfo.Slots.size(); ++I)
      Info.Slots[I] = ParentInfo.Slots[I];
  }
  Classes.push_back(std::move(Info));
  return static_cast<ClassId>(Classes.size() - 1);
}

MethodId ClassRegistry::createMethod(std::string Name) {
  assert(!Materialized && "method set is frozen after materialize()");
  MethodNames.push_back(std::move(Name));
  HostImpls.emplace_back();
  return static_cast<MethodId>(MethodNames.size() - 1);
}

void ClassRegistry::setSlot(ClassId Class, unsigned Slot, MethodId Method) {
  assert(!Materialized && "vtables are frozen after materialize()");
  assert(Class < Classes.size() && "unknown class");
  assert(Slot < Classes[Class].Slots.size() && "vtable slot out of range");
  assert(Method < MethodNames.size() && "unknown method");
  Classes[Class].Slots[Slot] = Method;
}

void ClassRegistry::setHostImpl(MethodId Method, HostMethod Impl) {
  assert(Method != NoMethod && Method < HostImpls.size() &&
         "unknown method");
  HostImpls[Method] = std::move(Impl);
}

void ClassRegistry::materialize(Machine &M) {
  assert(!Materialized && "materialize() called twice");
  for (ClassInfo &Info : Classes) {
    // [ClassId][NumSlots][slots...]
    uint64_t Bytes = 8 + Info.Slots.size() * sizeof(MethodId);
    Info.Vtable = M.allocGlobal(Bytes);
    ClassId Id = static_cast<ClassId>(&Info - Classes.data());
    M.mainMemory().writeValue<uint32_t>(Info.Vtable, Id);
    M.mainMemory().writeValue<uint32_t>(
        Info.Vtable + 4, static_cast<uint32_t>(Info.Slots.size()));
    for (size_t I = 0; I != Info.Slots.size(); ++I)
      M.mainMemory().writeValue<MethodId>(
          Info.Vtable + 8 + I * sizeof(MethodId), Info.Slots[I]);
  }
  Materialized = true;
}

GlobalAddr ClassRegistry::vtableAddr(ClassId Class) const {
  assert(Materialized && "vtables not materialised yet");
  assert(Class < Classes.size() && "unknown class");
  return Classes[Class].Vtable;
}

void ClassRegistry::initObject(Machine &M, GlobalAddr Obj,
                               ClassId Class) const {
  ObjectHeader Header{vtableAddr(Class).Value};
  M.mainMemory().writeValue(Obj, Header);
}

const std::string &ClassRegistry::methodName(MethodId Method) const {
  assert(Method < MethodNames.size() && "unknown method");
  return MethodNames[Method];
}

MethodId ClassRegistry::slot(ClassId Class, unsigned Slot) const {
  assert(Class < Classes.size() && "unknown class");
  assert(Slot < Classes[Class].Slots.size() && "vtable slot out of range");
  return Classes[Class].Slots[Slot];
}

const HostMethod *ClassRegistry::hostImpl(MethodId Method) const {
  if (Method == NoMethod || Method >= HostImpls.size() ||
      !HostImpls[Method])
    return nullptr;
  return &HostImpls[Method];
}

MethodId ClassRegistry::resolveSlotHost(Machine &M, GlobalAddr Obj,
                                        unsigned Slot) const {
  ++HostDispatches;
  // Load 1: object header -> vtable pointer.
  uint64_t Vtable = M.hostRead<uint64_t>(Obj);
  // Load 2 (dependent): vtable slot -> method address.
  return M.hostRead<MethodId>(GlobalAddr(Vtable) + 8 +
                              uint64_t(Slot) * sizeof(MethodId));
}

void ClassRegistry::callVirtualHost(Machine &M, GlobalAddr Obj,
                                    unsigned Slot, uint64_t Arg) const {
  MethodId Method = resolveSlotHost(M, Obj, Slot);
  const HostMethod *Impl = hostImpl(Method);
  if (!Impl)
    reportFatalError("virtual dispatch: slot has no host implementation "
                     "(pure virtual call)");
  (*Impl)(M, Obj, Arg);
}

MethodId ClassRegistry::resolveSlotLocal(offload::OffloadContext &Ctx,
                                         LocalAddr LocalObj,
                                         unsigned Slot) const {
  // The object was prefetched: its header read is a local-store access.
  uint64_t Vtable = Ctx.localRead<uint64_t>(LocalObj);
  // The vtable itself still lives in outer memory.
  return Ctx.outerRead<MethodId>(GlobalAddr(Vtable) + 8 +
                                 uint64_t(Slot) * sizeof(MethodId));
}
