//===- domains/ObjectModel.h - Objects with vtables in sim memory -*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A C++-like object model whose objects and virtual tables live in the
/// *simulated* main memory, so that dynamic dispatch pays the memory
/// costs the paper describes: "the 'obj' pointer is dereferenced to
/// obtain a pointer to the virtual table (vtable). The virtual table
/// pointer is dereferenced with an offset to obtain the address for the
/// particular implementation of method f to call" (Section 4.1) — two
/// dependent inter-memory-space transfers when performed from an
/// accelerator (Section 4.2's loop example).
///
/// Layout of a polymorphic object at GlobalAddr A:
///   [ 8 bytes: GlobalAddr of the class's vtable ][ payload ... ]
/// Layout of a materialised vtable:
///   [ 4 bytes: ClassId ][ 4 bytes: NumSlots ][ NumSlots x 4-byte MethodId ]
///
/// MethodId stands in for a host code address ("pointers to functions in
/// global store", Figure 3). Host-side implementations are registered per
/// MethodId; accelerator-side duplicates are registered in an
/// OffloadDomain (Domain.h).
///
//===----------------------------------------------------------------------===//

#ifndef OMM_DOMAINS_OBJECTMODEL_H
#define OMM_DOMAINS_OBJECTMODEL_H

#include "offload/OffloadContext.h"
#include "sim/Machine.h"

#include <functional>
#include <string>
#include <vector>

namespace omm::domains {

/// Index of a registered class.
using ClassId = uint32_t;

/// Identifier of one method implementation (a host code address).
using MethodId = uint32_t;

/// Sentinel for an empty vtable slot (pure virtual).
inline constexpr MethodId NoMethod = 0;

/// A host-side method body: invoked with the machine, the object's
/// address and one opaque argument.
using HostMethod =
    std::function<void(sim::Machine &, sim::GlobalAddr, uint64_t)>;

/// Registry of classes, their vtables, and host method implementations.
///
/// Build the hierarchy, then call materialize() once to write every
/// vtable into the machine's main memory; objects are stamped with their
/// vtable address via initObject().
class ClassRegistry {
public:
  /// Header prefixed to every polymorphic object.
  struct ObjectHeader {
    uint64_t VtableAddr;
  };

  /// Registers a class with \p NumSlots virtual slots. If \p Parent is
  /// non-negative, the new class inherits (copies) the parent's slots.
  ClassId createClass(unsigned NumSlots, int Parent = -1);

  /// Registers a method implementation name; \returns its id.
  MethodId createMethod(std::string Name);

  /// Points slot \p Slot of \p Class at \p Method (a C++ override).
  void setSlot(ClassId Class, unsigned Slot, MethodId Method);

  /// Installs the host-instruction-set body for \p Method.
  void setHostImpl(MethodId Method, HostMethod Impl);

  /// Writes every vtable into \p M's main memory. Call once, before any
  /// object creation or dispatch.
  void materialize(sim::Machine &M);

  /// \returns the main-memory address of \p Class's vtable.
  sim::GlobalAddr vtableAddr(ClassId Class) const;

  /// Stamps the object header at \p Obj so the object is a \p Class.
  void initObject(sim::Machine &M, sim::GlobalAddr Obj, ClassId Class) const;

  /// Bytes a payload of \p PayloadSize needs including the header.
  static constexpr uint64_t objectSize(uint64_t PayloadSize) {
    return sizeof(ObjectHeader) + PayloadSize;
  }

  /// Byte offset of the payload within an object.
  static constexpr uint64_t payloadOffset() { return sizeof(ObjectHeader); }

  const std::string &methodName(MethodId Method) const;
  MethodId slot(ClassId Class, unsigned Slot) const;

  //===--------------------------------------------------------------===//
  // Dispatch (host side).
  //===--------------------------------------------------------------===//

  /// Performs obj->slot(Arg) on the host: two dependent (costed) loads —
  /// header then vtable slot — followed by the host body.
  void callVirtualHost(sim::Machine &M, sim::GlobalAddr Obj, unsigned Slot,
                       uint64_t Arg) const;

  /// The two dependent loads only: \returns the MethodId obj's dynamic
  /// type provides for \p Slot. Exposed for the accelerator-side
  /// dispatch helpers in Domain.h.
  MethodId resolveSlotHost(sim::Machine &M, sim::GlobalAddr Obj,
                           unsigned Slot) const;

  /// Accelerator-side slot resolution for an object already copied into
  /// local store at \p LocalObj: the header read is local; only the
  /// vtable slot read crosses memory spaces.
  MethodId resolveSlotLocal(offload::OffloadContext &Ctx,
                            sim::LocalAddr LocalObj, unsigned Slot) const;

  const HostMethod *hostImpl(MethodId Method) const;

  /// Number of host-side virtual dispatches performed so far (the
  /// "virtual calls per frame" measurement of Section 4.1).
  uint64_t hostDispatchCount() const { return HostDispatches; }

private:
  struct ClassInfo {
    std::vector<MethodId> Slots;
    sim::GlobalAddr Vtable;
  };

  std::vector<ClassInfo> Classes;
  std::vector<std::string> MethodNames{"<no-method>"}; // MethodId 0 = none.
  std::vector<HostMethod> HostImpls{HostMethod()};
  bool Materialized = false;
  mutable uint64_t HostDispatches = 0;
};

} // namespace omm::domains

#endif // OMM_DOMAINS_OBJECTMODEL_H
