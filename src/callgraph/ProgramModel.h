//===- callgraph/ProgramModel.h - A model of game program structure -*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiler-side substrate of Offload C++ (Section 3, problem 1):
/// "it is necessary to statically identify all code invoked (directly,
/// or indirectly through chains of possibly virtual function calls)
/// from the offload block and compile it separately for the accelerator
/// cores. ... Problem (1) is solved by equipping the compiler with
/// techniques for automatic function duplication. There are two cases
/// where manual annotations are required: one is when a call graph
/// rooted in an offload block calls functions in separate compilation
/// units, which are not immediately available for compilation. The
/// other is that the programmer must specify which methods or functions
/// may be called virtually or via function pointer inside an offload
/// block."
///
/// ProgramModel describes a program the way that compiler sees it:
/// functions with pointer parameters, direct call edges that say how
/// the caller's memory spaces flow into the callee's parameters, and
/// virtual call sites resolved by annotation sets. OffloadClosure
/// (OffloadClosure.h) runs the duplication analysis over it.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_CALLGRAPH_PROGRAMMODEL_H
#define OMM_CALLGRAPH_PROGRAMMODEL_H

#include "domains/SpaceSignature.h"

#include <cstdint>
#include <string>
#include <vector>

namespace omm::callgraph {

/// Index of a function in the model.
using FunctionId = uint32_t;

/// Index of a compilation unit.
using UnitId = uint32_t;

/// Index of a virtual call-site class ("slot"): all call sites that may
/// dispatch to the same set of overrides share one.
using VirtualSlotId = uint32_t;

/// How one argument of a call site obtains its memory space.
struct ArgBinding {
  enum BindingKind {
    FromCallerParam, ///< The caller forwards its own pointer parameter.
    AlwaysLocal,     ///< The caller passes block-local data.
    AlwaysOuter,     ///< The caller passes host data.
  };
  BindingKind Kind = AlwaysOuter;
  uint8_t CallerParam = 0; ///< Valid when Kind == FromCallerParam.

  static ArgBinding fromParam(uint8_t Param) {
    return ArgBinding{FromCallerParam, Param};
  }
  static ArgBinding local() { return ArgBinding{AlwaysLocal, 0}; }
  static ArgBinding outer() { return ArgBinding{AlwaysOuter, 0}; }
};

/// One call site inside a function body.
struct CallSite {
  enum SiteKind {
    Direct,  ///< Statically bound call to Callee.
    Virtual, ///< Dynamic dispatch through VirtualSlot.
  };
  SiteKind Kind = Direct;
  FunctionId Callee = 0;        ///< Valid for Direct.
  VirtualSlotId VirtualSlot = 0; ///< Valid for Virtual.
  /// How each callee pointer parameter receives its space; must match
  /// the callee's (or every override's) parameter count.
  std::vector<ArgBinding> Args;
};

/// A program: functions, units, virtual slots.
class ProgramModel {
public:
  /// Registers a compilation unit. \p SourceAvailable mirrors the
  /// paper's separate-compilation restriction: functions in unavailable
  /// units cannot be duplicated and need annotations / restructuring.
  UnitId addUnit(std::string Name, bool SourceAvailable = true);

  /// Registers a function with \p NumPtrParams pointer parameters and
  /// \p CodeBytes of accelerator code per duplicate.
  FunctionId addFunction(std::string Name, UnitId Unit,
                         unsigned NumPtrParams, uint32_t CodeBytes = 1024);

  /// Registers a virtual slot; overrides are attached with addOverride.
  VirtualSlotId addVirtualSlot(std::string Name);

  /// Declares \p Fn as a possible target of \p Slot.
  void addOverride(VirtualSlotId Slot, FunctionId Fn);

  /// Adds a direct call from \p Caller to \p Callee.
  void addCall(FunctionId Caller, FunctionId Callee,
               std::vector<ArgBinding> Args);

  /// Adds a virtual call site in \p Caller through \p Slot.
  void addVirtualCall(FunctionId Caller, VirtualSlotId Slot,
                      std::vector<ArgBinding> Args);

  const std::string &functionName(FunctionId Fn) const;
  const std::string &unitName(UnitId Unit) const;
  const std::string &slotName(VirtualSlotId Slot) const;
  bool unitSourceAvailable(UnitId Unit) const;
  UnitId unitOf(FunctionId Fn) const;
  unsigned numPtrParams(FunctionId Fn) const;
  uint32_t codeBytes(FunctionId Fn) const;
  const std::vector<CallSite> &callSites(FunctionId Fn) const;
  const std::vector<FunctionId> &overridesOf(VirtualSlotId Slot) const;

private:
  struct FunctionInfo {
    std::string Name;
    UnitId Unit;
    unsigned NumPtrParams;
    uint32_t CodeBytes;
    std::vector<CallSite> Sites;
  };
  struct UnitInfo {
    std::string Name;
    bool SourceAvailable;
  };
  struct SlotInfo {
    std::string Name;
    std::vector<FunctionId> Overrides;
  };

  std::vector<FunctionInfo> Functions;
  std::vector<UnitInfo> Units;
  std::vector<SlotInfo> Slots;
};

} // namespace omm::callgraph

#endif // OMM_CALLGRAPH_PROGRAMMODEL_H
