//===- game/Components.h - The abstract component system -------*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's component-system case study (Section 4.1): "the game used
/// an abstract component system, performing more than 1300 virtual calls
/// per frame, which we tried to offload in its entirety. ... it was
/// necessary to annotate a portion of offloaded code with upwards of 100
/// virtual functions. ... We therefore restructured the component system
/// to be type specialised ... We wrote a separate offload for each task,
/// one per component, instead of a single offload for all the distinct
/// components, resulting in 13 separate type-specialised offloads.
/// After the restructuring, the maximum number of virtual functions
/// associated with a portion of offloaded code being shipped in this
/// particular game is 40."
///
/// This module reproduces the whole story with measurable structure:
///
///   - 13 component kinds, each a class with its own virtual method set
///     (82 methods total), plus a shared GameServices class with 28
///     virtual service methods: a *monolithic* offload must annotate all
///     110 (the paper's "upwards of 100").
///   - Component updates cascade into sub-method and service virtual
///     calls; with the default 9 components per kind one frame performs
///     ~1300 dynamic dispatches, matching the paper's measurement.
///   - The *type-specialised* schedule runs one offload per kind over a
///     uniform, contiguous, prefetchable array (double-buffered); its
///     largest domain (AIAgent: 12 own methods + all 28 services) is
///     exactly 40 annotations.
///   - All three schedules (host, monolithic offload, specialised
///     offloads) produce bit-identical component state, the paper's
///     "without loss of generality".
///
//===----------------------------------------------------------------------===//

#ifndef OMM_GAME_COMPONENTS_H
#define OMM_GAME_COMPONENTS_H

#include "domains/Domain.h"
#include "domains/ObjectModel.h"
#include "sim/Machine.h"

#include <array>
#include <memory>
#include <vector>

namespace omm::game {

/// Payload carried by every component (uniform size; the abstract system
/// hides the concrete type, the specialised system exploits it).
struct ComponentData {
  float V[12];
  uint32_t Kind;
  uint32_t Tick;

  uint64_t mixInto(uint64_t Hash) const;
};
static_assert(sizeof(ComponentData) == 56);

/// A complete component object as laid out in main memory.
struct ComponentObject {
  domains::ClassRegistry::ObjectHeader Header;
  ComponentData Data;
};
static_assert(sizeof(ComponentObject) == 64 &&
              sizeof(ComponentObject) % 16 == 0);

/// Fixed cost model for component execution.
struct ComponentCosts {
  static constexpr uint64_t CyclesPerMethod = 100; ///< Per method body.
  static constexpr uint32_t CodeBytesPerMethod = 1536; ///< Code footprint.
};

/// The component system: classes, objects, schedules and domains.
class ComponentSystem {
public:
  static constexpr unsigned NumKinds = 13;
  static constexpr unsigned NumServiceMethods = 28;

  struct KindSpec {
    const char *Name;
    unsigned NumMethods;   ///< Virtual methods of this class (incl. update).
    /// Length of the service-vtable prefix annotated for this kind's
    /// specialised offload. An update calls only the slots
    /// (7·S + Kind) mod ServicesUsed for S < ServiceCallsPerUpdate:
    /// 4 of AIAgent's 28, 8 of Script's 12.
    unsigned ServicesUsed;
    unsigned ServiceCallsPerUpdate; ///< Service dispatches per update.
  };
  static const std::array<KindSpec, NumKinds> &kinds();

  ComponentSystem(sim::Machine &M, uint32_t ComponentsPerKind,
                  uint64_t Seed);
  ~ComponentSystem();

  ComponentSystem(const ComponentSystem &) = delete;
  ComponentSystem &operator=(const ComponentSystem &) = delete;

  sim::Machine &machine() { return M; }
  domains::ClassRegistry &registry() { return Registry; }
  uint32_t totalComponents() const { return PerKind * NumKinds; }

  /// Main-memory address of component \p Index of \p Kind.
  sim::GlobalAddr componentAddr(unsigned Kind, uint32_t Index) const;

  //===--------------------------------------------------------------===//
  // Frame schedules. All three produce bit-identical state.
  //===--------------------------------------------------------------===//

  /// Traditional-host schedule: virtual dispatch through the mixed
  /// pointer array.
  void updateAllHost();

  /// One offload for the entire abstract system: every dispatch is an
  /// outer-object dispatch, and the domain carries all 110 annotations.
  void updateMonolithicOffload(unsigned AccelId = 0);

  /// Thirteen type-specialised offloads, each streaming its kind's
  /// contiguous array through local store double-buffered. When
  /// \p SpreadAccelerators is false, all 13 run on accelerator 0
  /// (isolating the benefit of specialisation from multi-core scaling).
  void updateSpecialisedOffloads(bool SpreadAccelerators = true);

  //===--------------------------------------------------------------===//
  // Domains (built on demand, cached).
  //===--------------------------------------------------------------===//

  domains::OffloadDomain &monolithicDomain();
  domains::OffloadDomain &kindDomain(unsigned Kind);

  //===--------------------------------------------------------------===//
  // Measurement.
  //===--------------------------------------------------------------===//

  /// Bit-exact checksum over all component payloads and the service
  /// counters (uncosted; verification only).
  uint64_t stateChecksum() const;

  /// Dynamic dispatches performed by host-side virtual calls so far.
  uint64_t hostDispatchCount() const;

  /// Index of the kind with the largest specialised domain (AIAgent).
  static unsigned heaviestKind();

private:
  /// Global method index (stable across schedules) of slot \p Slot of
  /// kind \p Kind; drives the payload transformation.
  unsigned methodIndexOf(unsigned Kind, unsigned Slot) const;

  /// The shared payload transformation every method body applies.
  static void transformPayload(ComponentData &Data, unsigned MethodIndex);

  void buildRegistry();
  void allocateObjects(uint64_t Seed);

  domains::LocalMethod makeLocalBody(unsigned Kind, unsigned Slot,
                                     domains::OffloadDomain *Dom);
  domains::LocalMethod makeOuterBody(unsigned Kind, unsigned Slot,
                                     domains::OffloadDomain *Dom);
  domains::LocalMethod makeServiceBody(unsigned ServiceSlot);

  /// Service slot used by the \p CallIdx-th service call of \p Kind.
  unsigned serviceSlotFor(unsigned Kind, unsigned CallIdx) const;

  sim::Machine &M;
  uint32_t PerKind;

  domains::ClassRegistry Registry;
  std::array<domains::ClassId, NumKinds> KindClass{};
  domains::ClassId ServicesClass = 0;
  /// Method ids: [Kind][Slot].
  std::array<std::vector<domains::MethodId>, NumKinds> KindMethods;
  std::array<domains::MethodId, NumServiceMethods> ServiceMethods{};

  std::array<sim::GlobalAddr, NumKinds> KindArrays{};
  /// The abstract system's GameObject* array: every component's address
  /// in a deterministic shuffled order (Section 4.2's objects[]).
  sim::GlobalAddr MixedArray;
  /// The shared GameServices singleton object.
  sim::GlobalAddr Services;

  std::unique_ptr<domains::OffloadDomain> MonolithicDomain;
  std::array<std::unique_ptr<domains::OffloadDomain>, NumKinds> KindDomains;
};

} // namespace omm::game

#endif // OMM_GAME_COMPONENTS_H
