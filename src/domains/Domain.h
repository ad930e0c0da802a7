//===- domains/Domain.h - Inner/outer dispatch domains ---------*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 3's machinery: "Instead of a normal vtable lookup and call, a
/// domain lookup is performed after vtable lookup to determine if an
/// implementation of the routine is present in the local memory space.
/// This lookup is a two stage process. First, a search over an array of
/// known virtual method addresses, the outer domain, determines whether
/// the routine is present in local store. If a potential match is found
/// in the outer domain, the index of the matching pointer in the outer
/// domain is used to index into the inner domain. Within the inner
/// domain, we obtain details of function duplicates present ... The
/// inner domain details the number of duplicates present, in a sequence
/// of identifier, function address pairs" (Section 4.1).
///
/// An OffloadDomain is the set of methods the programmer *annotated* for
/// an offload; its size is the paper's annotation count (the "100+
/// virtual functions" versus "maximum 40" of the restructuring story,
/// experiment E4), and the outer-domain linear scan makes dispatch cost
/// grow with it (experiment E3).
///
/// On a miss the paper's system raises an exception carrying enough
/// information to extend the annotations; here the domain emits a
/// diagnostic with the method name and signature. The paper's suggested
/// elaboration — "on-demand code loading for functions not present in
/// local memory" — is implemented via an optional loader callback.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_DOMAINS_DOMAIN_H
#define OMM_DOMAINS_DOMAIN_H

#include "domains/ObjectModel.h"
#include "domains/SpaceSignature.h"
#include "support/Diag.h"

#include <functional>
#include <vector>

namespace omm::domains {

/// The object a dispatched duplicate operates on. A duplicate compiled
/// for signature thisLocal() reads Local (the object was copied into
/// scratch-pad); one compiled for thisOuter() reads Outer and contains
/// the generated data-transfer code for every field access.
struct DispatchTarget {
  sim::LocalAddr Local;
  sim::GlobalAddr Outer;

  static DispatchTarget local(sim::LocalAddr Addr) {
    return DispatchTarget{Addr, sim::GlobalAddr()};
  }
  static DispatchTarget outer(sim::GlobalAddr Addr) {
    return DispatchTarget{sim::LocalAddr(), Addr};
  }
};

/// An accelerator-instruction-set method body (one duplicate): invoked
/// with the context, the target object, and one opaque argument.
using LocalMethod =
    std::function<void(offload::OffloadContext &, DispatchTarget, uint64_t)>;

/// Cost model for domain dispatch and code management.
struct DomainCosts {
  uint64_t OuterScanPerEntry = 2; ///< Cycles per outer-domain compare.
  uint64_t InnerMatchPerEntry = 3; ///< Cycles per (id, address) compare.
  uint64_t CallOverhead = 8;       ///< Indirect-branch cost on a hit.
  uint64_t CodeLoadPerByte = 1;    ///< On-demand code upload, per byte.
  uint64_t CodeLoadLatency = 2000; ///< On-demand code upload, fixed part.
  uint64_t MemoLookupCycles = 6;   ///< Vtable-memo probe cost.
};

/// Running profile of a domain's dispatch behaviour.
struct DomainStats {
  uint64_t Lookups = 0;
  uint64_t OuterScanSteps = 0;
  uint64_t InnerMatchSteps = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t OnDemandLoads = 0;
  uint64_t MemoHits = 0;   ///< Vtable reads avoided by the memo.
  uint64_t MemoMisses = 0; ///< Memo probes that fell through to memory.
};

/// The annotated method set of one offload, with Figure 3's two-level
/// lookup structure.
class OffloadDomain {
public:
  explicit OffloadDomain(const ClassRegistry &Registry,
                         DomainCosts Costs = DomainCosts())
      : Registry(Registry), Costs(Costs) {}

  /// Annotates \p Method (with duplicate signature \p Id) as callable
  /// from this offload; \p Body is the accelerator-compiled duplicate
  /// and \p CodeBytes its code size in local store.
  void addDuplicate(MethodId Method, DuplicateId Id, LocalMethod Body,
                    uint32_t CodeBytes = 1024);

  /// Registers the same body for every slot a class provides — the
  /// "annotate this type's methods" convenience used by the
  /// type-specialised component offloads.
  void annotateClassSlots(ClassId Class, DuplicateId Id,
                          const std::function<LocalMethod(MethodId)> &MakeBody,
                          uint32_t CodeBytesPerMethod = 1024);

  /// Installs the paper's on-demand-code-loading elaboration: on a miss,
  /// \p Loader may supply the missing duplicate (charged at the
  /// code-load cost), which is then added to the domain.
  void setOnDemandLoader(
      std::function<LocalMethod(MethodId, DuplicateId)> Loader) {
    OnDemandLoader = std::move(Loader);
  }

  /// Routes miss diagnostics to \p Sink (otherwise misses are silent in
  /// the structured stats only).
  void setDiagSink(DiagSink *Sink) { Diags = Sink; }

  /// Enables the vtable-slot memo: the accelerator remembers which
  /// MethodId each (vtable address, slot) resolved to, so objects of a
  /// class already seen skip the inter-memory-space vtable read.
  /// Legal because vtables are immutable after materialisation; this is
  /// the standard production optimisation on top of Figure 3 (uniform
  /// batches dispatch thousands of objects of one class per frame).
  void setVtableMemo(bool Enabled) {
    MemoEnabled = Enabled;
    Memo.clear();
  }

  /// Drops memoised resolutions (e.g. at block end; call it whenever
  /// the memo's local-store lifetime would have expired).
  void clearVtableMemo() { Memo.clear(); }

  /// Figure 3's lookup: outer-domain scan for \p Method, then inner-
  /// domain match of \p Id. Charges scan costs to \p Ctx.
  /// \returns the duplicate body, or nullptr on a miss (after emitting
  /// the diagnostic and trying the on-demand loader).
  const LocalMethod *lookup(offload::OffloadContext &Ctx, MethodId Method,
                            DuplicateId Id);

  /// Number of annotated methods (outer-domain entries): the paper's
  /// per-offload annotation count.
  unsigned annotationCount() const {
    return static_cast<unsigned>(Outer.size());
  }

  /// Total duplicates across all methods.
  unsigned duplicateCount() const;

  /// Local-store bytes the domain's accelerator code occupies.
  uint64_t codeBytes() const { return TotalCodeBytes; }

  /// Models the code upload at block start: reserves codeBytes() of the
  /// block's local store and charges the upload time. Call first thing
  /// inside the offload block when code footprint matters (E4).
  void reserveCode(offload::OffloadContext &Ctx) const;

  //===--------------------------------------------------------------===//
  // Code overlays: the capacity-constrained extension of the paper's
  // on-demand-loading elaboration. With a budget set, duplicates are
  // uploaded when first dispatched and evicted LRU when the budget is
  // exceeded — the overlay scheme Cell titles used when a domain's code
  // did not fit beside its data in 256 KB.
  //===--------------------------------------------------------------===//

  /// Restricts resident accelerator code to \p Bytes; 0 disables
  /// overlays (all code is resident, the reserveCode model). The budget
  /// must fit the largest single duplicate.
  void setCodeBudget(uint64_t Bytes);
  uint64_t codeBudget() const { return CodeBudget; }

  /// Bytes of duplicate code currently resident under the overlay
  /// budget.
  uint64_t residentCodeBytes() const { return ResidentBytes; }

  /// Code uploads (initial + re-loads after eviction) performed so far.
  uint64_t codeUploads() const { return CodeUploads; }
  /// Evictions performed to make room.
  uint64_t codeEvictions() const { return CodeEvictions; }

  const DomainStats &stats() const { return Stats; }
  void resetStats() { Stats = DomainStats(); }

  //===--------------------------------------------------------------===//
  // Full dispatch helpers (vtable resolution + domain lookup + call).
  //===--------------------------------------------------------------===//

  /// obj->slot(Arg) for an object still in outer memory: resolves the
  /// slot with two dependent transfers, looks up the duplicate with
  /// signature thisOuter(), and runs it against the outer object (the
  /// body receives a null local address and must use outer accesses).
  /// \returns false on a domain miss.
  bool callOnOuterObject(offload::OffloadContext &Ctx, sim::GlobalAddr Obj,
                         unsigned Slot, uint64_t Arg);

  /// obj->slot(Arg) for an object previously copied to \p LocalObj:
  /// header read is local; duplicate signature is thisLocal().
  /// \returns false on a domain miss.
  bool callOnLocalObject(offload::OffloadContext &Ctx,
                         sim::LocalAddr LocalObj, unsigned Slot,
                         uint64_t Arg);

  const ClassRegistry &registry() const { return Registry; }

private:
  struct InnerEntry {
    DuplicateId Id;
    LocalMethod Body;
    uint32_t CodeBytes;
    bool Resident = false;  ///< Under overlays: code currently loaded.
    uint64_t LastUse = 0;   ///< Under overlays: LRU stamp.
  };
  struct InnerDomain {
    std::vector<InnerEntry> Duplicates; ///< (identifier, address) pairs.
  };

  int findOuter(MethodId Method) const;

  /// Under overlays: makes \p Entry's code resident (uploading and
  /// evicting as needed) and stamps its use.
  void touchOverlay(offload::OffloadContext &Ctx, InnerEntry &Entry);

  /// Resolves obj's \p Slot through the memo when enabled, else via
  /// the registry's costed inter-memory-space reads.
  MethodId resolveSlotMemoised(offload::OffloadContext &Ctx,
                               uint64_t VtableAddr, unsigned Slot);

  const ClassRegistry &Registry;
  DomainCosts Costs;
  /// "An array of known virtual method addresses" (Figure 3).
  std::vector<MethodId> Outer;
  /// Parallel to Outer: count + (id, address) pairs per method.
  std::vector<InnerDomain> Inner;
  uint64_t TotalCodeBytes = 0;
  std::function<LocalMethod(MethodId, DuplicateId)> OnDemandLoader;
  DiagSink *Diags = nullptr;
  DomainStats Stats;
  uint64_t CodeBudget = 0;
  uint64_t ResidentBytes = 0;
  uint64_t CodeUploads = 0;
  uint64_t CodeEvictions = 0;
  uint64_t OverlayTick = 0;
  bool MemoEnabled = false;
  /// (vtable address, slot) -> MethodId; small and linear-scanned, like
  /// the SPE-side table it models.
  struct MemoEntry {
    uint64_t VtableAddr;
    unsigned Slot;
    MethodId Method;
  };
  std::vector<MemoEntry> Memo;
};

} // namespace omm::domains

#endif // OMM_DOMAINS_DOMAIN_H
