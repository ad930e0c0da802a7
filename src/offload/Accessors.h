//===- offload/Accessors.h - Portable data access abstractions -*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// "Programmers can use portable accessor classes (efficient data access
/// abstractions) and knowledge of their application's access patterns to
/// achieve high performance. ... We have interposed an Array data
/// accessor between the original array, and the code to access that
/// array. ... it will perform a single, efficient bulk transfer of the
/// array of pointers into fast local store. Subsequently, it acts like an
/// array" (Section 4.2).
///
/// ArrayAccessor<T> is that Array class: one bulk DMA in on construction,
/// indexed access against fast local store, and one bulk DMA out on
/// commit/destruction (unless read-only). On a shared-memory
/// configuration of the simulated machine the same code compiles and
/// runs; the transfers just become cheap — "this can be
/// factored out in the implementation of Array, permitting the use of
/// this technique on portable code."
///
//===----------------------------------------------------------------------===//

#ifndef OMM_OFFLOAD_ACCESSORS_H
#define OMM_OFFLOAD_ACCESSORS_H

#include "offload/OffloadContext.h"
#include "offload/Ptr.h"
#include "support/Diag.h"
#include "support/MathExtras.h"

#include <cassert>

namespace omm::offload {

/// How an accessor intends to use the underlying outer data; determines
/// which bulk transfers happen.
enum class AccessMode {
  ReadOnly,  ///< Bulk get on construction; no write-back.
  ReadWrite, ///< Bulk get on construction and bulk put on commit.
};

/// Bulk-transfer array accessor (the paper's Array<T*, N>).
///
/// The accessor owns a local-store copy of Count elements starting at an
/// outer base address. Element access is charged at local-store cost;
/// the whole point is that the per-element inter-memory transfer of the
/// naive loop disappears.
template <typename T> class ArrayAccessor {
public:
  static_assert(std::is_trivially_copyable_v<T>,
                "accessors move trivially copyable data only");

  /// Default bulk-transfer tag; see the allocation note in
  /// OffloadContext.cpp.
  static unsigned defaultTag(const OffloadContext &Ctx) {
    return Ctx.config().NumDmaTags - 3;
  }

  ArrayAccessor(OffloadContext &Ctx, OuterPtr<T> Base, uint32_t Count,
                AccessMode Mode = AccessMode::ReadWrite)
      : Ctx(Ctx), Base(Base), Count(Count), Mode(Mode),
        Tag(defaultTag(Ctx)) {
    assert(Count != 0 && "empty accessor");
    Local = Ctx.localAllocArray<T>(Count);
    Ctx.dmaGetLarge(Local, Base.addr(), paddedBytes(), Tag);
    Ctx.dmaWait(Tag);
  }

  ~ArrayAccessor() { commit(); }

  ArrayAccessor(const ArrayAccessor &) = delete;
  ArrayAccessor &operator=(const ArrayAccessor &) = delete;

  uint32_t size() const { return Count; }

  /// Reads element \p Index from the local copy.
  T get(uint32_t Index) const {
    assert(Index < Count && "accessor index out of range");
    return Ctx.localRead<T>(Local + Index * sizeof(T));
  }

  /// Writes element \p Index in the local copy (visible in main memory
  /// after commit).
  void set(uint32_t Index, const T &Value) {
    assert(Index < Count && "accessor index out of range");
    assert(Mode != AccessMode::ReadOnly &&
           "writing through a read-only accessor");
    Ctx.localWrite(Local + Index * sizeof(T), Value);
  }

  /// Applies \p Fn to element \p Index in place.
  template <typename Fn> void update(uint32_t Index, Fn &&Fn_) {
    T Value = get(Index);
    Fn_(Value);
    set(Index, Value);
  }

  /// The local-store address of the copy, for bulk kernels and nested
  /// DMA (e.g. handing a batch to a double-buffered stage).
  LocalPtr<T> local() const { return LocalPtr<T>(Local); }

  /// Writes the local copy back to main memory (no-op for read-only
  /// accessors; idempotent).
  void commit() {
    if (Mode == AccessMode::ReadOnly || Committed)
      return;
    Ctx.dmaPutLarge(Base.addr(), Local, paddedBytes(), Tag);
    Ctx.dmaWait(Tag);
    Committed = true;
  }

private:
  /// The copy's size rounded up to whole quadwords, the DMA granule;
  /// the padding carries the neighbouring bytes in and back unchanged.
  uint64_t paddedBytes() const {
    return alignTo(uint64_t(Count) * sizeof(T), 16);
  }

  OffloadContext &Ctx;
  OuterPtr<T> Base;
  uint32_t Count;
  AccessMode Mode;
  unsigned Tag;
  sim::LocalAddr Local;
  bool Committed = false;
};

} // namespace omm::offload

#endif // OMM_OFFLOAD_ACCESSORS_H
