//===- sim/MainMemory.h - The simulated outer memory space -----*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single large "outer" memory space of the simulated machine, plus a
/// first-fit free-list allocator. Game state (entities, components,
/// collision pairs) lives here, exactly as it lives in main memory on the
/// consoles the paper targets; accelerators reach it only through DMA.
///
/// All allocations are 16-byte aligned and their sizes rounded up to 16
/// bytes. This mirrors games practice on the Cell (where the MFC imposes
/// 16-byte alignment on bulk DMA) and is what makes the offload layer's
/// padded transfers safe: DMA of alignTo(sizeof(T), 16) bytes never
/// touches a neighbouring allocation.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_SIM_MAINMEMORY_H
#define OMM_SIM_MAINMEMORY_H

#include "sim/Address.h"

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

namespace omm::sim {

/// The outer memory space: byte-addressed storage plus an allocator.
class MainMemory {
public:
  /// Bytes reserved at the bottom of the address space. Address zero is
  /// the null sentinel, and the rest of the guard keeps block-aligned
  /// over-fetches (software cache lines fill at alignDown(addr, line))
  /// inside bounds: no allocation lands below GuardBytes, and caches
  /// restrict their line size to at most GuardBytes.
  static constexpr uint64_t GuardBytes = 1024;

  explicit MainMemory(uint64_t SizeBytes);

  uint64_t size() const { return StorageSize; }

  /// Allocates \p Size bytes aligned to max(\p Align, 16).
  ///
  /// Aborts (simulated out-of-memory fault) if no block fits; games size
  /// their arenas up front and treat exhaustion as fatal.
  GlobalAddr allocate(uint64_t Size, uint64_t Align = 16);

  /// Returns a block obtained from allocate to the free list.
  void deallocate(GlobalAddr Addr);

  /// \returns bytes currently handed out (before rounding is included).
  uint64_t bytesAllocated() const { return BytesAllocated; }

  /// Raw bounds-checked access. These are the *functional* accessors used
  /// by the DMA engine and the host; timing is charged by the Machine.
  void read(void *Dst, GlobalAddr Src, uint64_t Size) const;
  void write(GlobalAddr Dst, const void *Src, uint64_t Size);

  /// Typed helpers for trivially copyable values.
  template <typename T> T readValue(GlobalAddr Addr) const {
    static_assert(std::is_trivially_copyable_v<T>,
                  "simulated memory holds trivially copyable data only");
    T Value;
    read(&Value, Addr, sizeof(T));
    return Value;
  }

  template <typename T> void writeValue(GlobalAddr Addr, const T &Value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "simulated memory holds trivially copyable data only");
    write(Addr, &Value, sizeof(T));
  }

  /// Direct pointer into backing storage, for the DMA engine's copies.
  /// Bounds-checked; the pointer is valid for \p Size bytes.
  uint8_t *rawPtr(GlobalAddr Addr, uint64_t Size);

  /// \returns true if [Addr, Addr+Size) lies within the memory.
  bool contains(GlobalAddr Addr, uint64_t Size) const {
    return !Addr.isNull() && Addr.Value + Size <= StorageSize &&
           Addr.Value + Size >= Addr.Value;
  }

private:
  struct FreeBlock {
    uint64_t Offset;
    uint64_t Size;
  };

  struct FreeDeleter {
    void operator()(uint8_t *Ptr) const { std::free(Ptr); }
  };

  // calloc'd: a large calloc gets fresh, already-zero pages from the OS,
  // so simulated memory a run never touches is never committed on the
  // host. A value-initialised container would write every byte.
  std::unique_ptr<uint8_t[], FreeDeleter> Storage;
  uint64_t StorageSize;

  // Sorted by offset; adjacent blocks are coalesced on deallocate.
  std::vector<FreeBlock> FreeList;
  // Size of each live allocation, keyed by offset, for deallocate.
  std::vector<std::pair<uint64_t, uint64_t>> LiveBlocks;
  uint64_t BytesAllocated = 0;
};

} // namespace omm::sim

#endif // OMM_SIM_MAINMEMORY_H
