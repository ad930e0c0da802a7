//===- support/ZeroedPages.h - Lazily committed zeroed host memory -*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The host backing store of every simulated memory: one private
/// anonymous mapping per store. The kernel hands such pages out zeroed
/// and commits each one only when it is first touched, so simulated
/// memory a run never touches costs no host RSS. That holds whatever
/// the C library's allocator does: after a large block is freed, glibc
/// raises its mmap threshold and serves the next calloc of the same size
/// from the heap, where it must clear every byte.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_SUPPORT_ZEROEDPAGES_H
#define OMM_SUPPORT_ZEROEDPAGES_H

#include <cstdint>

namespace omm {

/// Owns one zero-filled, lazily committed anonymous mapping.
class ZeroedPages {
public:
  /// Maps \p Size (> 0) bytes; reports a fatal error if the host refuses.
  explicit ZeroedPages(uint64_t Size);
  ~ZeroedPages();

  ZeroedPages(const ZeroedPages &) = delete;
  ZeroedPages &operator=(const ZeroedPages &) = delete;

  uint8_t *data() const { return Base; }
  uint64_t size() const { return Size; }

private:
  uint8_t *Base;
  uint64_t Size;
};

} // namespace omm

#endif // OMM_SUPPORT_ZEROEDPAGES_H
