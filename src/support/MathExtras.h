//===- support/MathExtras.h - Alignment and integer helpers ----*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Integer helpers used throughout the simulator: alignment arithmetic
/// (memory architectures in the paper's domain increase alignment
/// restrictions, so nearly every component rounds sizes and checks
/// addresses) and ceiling division for cost models.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_SUPPORT_MATHEXTRAS_H
#define OMM_SUPPORT_MATHEXTRAS_H

#include <cassert>
#include <cstdint>

namespace omm {

/// \returns true if \p Value is a power of two (zero is not).
constexpr bool isPowerOf2(uint64_t Value) {
  return Value != 0 && (Value & (Value - 1)) == 0;
}

/// \returns \p Value rounded up to the next multiple of \p Align.
/// \p Align must be a power of two.
constexpr uint64_t alignTo(uint64_t Value, uint64_t Align) {
  assert(isPowerOf2(Align) && "alignment must be a power of two");
  return (Value + Align - 1) & ~(Align - 1);
}

/// \returns \p Value rounded down to the previous multiple of \p Align.
/// \p Align must be a power of two.
constexpr uint64_t alignDown(uint64_t Value, uint64_t Align) {
  assert(isPowerOf2(Align) && "alignment must be a power of two");
  return Value & ~(Align - 1);
}

/// \returns true if \p Value is a multiple of \p Align (a power of two).
constexpr bool isAligned(uint64_t Value, uint64_t Align) {
  assert(isPowerOf2(Align) && "alignment must be a power of two");
  return (Value & (Align - 1)) == 0;
}

/// \returns ceil(Numerator / Denominator) for a non-zero denominator.
constexpr uint64_t divideCeil(uint64_t Numerator, uint64_t Denominator) {
  assert(Denominator != 0 && "division by zero");
  return (Numerator + Denominator - 1) / Denominator;
}

/// \returns floor(log2(Value)) for a non-zero value.
constexpr unsigned log2Floor(uint64_t Value) {
  assert(Value != 0 && "log2 of zero");
  unsigned Result = 0;
  while (Value >>= 1)
    ++Result;
  return Result;
}

} // namespace omm

#endif // OMM_SUPPORT_MATHEXTRAS_H
