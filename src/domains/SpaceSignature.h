//===- domains/SpaceSignature.h - Memory-space signatures ------*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// "Within the inner domain, we obtain details of function duplicates
/// present — distinct combinations of memory spaces in arguments require
/// distinct duplicates to be made with the appropriate data transfer
/// code. ... The identifier is compiler generated meta-data to identify
/// the signature of the routine with respect to combinations of memory
/// spaces" (Section 4.1).
///
/// DuplicateId is that compiler-generated identifier: one bit per pointer
/// argument, set when the argument points into local store.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_DOMAINS_SPACESIGNATURE_H
#define OMM_DOMAINS_SPACESIGNATURE_H

#include <compare>
#include <cstdint>
#include <string>

namespace omm::domains {

/// Identifies one duplicate of a function by the memory spaces of its
/// pointer arguments (bit i set = argument i points into local store).
struct DuplicateId {
  uint32_t Bits = 0;
  uint8_t NumArgs = 0;

  constexpr DuplicateId() = default;
  constexpr DuplicateId(uint32_t Bits, uint8_t NumArgs)
      : Bits(Bits), NumArgs(NumArgs) {}

  /// The common single-argument signatures: a method whose `this` lives
  /// in local store / outer memory respectively.
  static constexpr DuplicateId thisLocal() { return DuplicateId(1, 1); }
  static constexpr DuplicateId thisOuter() { return DuplicateId(0, 1); }

  constexpr auto operator<=>(const DuplicateId &) const = default;

  /// Renders e.g. "(local, outer)" for diagnostics.
  std::string str() const {
    std::string Out = "(";
    for (unsigned I = 0; I != NumArgs; ++I) {
      if (I != 0)
        Out += ", ";
      Out += (Bits & (1u << I)) ? "local" : "outer";
    }
    Out += ")";
    return Out;
  }
};

} // namespace omm::domains

#endif // OMM_DOMAINS_SPACESIGNATURE_H
