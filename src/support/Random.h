//===- support/Random.h - Deterministic pseudo-random numbers --*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, seedable SplitMix64 generator. Workload generators and property
/// tests need reproducible randomness that does not depend on the standard
/// library's unspecified distributions; every experiment in EXPERIMENTS.md
/// fixes its seed so reported numbers regenerate exactly.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_SUPPORT_RANDOM_H
#define OMM_SUPPORT_RANDOM_H

#include <cassert>
#include <cstdint>

namespace omm {

/// The SplitMix64 step as a pure hash: the value SplitMix64(X).next()
/// returns. Benches and workload generators use it as a per-item hash.
constexpr uint64_t splitMix64(uint64_t X) {
  uint64_t Z = X + 0x9E3779B97F4A7C15ull;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

/// SplitMix64: fast, high-quality 64-bit generator with trivial seeding.
class SplitMix64 {
public:
  explicit SplitMix64(uint64_t Seed = 0x9E3779B97F4A7C15ull) : State(Seed) {}

  /// \returns the next 64-bit value.
  uint64_t next() {
    uint64_t Z = splitMix64(State);
    State += 0x9E3779B97F4A7C15ull;
    return Z;
  }

  /// \returns a value uniform in [0, Bound). \p Bound must be non-zero.
  uint64_t nextBelow(uint64_t Bound) {
    assert(Bound != 0 && "empty range");
    // Modulo bias is negligible for the bounds used by the workloads
    // (all far below 2^63) and keeps the generator branch-free.
    return next() % Bound;
  }

  /// \returns a value uniform in [Lo, Hi] inclusive.
  int64_t nextInRange(int64_t Lo, int64_t Hi) {
    assert(Lo <= Hi && "inverted range");
    return Lo + static_cast<int64_t>(
                    nextBelow(static_cast<uint64_t>(Hi - Lo) + 1));
  }

  /// \returns a float uniform in [0, 1).
  float nextFloat() {
    return static_cast<float>(next() >> 40) * (1.0f / 16777216.0f);
  }

  /// \returns a float uniform in [Lo, Hi).
  float nextFloatInRange(float Lo, float Hi) {
    return Lo + (Hi - Lo) * nextFloat();
  }

  /// \returns true with probability \p P (clamped to [0,1]).
  bool nextBool(float P = 0.5f) { return nextFloat() < P; }

private:
  uint64_t State;
};

} // namespace omm

#endif // OMM_SUPPORT_RANDOM_H
