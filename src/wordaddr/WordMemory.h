//===- wordaddr/WordMemory.h - Word-addressed memory -----------*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A simulated word-addressed memory in the style of the TigerSHARC DSP
/// and the PlayStation 2 vector units: "Some addressing systems are
/// word-oriented ... using an assembler instruction to add 1 to an
/// address causes the address to refer to the next word, instead of the
/// next byte. This allows a much simpler memory architecture" (Section
/// 5). The memory loads and stores whole words only; sub-word access is
/// the software's problem, and the attached OpCounts record exactly the
/// shift/extract/insert work each pointer discipline pays — the data for
/// experiment E7.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_WORDADDR_WORDMEMORY_H
#define OMM_WORDADDR_WORDMEMORY_H

#include <cstdint>
#include <vector>

namespace omm::wordaddr {

/// Instruction-level cost profile of memory access sequences.
struct OpCounts {
  uint64_t WordLoads = 0;
  uint64_t WordStores = 0;
  uint64_t ExtractOps = 0; ///< Constant-position byte extracts (cheap).
  uint64_t InsertOps = 0;  ///< Constant-position byte inserts.
  uint64_t ShiftOps = 0;   ///< Variable shifts (expensive path).
  uint64_t MaskOps = 0;    ///< Variable masks.
  uint64_t AddrOps = 0;    ///< Address decompositions (div/mod by size).

  /// A flat one-cycle-per-op estimate, the paper's "several shifts and
  /// some logical operations" argument in one number.
  uint64_t total() const {
    return WordLoads + WordStores + ExtractOps + InsertOps + ShiftOps +
           MaskOps + AddrOps;
  }

  OpCounts operator-(const OpCounts &Other) const {
    OpCounts Diff;
    Diff.WordLoads = WordLoads - Other.WordLoads;
    Diff.WordStores = WordStores - Other.WordStores;
    Diff.ExtractOps = ExtractOps - Other.ExtractOps;
    Diff.InsertOps = InsertOps - Other.InsertOps;
    Diff.ShiftOps = ShiftOps - Other.ShiftOps;
    Diff.MaskOps = MaskOps - Other.MaskOps;
    Diff.AddrOps = AddrOps - Other.AddrOps;
    return Diff;
  }
};

/// Word-addressed storage; addresses index words, never bytes.
class WordMemory {
public:
  /// \param NumWords capacity in words.
  /// \param WordSize bytes per word (4 for the machines the paper names).
  explicit WordMemory(uint32_t NumWords, uint32_t WordSize = 4);

  uint32_t wordSize() const { return WordSize; }

  /// Loads the word at index \p Word (counted).
  uint64_t loadWord(uint32_t Word);

  /// Stores the low wordSize() bytes of \p Value at index \p Word.
  void storeWord(uint32_t Word, uint64_t Value);

  /// Bump-allocates \p Words words; \returns the first word index.
  uint32_t allocWords(uint32_t Words);

  /// Uncounted debug access for tests.
  uint64_t peekWord(uint32_t Word) const;
  void pokeWord(uint32_t Word, uint64_t Value);

  OpCounts &ops() { return Ops; }
  const OpCounts &ops() const { return Ops; }
  void resetOps() { Ops = OpCounts(); }

private:
  uint32_t NumWords;
  uint32_t WordSize;
  std::vector<uint8_t> Bytes; ///< NumWords * WordSize, little-endian words.
  uint32_t AllocTop = 0;
  OpCounts Ops;
};

} // namespace omm::wordaddr

#endif // OMM_WORDADDR_WORDMEMORY_H
