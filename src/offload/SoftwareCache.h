//===- offload/SoftwareCache.h - Software cache interface ------*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// "Cache systems have been implemented in software for diverse memory
/// architectures to mitigate transfer overhead. Software cache lookup
/// introduces some overhead, but this is typically outweighed by the
/// performance increase from avoiding repeated accesses to data via
/// inter-memory transfers. ... we have developed several software caches,
/// favouring different types of application behaviour. The programmer must
/// decide, based on profiling, which cache is most suitable for a given
/// offload" (Sections 3 and 4.2).
///
/// SoftwareCacheBase is the interface an OffloadContext routes outer
/// accesses through once a cache is bound. Four implementations are
/// provided, each favouring a different access behaviour:
///   - DirectMappedCache    : cheapest lookup; general re-use.
///   - SetAssociativeCache  : LRU; temporal locality with conflicts.
///   - StreamBuffer         : sequential scans with prefetch.
///   - WriteCombiner        : streaming output.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_OFFLOAD_SOFTWARECACHE_H
#define OMM_OFFLOAD_SOFTWARECACHE_H

#include "offload/OffloadContext.h"
#include "sim/Address.h"

#include <cstdint>

namespace omm::offload {

/// Profile counters every cache maintains; the paper's "decide based on
/// profiling" loop reads these.
struct CacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  uint64_t Writebacks = 0;
  uint64_t BytesFilled = 0;      ///< DMA bytes read on misses.
  uint64_t BytesWrittenBack = 0; ///< DMA bytes written on eviction/flush.
  uint64_t LookupCycles = 0;     ///< Accelerator cycles spent in lookups.

  /// \returns hit fraction in [0,1]; 0 when no accesses happened.
  double hitRate() const {
    uint64_t Total = Hits + Misses;
    return Total == 0 ? 0.0 : static_cast<double>(Hits) / Total;
  }
};

/// Interface of a software cache bound to one offload block.
///
/// Caches allocate their storage from the block's local store and move
/// data with the block's DMA engine, so they are constructed inside the
/// block (or inside the LocalScope of the one descriptor they serve) and
/// must not outlive it. Destructors flush dirty state. Code that builds
/// one short-lived cache after another, like GameWorld's per-chunk AI
/// target cache, keeps only the host-side line table across them
/// (SetAssociativeCache::LineTable): each cache still claims its lines
/// from the local store at construction and bills its flush at
/// destruction, exactly as a cache with a table of its own does.
class SoftwareCacheBase {
public:
  explicit SoftwareCacheBase(OffloadContext &Ctx) : Ctx(Ctx) {}
  virtual ~SoftwareCacheBase();

  SoftwareCacheBase(const SoftwareCacheBase &) = delete;
  SoftwareCacheBase &operator=(const SoftwareCacheBase &) = delete;

  /// Copies \p Size bytes from main-memory address \p Src into \p Dst,
  /// filling cache state as needed.
  virtual void read(void *Dst, sim::GlobalAddr Src, uint32_t Size) = 0;

  /// Copies \p Size bytes from \p Src to main-memory address \p Dst
  /// through the cache.
  virtual void write(sim::GlobalAddr Dst, const void *Src, uint32_t Size) = 0;

  /// Writes every dirty byte back to main memory (keeps clean contents).
  virtual void flush() = 0;

  /// Drops all cached contents *without* writing back; use after the host
  /// has mutated memory under the cache.
  virtual void invalidate() = 0;

  /// Human-readable cache name for profiles and tables.
  virtual const char *name() const = 0;

  const CacheStats &stats() const { return Stats; }
  void resetStats() { Stats = CacheStats(); }

protected:
  /// Charges \p Cycles of lookup overhead to the accelerator.
  void chargeLookup(uint64_t Cycles) {
    Ctx.compute(Cycles);
    Stats.LookupCycles += Cycles;
  }

  /// The DMA tag this cache moves data on.
  unsigned cacheTag() const { return Ctx.config().NumDmaTags - 2; }

  /// Uncached fallback access (used by read-only / write-only caches for
  /// the direction they do not accelerate).
  void fallbackRead(void *Dst, sim::GlobalAddr Src, uint32_t Size) {
    Ctx.directOuterRead(Dst, Src, Size);
  }
  void fallbackWrite(sim::GlobalAddr Dst, const void *Src, uint32_t Size) {
    Ctx.directOuterWrite(Dst, Src, Size);
  }

  OffloadContext &Ctx;
  CacheStats Stats;
};

} // namespace omm::offload

#endif // OMM_OFFLOAD_SOFTWARECACHE_H
