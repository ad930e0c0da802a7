//===- offload/SetAssociativeCache.h - LRU software cache ------*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A set-associative, write-back software cache with LRU replacement: the
/// general-purpose cache for offloads with temporal locality and enough
/// conflicting addresses that a direct-mapped cache would thrash. Its
/// lookup is the most expensive of the provided caches (way search on
/// every access), which is exactly the trade-off experiment E6 exposes.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_OFFLOAD_SETASSOCIATIVECACHE_H
#define OMM_OFFLOAD_SETASSOCIATIVECACHE_H

#include "offload/SoftwareCache.h"

#include <vector>

namespace omm::offload {

/// Write-back LRU set-associative cache over main memory.
class SetAssociativeCache : public SoftwareCacheBase {
  struct Line {
    uint64_t LineAddr = 0; ///< Byte address of the line in main memory.
    uint64_t LastUse = 0;
    bool Valid = false;
    bool Dirty = false;
    bool FillPending = false; ///< An async prefetch is still in flight.
  };

public:
  struct Params {
    uint32_t LineSize = 128; ///< Bytes per line; power of two, >= 16.
    uint32_t NumSets = 64;   ///< Power of two.
    uint32_t Ways = 4;
    uint64_t LookupCycles = 16; ///< Charged per access (way search).
  };

  /// The per-line state a cache keeps on the host, apart from the cache
  /// so that code building one short-lived cache after another (one per
  /// AI chunk) can hand each the same table. A cache takes the table
  /// empty and leaves it empty, and both ends touch only the lines it
  /// made valid, so neither allocates nor scans the whole table. One
  /// cache at a time may use a table.
  class LineTable {
    friend class SetAssociativeCache;
    std::vector<Line> Lines;          ///< NumSets * Ways, set-major.
    std::vector<uint32_t> ValidLines; ///< Indices of the valid lines.
    bool InUse = false;
  };

  /// A cache with a table of its own.
  SetAssociativeCache(OffloadContext &Ctx, Params P);
  /// A cache on \p Table, which must be empty and outlive it.
  SetAssociativeCache(OffloadContext &Ctx, Params P, LineTable &Table);
  /// Waits out in-flight prefetches, writes back dirty lines, and
  /// empties the table.
  ~SetAssociativeCache() override;

  void read(void *Dst, sim::GlobalAddr Src, uint32_t Size) override;
  void write(sim::GlobalAddr Dst, const void *Src, uint32_t Size) override;
  void flush() override;
  void invalidate() override;
  const char *name() const override { return "set-associative-lru"; }

  /// Asynchronous prefetch, after Balart et al.'s "novel asynchronous
  /// software cache implementation for the Cell-BE" that the paper
  /// cites: starts filling the line containing \p Addr without blocking.
  /// A later access to the line pays only the residual wait. No-op when
  /// the line is already resident or already being prefetched.
  void prefetch(sim::GlobalAddr Addr);

  const Params &params() const { return P; }

  /// Prefetches issued so far (profile counter).
  uint64_t prefetchesIssued() const { return PrefetchesIssued; }

private:
  /// Walks [Src, Src+Size) line by line, calling
  /// Access(LineLocalAddr, OffsetInLine, BytesThisLine) for each piece.
  template <typename AccessFn>
  void forEachLinePiece(sim::GlobalAddr Addr, uint32_t Size, bool ForWrite,
                        AccessFn &&Access);

  /// \returns the local-store address of the line containing \p LineAddr,
  /// filling and/or evicting as needed.
  sim::LocalAddr lineFor(uint64_t LineAddr, bool ForWrite);

  /// \returns the way of \p Set to fill next: its first invalid way
  /// (which joins the valid lines), else its least recently used way,
  /// evicted and written back if dirty.
  uint32_t freeWay(uint32_t Set);

  uint32_t lineBytesInMemory(uint64_t LineAddr) const;
  sim::LocalAddr lineStorage(uint32_t Set, uint32_t Way) const;
  void writebackLine(Line &L, uint32_t Set, uint32_t Way);

  /// Tag used by async prefetch fills, distinct from the demand tag so
  /// waiting for a demand fill never serialises behind prefetches.
  unsigned prefetchTag() const { return Ctx.config().NumDmaTags - 6; }

  /// Waits out every in-flight prefetch and marks the lines resident.
  void drainPrefetches();

  /// Makes every valid line invalid and clean.
  void clearValidLines();

  Params P;
  sim::LocalAddr Base;
  LineTable OwnTable;
  LineTable &Table;
  uint64_t UseTick = 0;
  uint64_t PrefetchesIssued = 0;
  unsigned PendingFills = 0; ///< Prefetches not yet waited for.
  uint32_t DirtyLines = 0;
};

/// Direct-mapped variant: one way, and a cheaper lookup (no way search,
/// just an index mask and one tag compare). "Several software caches,
/// favouring different types of application behaviour" (Section 4.2).
class DirectMappedCache : public SetAssociativeCache {
public:
  struct Params {
    uint32_t LineSize = 128;
    uint32_t NumLines = 256;
    uint64_t LookupCycles = 8;
  };

  explicit DirectMappedCache(OffloadContext &Ctx)
      : DirectMappedCache(Ctx, Params()) {}
  DirectMappedCache(OffloadContext &Ctx, Params P)
      : SetAssociativeCache(Ctx, associative(P)) {}
  DirectMappedCache(OffloadContext &Ctx, Params P, LineTable &Table)
      : SetAssociativeCache(Ctx, associative(P), Table) {}

  const char *name() const override { return "direct-mapped"; }

private:
  static SetAssociativeCache::Params associative(Params P) {
    return {P.LineSize, P.NumLines, 1, P.LookupCycles};
  }
};

} // namespace omm::offload

#endif // OMM_OFFLOAD_SETASSOCIATIVECACHE_H
