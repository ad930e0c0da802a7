//===- offload/SetAssociativeCache.cpp - LRU software cache --------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "offload/SetAssociativeCache.h"

#include "support/Diag.h"
#include "support/MathExtras.h"

#include <algorithm>
#include <cassert>

using namespace omm;
using namespace omm::offload;
using namespace omm::sim;

SoftwareCacheBase::~SoftwareCacheBase() = default;

SetAssociativeCache::SetAssociativeCache(OffloadContext &Ctx, Params P)
    : SetAssociativeCache(Ctx, P, OwnTable) {}

SetAssociativeCache::SetAssociativeCache(OffloadContext &Ctx, Params P,
                                         LineTable &Table)
    : SoftwareCacheBase(Ctx), P(P), Table(Table) {
  if (!isPowerOf2(P.LineSize) || P.LineSize < 16 ||
      P.LineSize > MainMemory::GuardBytes)
    reportFatalError("software cache: line size must be a power of two "
                     "between the DMA alignment and the main-memory "
                     "guard size");
  if (!isPowerOf2(P.NumSets) || P.Ways == 0)
    reportFatalError("software cache: sets must be a power of two and "
                     "ways non-zero");
  assert(!Table.InUse && Table.ValidLines.empty() &&
         "line table still held by another cache");
  Base = Ctx.localAlloc(P.LineSize * P.NumSets * P.Ways, P.LineSize);
  Table.InUse = true;
  Table.Lines.resize(static_cast<size_t>(P.NumSets) * P.Ways);
}

SetAssociativeCache::~SetAssociativeCache() {
  drainPrefetches();
  flush();
  clearValidLines();
  Table.InUse = false;
}

void SetAssociativeCache::drainPrefetches() {
  if (PendingFills == 0)
    return;
  Ctx.dmaWait(prefetchTag());
  for (uint32_t Index : Table.ValidLines)
    Table.Lines[Index].FillPending = false;
  PendingFills = 0;
}

void SetAssociativeCache::clearValidLines() {
  for (uint32_t Index : Table.ValidLines)
    Table.Lines[Index] = Line();
  Table.ValidLines.clear();
  DirtyLines = 0;
}

LocalAddr SetAssociativeCache::lineStorage(uint32_t Set, uint32_t Way) const {
  return Base + (Set * P.Ways + Way) * P.LineSize;
}

uint32_t SetAssociativeCache::lineBytesInMemory(uint64_t LineAddr) const {
  // Lines near the very end of main memory are partial; clamp fills and
  // writebacks so they stay in bounds.
  uint64_t MemSize = Ctx.machine().mainMemory().size();
  assert(LineAddr < MemSize && "line beyond main memory");
  return static_cast<uint32_t>(std::min<uint64_t>(P.LineSize,
                                                  MemSize - LineAddr));
}

void SetAssociativeCache::writebackLine(Line &L, uint32_t Set, uint32_t Way) {
  assert(L.Valid && L.Dirty && "writing back a clean line");
  uint32_t Bytes = lineBytesInMemory(L.LineAddr);
  Ctx.dmaPutLarge(GlobalAddr(L.LineAddr), lineStorage(Set, Way), Bytes,
                  cacheTag());
  L.Dirty = false;
  --DirtyLines;
  ++Stats.Writebacks;
  Stats.BytesWrittenBack += Bytes;
}

uint32_t SetAssociativeCache::freeWay(uint32_t Set) {
  size_t First = static_cast<size_t>(Set) * P.Ways;
  Line *SetLines = &Table.Lines[First];
  uint32_t Victim = 0;
  uint64_t OldestUse = UINT64_MAX;
  for (uint32_t Way = 0; Way != P.Ways; ++Way) {
    Line &L = SetLines[Way];
    if (!L.Valid) {
      Table.ValidLines.push_back(static_cast<uint32_t>(First + Way));
      return Way;
    }
    if (L.LastUse < OldestUse) {
      OldestUse = L.LastUse;
      Victim = Way;
    }
  }

  Line &L = SetLines[Victim];
  ++Stats.Evictions;
  if (L.FillPending)
    drainPrefetches(); // Never reuse storage under an in-flight fill.
  if (L.Dirty) {
    writebackLine(L, Set, Victim);
    // The fill reuses the victim's storage; wait for the writeback so
    // the get cannot race the put on that range.
    Ctx.dmaWait(cacheTag());
  }
  return Victim;
}

LocalAddr SetAssociativeCache::lineFor(uint64_t LineAddr, bool ForWrite) {
  chargeLookup(P.LookupCycles);
  uint32_t Set =
      static_cast<uint32_t>((LineAddr / P.LineSize) & (P.NumSets - 1));
  Line *SetLines = &Table.Lines[static_cast<size_t>(Set) * P.Ways];

  // Hit path. A line whose async prefetch is still in flight counts as
  // a hit after paying the residual wait (the asynchronous-cache model
  // of Balart et al.).
  for (uint32_t Way = 0; Way != P.Ways; ++Way) {
    Line &L = SetLines[Way];
    if (L.Valid && L.LineAddr == LineAddr) {
      if (L.FillPending)
        drainPrefetches();
      ++Stats.Hits;
      L.LastUse = ++UseTick;
      if (ForWrite && !L.Dirty) {
        L.Dirty = true;
        ++DirtyLines;
      }
      return lineStorage(Set, Way);
    }
  }

  ++Stats.Misses;
  uint32_t Way = freeWay(Set);
  uint32_t Bytes = lineBytesInMemory(LineAddr);
  Ctx.dmaGetLarge(lineStorage(Set, Way), GlobalAddr(LineAddr), Bytes,
                  cacheTag());
  Ctx.dmaWait(cacheTag());
  Stats.BytesFilled += Bytes;

  Line &L = SetLines[Way];
  L.Valid = true;
  L.Dirty = ForWrite;
  DirtyLines += ForWrite;
  L.LineAddr = LineAddr;
  L.LastUse = ++UseTick;
  return lineStorage(Set, Way);
}

template <typename AccessFn>
void SetAssociativeCache::forEachLinePiece(GlobalAddr Addr, uint32_t Size,
                                           bool ForWrite, AccessFn &&Access) {
  while (Size != 0) {
    uint64_t LineAddr = alignDown(Addr.Value, P.LineSize);
    uint32_t Offset = static_cast<uint32_t>(Addr.Value - LineAddr);
    uint32_t Piece = std::min<uint32_t>(Size, P.LineSize - Offset);
    LocalAddr LineLocal = lineFor(LineAddr, ForWrite);
    Access(LineLocal + Offset, Piece);
    Addr += Piece;
    Size -= Piece;
  }
}

void SetAssociativeCache::read(void *Dst, GlobalAddr Src, uint32_t Size) {
  uint8_t *Out = static_cast<uint8_t *>(Dst);
  forEachLinePiece(Src, Size, /*ForWrite=*/false,
                   [&](LocalAddr PieceAddr, uint32_t Piece) {
                     Ctx.localReadBytes(Out, PieceAddr, Piece);
                     Out += Piece;
                   });
}

void SetAssociativeCache::write(GlobalAddr Dst, const void *Src,
                                uint32_t Size) {
  const uint8_t *In = static_cast<const uint8_t *>(Src);
  forEachLinePiece(Dst, Size, /*ForWrite=*/true,
                   [&](LocalAddr PieceAddr, uint32_t Piece) {
                     Ctx.localWriteBytes(PieceAddr, In, Piece);
                     In += Piece;
                   });
}

void SetAssociativeCache::flush() {
  if (DirtyLines == 0)
    return;
  for (uint32_t Set = 0; Set != P.NumSets; ++Set) {
    for (uint32_t Way = 0; Way != P.Ways; ++Way) {
      Line &L = Table.Lines[static_cast<size_t>(Set) * P.Ways + Way];
      if (L.Valid && L.Dirty)
        writebackLine(L, Set, Way);
    }
  }
  // Batch the completion wait: all flush writebacks share the cache tag.
  Ctx.dmaWait(cacheTag());
}

void SetAssociativeCache::invalidate() {
  drainPrefetches();
  clearValidLines();
}

void SetAssociativeCache::prefetch(GlobalAddr Addr) {
  uint64_t LineAddr = alignDown(Addr.Value, P.LineSize);
  chargeLookup(P.LookupCycles);
  uint32_t Set =
      static_cast<uint32_t>((LineAddr / P.LineSize) & (P.NumSets - 1));
  Line *SetLines = &Table.Lines[static_cast<size_t>(Set) * P.Ways];

  // Resident or already being fetched: nothing to do.
  for (uint32_t Way = 0; Way != P.Ways; ++Way)
    if (SetLines[Way].Valid && SetLines[Way].LineAddr == LineAddr)
      return;

  uint32_t Way = freeWay(Set);
  uint32_t Bytes = lineBytesInMemory(LineAddr);
  Ctx.dmaGetLarge(lineStorage(Set, Way), GlobalAddr(LineAddr), Bytes,
                  prefetchTag()); // No wait: that is the point.
  Stats.BytesFilled += Bytes;
  ++PrefetchesIssued;
  ++PendingFills;

  Line &L = SetLines[Way];
  L.Valid = true;
  L.Dirty = false;
  L.FillPending = true;
  L.LineAddr = LineAddr;
  L.LastUse = ++UseTick;
}
