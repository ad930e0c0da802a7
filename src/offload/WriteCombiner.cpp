//===- offload/WriteCombiner.cpp - Streaming write cache -----------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "offload/WriteCombiner.h"

#include "support/Diag.h"
#include "support/MathExtras.h"

#include <cstring>

using namespace omm;
using namespace omm::offload;
using namespace omm::sim;

WriteCombiner::WriteCombiner(OffloadContext &Ctx, Params P)
    : SoftwareCacheBase(Ctx), P(P) {
  if (P.BufferBytes < 16 || P.BufferBytes % 16 != 0)
    reportFatalError("write combiner: buffer must be a non-zero multiple "
                     "of the DMA alignment");
  Buffer = Ctx.localAlloc(P.BufferBytes);
  Shadow.resize(P.BufferBytes);
}

WriteCombiner::~WriteCombiner() { flush(); }

bool WriteCombiner::overlapsBuffered(GlobalAddr Addr, uint64_t Size) const {
  if (Length == 0)
    return false;
  return Addr.Value < RegionStart.Value + Length &&
         RegionStart.Value < Addr.Value + Size;
}

void WriteCombiner::write(GlobalAddr Dst, const void *Src, uint32_t Size) {
  chargeLookup(P.LookupCycles);

  // Oversized writes bypass the buffer entirely.
  if (Size > P.BufferBytes) {
    flush();
    ++Stats.Misses;
    fallbackWrite(Dst, Src, Size);
    return;
  }

  bool Appends = Length != 0 && Dst.Value == RegionStart.Value + Length &&
                 Length + Size <= P.BufferBytes;
  if (!Appends) {
    flush();
    RegionStart = Dst;
    ++Stats.Misses; // A new combining region begins.
  } else {
    ++Stats.Hits;
  }

  Ctx.localWriteBytes(Buffer + Length, Src, Size);
  std::memcpy(Shadow.data() + Length, Src, Size);
  Length += Size;
}

void WriteCombiner::flush() {
  if (Length == 0)
    return;
  uint32_t FlushLen = Length;
  GlobalAddr FlushStart = RegionStart;
  Length = 0; // Reset first: the fallback path may recurse via read paths.

  bool Aligned = isAligned(FlushStart.Value, 16) && FlushLen % 16 == 0;
  if (Aligned) {
    Ctx.dmaPutLarge(FlushStart, Buffer, FlushLen, cacheTag());
    Ctx.dmaWait(cacheTag());
  } else {
    // Unaligned tail: let the context's read-modify-write path handle
    // the ragged edges from the native shadow copy.
    fallbackWrite(FlushStart, Shadow.data(), FlushLen);
  }
  ++Stats.Writebacks;
  Stats.BytesWrittenBack += FlushLen;
}

void WriteCombiner::read(void *Dst, GlobalAddr Src, uint32_t Size) {
  chargeLookup(P.LookupCycles);
  if (overlapsBuffered(Src, Size))
    flush();
  ++Stats.Misses;
  fallbackRead(Dst, Src, Size);
}

void WriteCombiner::invalidate() {
  // Dropping buffered writes is the documented semantics of invalidate
  // (used after the host rewrites memory under the cache).
  Length = 0;
}
