//===- offload/StreamBuffer.cpp - Sequential prefetch cache --------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "offload/StreamBuffer.h"

#include "support/Diag.h"
#include "support/MathExtras.h"

#include <algorithm>
#include <cassert>

using namespace omm;
using namespace omm::offload;
using namespace omm::sim;

StreamBuffer::StreamBuffer(OffloadContext &Ctx, Params P)
    : SoftwareCacheBase(Ctx), P(P) {
  if (P.WindowBytes < 16 || P.WindowBytes % 16 != 0)
    reportFatalError("stream buffer: window must be a non-zero multiple "
                     "of the DMA alignment");
  Buffer[0] = Ctx.localAlloc(P.WindowBytes);
  Buffer[1] = Ctx.localAlloc(P.WindowBytes);
}

StreamBuffer::~StreamBuffer() {
  // Drain any in-flight prefetch so the block does not end with an
  // un-waited transfer.
  if (PrefetchInFlight)
    Ctx.dmaWait(tagFor(1 - Current));
}

unsigned StreamBuffer::tagFor(unsigned Slot) const {
  // Two private tags so waiting on the current window's fill does not
  // also wait on the overlapping prefetch. See the tag allocation note
  // in OffloadContext.cpp.
  return Ctx.config().NumDmaTags - (Slot == 0 ? 2 : 5);
}

uint32_t StreamBuffer::windowBytesInMemory(uint64_t WindowStart) const {
  uint64_t MemSize = Ctx.machine().mainMemory().size();
  assert(WindowStart < MemSize && "window beyond main memory");
  return static_cast<uint32_t>(
      std::min<uint64_t>(P.WindowBytes, MemSize - WindowStart));
}

void StreamBuffer::issuePrefetch(uint64_t Start) {
  unsigned Slot = 1 - Current;
  if (Start >= Ctx.machine().mainMemory().size())
    return; // Stream runs off the end of memory; nothing to prefetch.
  Ctx.dmaGetLarge(Buffer[Slot], GlobalAddr(Start),
                  windowBytesInMemory(Start), tagFor(Slot));
  WindowStart[Slot] = Start;
  Valid[Slot] = true;
  PrefetchInFlight = true;
  Stats.BytesFilled += windowBytesInMemory(Start);
}

LocalAddr StreamBuffer::ensureResident(uint64_t Addr) {
  chargeLookup(P.LookupCycles);

  // Fast path: inside the current window.
  if (Valid[Current] && Addr >= WindowStart[Current] &&
      Addr < WindowStart[Current] + windowBytesInMemory(WindowStart[Current])) {
    ++Stats.Hits;
    return Buffer[Current] +
           static_cast<uint32_t>(Addr - WindowStart[Current]);
  }

  unsigned Other = 1 - Current;

  // Prefetched path: the access stepped into the next window.
  if (PrefetchInFlight && Valid[Other] && Addr >= WindowStart[Other] &&
      Addr < WindowStart[Other] + windowBytesInMemory(WindowStart[Other])) {
    Ctx.dmaWait(tagFor(Other));
    PrefetchInFlight = false;
    Current = Other;
    ++Stats.Hits;
    // Keep the stream rolling: prefetch the window after this one.
    issuePrefetch(WindowStart[Current] +
                  windowBytesInMemory(WindowStart[Current]));
    return Buffer[Current] +
           static_cast<uint32_t>(Addr - WindowStart[Current]);
  }

  // Random access / stream restart.
  ++Stats.Misses;
  if (PrefetchInFlight) {
    Ctx.dmaWait(tagFor(Other));
    PrefetchInFlight = false;
  }
  uint64_t Start = alignDown(Addr, 16);
  Ctx.dmaGetLarge(Buffer[Current], GlobalAddr(Start),
                  windowBytesInMemory(Start), tagFor(Current));
  Ctx.dmaWait(tagFor(Current));
  WindowStart[Current] = Start;
  Valid[Current] = true;
  Stats.BytesFilled += windowBytesInMemory(Start);
  issuePrefetch(Start + windowBytesInMemory(Start));
  return Buffer[Current] + static_cast<uint32_t>(Addr - Start);
}

void StreamBuffer::read(void *Dst, GlobalAddr Src, uint32_t Size) {
  uint8_t *Out = static_cast<uint8_t *>(Dst);
  while (Size != 0) {
    LocalAddr Piece = ensureResident(Src.Value);
    uint64_t WindowEnd = WindowStart[Current] +
                         windowBytesInMemory(WindowStart[Current]);
    uint32_t Avail = static_cast<uint32_t>(WindowEnd - Src.Value);
    uint32_t Chunk = std::min(Size, Avail);
    Ctx.localReadBytes(Out, Piece, Chunk);
    Out += Chunk;
    Src += Chunk;
    Size -= Chunk;
  }
}

void StreamBuffer::write(GlobalAddr Dst, const void *Src, uint32_t Size) {
  // Not a write cache. If the written range is resident, keep the stream
  // coherent by dropping state; then write directly.
  for (unsigned Slot = 0; Slot != 2; ++Slot) {
    if (!Valid[Slot])
      continue;
    uint64_t End = WindowStart[Slot] + windowBytesInMemory(WindowStart[Slot]);
    if (Dst.Value < End && WindowStart[Slot] < Dst.Value + Size)
      invalidate();
  }
  fallbackWrite(Dst, Src, Size);
}

void StreamBuffer::invalidate() {
  if (PrefetchInFlight) {
    Ctx.dmaWait(tagFor(1 - Current));
    PrefetchInFlight = false;
  }
  Valid[0] = Valid[1] = false;
}
