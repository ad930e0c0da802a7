//===- offload/OffloadContext.cpp - Accelerator-side runtime API ---------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "offload/OffloadContext.h"

#include "offload/SoftwareCache.h"

#include <algorithm>
#include <cstring>

using namespace omm;
using namespace omm::offload;
using namespace omm::sim;

// Tag allocation convention: the runtime reserves the top tags for its own
// machinery so user code and the examples can use low tags freely.
//   NumDmaTags-1 : OffloadContext bounce buffer (direct outer accesses)
//   NumDmaTags-2 : software cache demand fills/writebacks
//   NumDmaTags-3 : accessor bulk transfers / double-buffer slot 1
//   NumDmaTags-4 : double-buffer slot 0
//   NumDmaTags-5 : stream-buffer second window
//   NumDmaTags-6 : software cache asynchronous prefetches
static constexpr uint32_t BounceBufferBytes = 4096;

OffloadContext::OffloadContext(sim::Machine &M, unsigned AccelId)
    : M(M), Accel(M.accel(AccelId)), BounceSize(BounceBufferBytes),
      BounceTag(M.config().NumDmaTags - 1) {
  BounceBuffer = Accel.Store.alloc(BounceSize);
}

OffloadContext::~OffloadContext() = default;

void OffloadContext::outerReadBytes(void *Dst, GlobalAddr Src,
                                    uint32_t Size) {
  if (BoundCache) {
    BoundCache->read(Dst, Src, Size);
    return;
  }
  directOuterRead(Dst, Src, Size);
}

void OffloadContext::outerWriteBytes(GlobalAddr Dst, const void *Src,
                                     uint32_t Size) {
  if (BoundCache) {
    BoundCache->write(Dst, Src, Size);
    return;
  }
  directOuterWrite(Dst, Src, Size);
}

void OffloadContext::directOuterRead(void *Dst, GlobalAddr Src,
                                     uint32_t Size) {
  uint8_t *Out = static_cast<uint8_t *>(Dst);
  const MachineConfig &Cfg = M.config();
  // Process in bounce-buffer-sized chunks; each chunk transfers the
  // enclosing aligned region and copies the interesting bytes out.
  while (Size != 0) {
    uint64_t Start = alignDown(Src.Value, Cfg.DmaAlignment);
    uint32_t Chunk = std::min<uint32_t>(
        Size, BounceSize - static_cast<uint32_t>(Src.Value - Start));
    uint64_t End = alignTo(Src.Value + Chunk, Cfg.DmaAlignment);
    uint32_t RegionSize = static_cast<uint32_t>(End - Start);

    dmaGetLarge(BounceBuffer, GlobalAddr(Start), RegionSize, BounceTag);
    dmaWait(BounceTag);
    localReadBytes(Out, BounceBuffer + static_cast<uint32_t>(
                                           Src.Value - Start),
                   Chunk);

    Out += Chunk;
    Src += Chunk;
    Size -= Chunk;
  }
}

void OffloadContext::directOuterWrite(GlobalAddr Dst, const void *Src,
                                      uint32_t Size) {
  const uint8_t *In = static_cast<const uint8_t *>(Src);
  const MachineConfig &Cfg = M.config();
  while (Size != 0) {
    uint32_t Chunk = std::min<uint32_t>(Size, BounceSize / 2);

    if (Cfg.isLegalDmaSize(Chunk) && isAligned(Dst.Value, std::min<uint64_t>(
                                                              Chunk, Cfg.DmaAlignment))) {
      // Directly expressible as one legal transfer.
      localWriteBytes(BounceBuffer, In, Chunk);
      dmaPut(Dst, BounceBuffer, Chunk, BounceTag);
      dmaWait(BounceTag);
    } else {
      // Read-modify-write of the enclosing aligned region. This is what
      // makes unstructured outer stores so costly on these machines.
      uint64_t Start = alignDown(Dst.Value, Cfg.DmaAlignment);
      uint64_t End = alignTo(Dst.Value + Chunk, Cfg.DmaAlignment);
      uint32_t RegionSize = static_cast<uint32_t>(End - Start);
      assert(RegionSize <= BounceSize && "bounce buffer chunking bug");

      dmaGetLarge(BounceBuffer, GlobalAddr(Start), RegionSize, BounceTag);
      dmaWait(BounceTag);
      localWriteBytes(BounceBuffer +
                          static_cast<uint32_t>(Dst.Value - Start),
                      In, Chunk);
      dmaPutLarge(GlobalAddr(Start), BounceBuffer, RegionSize, BounceTag);
      dmaWait(BounceTag);
    }

    In += Chunk;
    Dst += Chunk;
    Size -= Chunk;
  }
}
