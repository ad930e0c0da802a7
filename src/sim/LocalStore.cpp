//===- sim/LocalStore.cpp - Accelerator scratch-pad memory ---------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "sim/LocalStore.h"

#include "support/Diag.h"
#include "support/MathExtras.h"

#include <algorithm>
#include <cassert>

using namespace omm;
using namespace omm::sim;

LocalStore::LocalStore(uint32_t SizeBytes) : Storage(SizeBytes, 0) {
  assert(SizeBytes >= 64 && "local store implausibly small");
}

LocalAddr LocalStore::alloc(uint32_t Size, uint32_t Align) {
  if (Size == 0)
    reportFatalError("local store: zero-sized allocation");
  Align = std::max<uint32_t>(Align, 16);
  if (!isPowerOf2(Align))
    reportFatalError("local store: alignment must be a power of two");
  uint64_t Start = alignTo(Top, Align);
  uint64_t End = Start + alignTo(Size, 16);
  if (End > Storage.size())
    reportFatalError("local store: out of scratch-pad memory (capacity "
                     "pressure; shrink the working set or batch by type)");
  Top = static_cast<uint32_t>(End);
  Peak = std::max(Peak, Top);
  return LocalAddr(static_cast<uint32_t>(Start));
}

void LocalStore::reset(Mark M) {
  assert(M <= Top && "resetting local store to a future mark");
  Top = M;
}

void LocalStore::read(void *Dst, LocalAddr Src, uint32_t Size) const {
  if (!contains(Src, Size))
    reportFatalError("local store: out-of-bounds read");
  std::memcpy(Dst, Storage.data() + Src.Value, Size);
}

void LocalStore::write(LocalAddr Dst, const void *Src, uint32_t Size) {
  if (!contains(Dst, Size))
    reportFatalError("local store: out-of-bounds write");
  std::memcpy(Storage.data() + Dst.Value, Src, Size);
}

uint8_t *LocalStore::rawPtr(LocalAddr Addr, uint32_t Size) {
  if (!contains(Addr, Size))
    reportFatalError("local store: out-of-bounds raw access");
  return Storage.data() + Addr.Value;
}
