//===- sim/MainMemory.cpp - The simulated outer memory space -------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "sim/MainMemory.h"

#include "support/Diag.h"
#include "support/MathExtras.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

using namespace omm;
using namespace omm::sim;

MainMemory::MainMemory(uint64_t SizeBytes)
    : Storage(static_cast<uint8_t *>(std::calloc(SizeBytes, 1))),
      StorageSize(SizeBytes) {
  assert(SizeBytes >= 2 * GuardBytes && "main memory implausibly small");
  if (!Storage)
    reportFatalError("main memory: cannot reserve host backing store");
  FreeList.push_back(FreeBlock{GuardBytes, SizeBytes - GuardBytes});
}

GlobalAddr MainMemory::allocate(uint64_t Size, uint64_t Align) {
  if (Size == 0)
    reportFatalError("main memory: zero-sized allocation");
  Align = std::max<uint64_t>(Align, 16);
  if (!isPowerOf2(Align))
    reportFatalError("main memory: alignment must be a power of two");
  Size = alignTo(Size, 16);

  for (size_t I = 0, E = FreeList.size(); I != E; ++I) {
    FreeBlock &Block = FreeList[I];
    uint64_t Start = alignTo(Block.Offset, Align);
    uint64_t Padding = Start - Block.Offset;
    if (Block.Size < Padding + Size)
      continue;

    // Carve [Start, Start+Size) out of the block, returning any head
    // padding and tail remainder to the free list.
    uint64_t TailOffset = Start + Size;
    uint64_t TailSize = Block.Offset + Block.Size - TailOffset;
    if (Padding != 0 && TailSize != 0) {
      Block.Size = Padding;
      FreeList.insert(FreeList.begin() + I + 1,
                      FreeBlock{TailOffset, TailSize});
    } else if (Padding != 0) {
      Block.Size = Padding;
    } else if (TailSize != 0) {
      Block.Offset = TailOffset;
      Block.Size = TailSize;
    } else {
      FreeList.erase(FreeList.begin() + I);
    }

    LiveBlocks.emplace_back(Start, Size);
    BytesAllocated += Size;
    return GlobalAddr(Start);
  }
  reportFatalError("main memory: out of memory");
}

void MainMemory::deallocate(GlobalAddr Addr) {
  if (Addr.isNull())
    return;
  auto It = std::find_if(LiveBlocks.begin(), LiveBlocks.end(),
                         [&](const auto &B) { return B.first == Addr.Value; });
  if (It == LiveBlocks.end())
    reportFatalError("main memory: deallocating address that is not live");
  uint64_t Offset = It->first;
  uint64_t Size = It->second;
  BytesAllocated -= Size;
  LiveBlocks.erase(It);

  // Insert into the offset-sorted free list and coalesce neighbours.
  auto Pos = std::lower_bound(
      FreeList.begin(), FreeList.end(), Offset,
      [](const FreeBlock &B, uint64_t Off) { return B.Offset < Off; });
  Pos = FreeList.insert(Pos, FreeBlock{Offset, Size});
  // Coalesce with successor first so Pos stays valid.
  if (Pos + 1 != FreeList.end() && Pos->Offset + Pos->Size == (Pos + 1)->Offset) {
    Pos->Size += (Pos + 1)->Size;
    FreeList.erase(Pos + 1);
  }
  if (Pos != FreeList.begin()) {
    auto Prev = Pos - 1;
    if (Prev->Offset + Prev->Size == Pos->Offset) {
      Prev->Size += Pos->Size;
      FreeList.erase(Pos);
    }
  }
}

void MainMemory::read(void *Dst, GlobalAddr Src, uint64_t Size) const {
  if (!contains(Src, Size))
    reportFatalError("main memory: out-of-bounds read");
  std::memcpy(Dst, Storage.get() + Src.Value, Size);
}

void MainMemory::write(GlobalAddr Dst, const void *Src, uint64_t Size) {
  if (!contains(Dst, Size))
    reportFatalError("main memory: out-of-bounds write");
  std::memcpy(Storage.get() + Dst.Value, Src, Size);
}

uint8_t *MainMemory::rawPtr(GlobalAddr Addr, uint64_t Size) {
  if (!contains(Addr, Size))
    reportFatalError("main memory: out-of-bounds raw access");
  return Storage.get() + Addr.Value;
}

const uint8_t *MainMemory::rawPtr(GlobalAddr Addr, uint64_t Size) const {
  if (!contains(Addr, Size))
    reportFatalError("main memory: out-of-bounds raw access");
  return Storage.get() + Addr.Value;
}
