//===- support/ZeroedPages.cpp - Lazily committed zeroed host memory ------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "support/ZeroedPages.h"

#include "support/Diag.h"

#include <cassert>
#include <sys/mman.h>

using namespace omm;

ZeroedPages::ZeroedPages(uint64_t Size) : Size(Size) {
  assert(Size != 0 && "empty mapping");
  void *Ptr = ::mmap(nullptr, Size, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Ptr == MAP_FAILED)
    reportFatalError("cannot map host backing store");
  Base = static_cast<uint8_t *>(Ptr);
}

ZeroedPages::~ZeroedPages() { ::munmap(Base, Size); }
