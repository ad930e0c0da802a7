//===- offload/StreamBuffer.h - Sequential prefetch cache ------*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A read-optimised streaming cache: two windows over main memory, with
/// the next window prefetched while the current one is consumed. This is
/// the cache "favouring" sequential access behaviour — animation tracks,
/// particle arrays, and the uniform-type entity batches Section 4.1
/// recommends. Random access works but degrades to a window refill per
/// touch; experiment E6 shows exactly that trade-off against the
/// associative caches.
///
/// Writes are not accelerated: they flush nothing (the stream is
/// read-only state) and fall back to direct transfers.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_OFFLOAD_STREAMBUFFER_H
#define OMM_OFFLOAD_STREAMBUFFER_H

#include "offload/SoftwareCache.h"

namespace omm::offload {

/// Double-windowed sequential read cache.
class StreamBuffer : public SoftwareCacheBase {
public:
  struct Params {
    uint32_t WindowBytes = 4096; ///< Bytes per window; multiple of 16.
    uint64_t LookupCycles = 6;   ///< Charged per access (range compare).
  };

  StreamBuffer(OffloadContext &Ctx, Params P);
  ~StreamBuffer() override;

  void read(void *Dst, sim::GlobalAddr Src, uint32_t Size) override;
  void write(sim::GlobalAddr Dst, const void *Src, uint32_t Size) override;
  void flush() override {} // Read-only: nothing dirty.
  void invalidate() override;
  const char *name() const override { return "stream-buffer"; }

private:
  /// Ensures the window holding \p Addr is resident and current;
  /// \returns the local address corresponding to \p Addr.
  sim::LocalAddr ensureResident(uint64_t Addr);

  void issuePrefetch(uint64_t WindowStart);
  uint32_t windowBytesInMemory(uint64_t WindowStart) const;
  unsigned tagFor(unsigned Slot) const;

  Params P;
  sim::LocalAddr Buffer[2];
  uint64_t WindowStart[2] = {0, 0};
  bool Valid[2] = {false, false};
  bool PrefetchInFlight = false;
  unsigned Current = 0;
};

} // namespace omm::offload

#endif // OMM_OFFLOAD_STREAMBUFFER_H
