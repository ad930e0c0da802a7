//===- offload/WriteCombiner.h - Streaming write cache ---------*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cache favouring streaming *output* behaviour: consecutive small
/// writes (updated entities, streamed output records) are
/// combined in a local buffer and written back as one large DMA put.
/// Without it, each small outer store costs a full read-modify-write of
/// the enclosing aligned region (see OffloadContext::directOuterWrite) —
/// the pattern that makes naive ports to multiple-memory-space machines
/// slow. Reads are not accelerated; they force a flush when they touch
/// buffered data, then fall back to a direct transfer.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_OFFLOAD_WRITECOMBINER_H
#define OMM_OFFLOAD_WRITECOMBINER_H

#include "offload/SoftwareCache.h"

#include <vector>

namespace omm::offload {

/// Contiguous write-combining buffer.
class WriteCombiner : public SoftwareCacheBase {
public:
  struct Params {
    uint32_t BufferBytes = 4096; ///< Multiple of 16.
    uint64_t LookupCycles = 4;   ///< Charged per access (append check).
  };

  WriteCombiner(OffloadContext &Ctx, Params P);
  ~WriteCombiner() override;

  void read(void *Dst, sim::GlobalAddr Src, uint32_t Size) override;
  void write(sim::GlobalAddr Dst, const void *Src, uint32_t Size) override;
  void flush() override;
  void invalidate() override;
  const char *name() const override { return "write-combiner"; }

private:
  bool overlapsBuffered(sim::GlobalAddr Addr, uint64_t Size) const;

  Params P;
  sim::LocalAddr Buffer;
  /// Native shadow of the buffered bytes, used for the unaligned flush
  /// fallback path (the aligned fast path DMAs straight from Buffer).
  std::vector<uint8_t> Shadow;
  sim::GlobalAddr RegionStart; ///< Main-memory address of buffered bytes.
  uint32_t Length = 0;         ///< Bytes currently buffered.
};

} // namespace omm::offload

#endif // OMM_OFFLOAD_WRITECOMBINER_H
