//===- offload/OffloadContext.h - Accelerator-side runtime API -*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The view of the machine available *inside* an offload block: local
/// allocation, Figure-1-style explicit DMA, and the automatic
/// data-movement path used when offloaded code dereferences an outer
/// pointer ("any accesses to host memory are automatically compiled into
/// data transfers that go through a software cache", Section 3). A
/// software cache may be bound to the context, in which case outer
/// accesses route through it; otherwise each outer access performs a
/// small synchronous DMA — the expensive default Section 4.2's
/// optimisations exist to avoid.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_OFFLOAD_OFFLOADCONTEXT_H
#define OMM_OFFLOAD_OFFLOADCONTEXT_H

#include "sim/Machine.h"
#include "support/MathExtras.h"

#include <cstdint>
#include <type_traits>

namespace omm::offload {

class SoftwareCacheBase;

/// Accelerator-side runtime handle; one per live offload block.
class OffloadContext {
public:
  OffloadContext(sim::Machine &M, unsigned AccelId);
  ~OffloadContext();

  OffloadContext(const OffloadContext &) = delete;
  OffloadContext &operator=(const OffloadContext &) = delete;

  sim::Machine &machine() { return M; }
  sim::Accelerator &accel() { return Accel; }
  unsigned accelId() const { return Accel.id(); }
  sim::CycleClock &clock() { return Accel.Clock; }
  const sim::MachineConfig &config() const { return M.config(); }

  //===--------------------------------------------------------------===//
  // Local store allocation (block-scoped; the offload runtime resets the
  // allocation stack when the block ends).
  //===--------------------------------------------------------------===//

  sim::LocalAddr localAlloc(uint32_t Size, uint32_t Align = 16) {
    return Accel.Store.alloc(Size, Align);
  }

  /// Allocates local storage for \p Count values of type \p T, padded so
  /// bulk DMA of the whole array is legal.
  template <typename T> sim::LocalAddr localAllocArray(uint32_t Count) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "local store holds trivially copyable data only");
    return localAlloc(static_cast<uint32_t>(
        alignTo(uint64_t(Count) * sizeof(T), 16)));
  }

  //===--------------------------------------------------------------===//
  // Timed local-store access (1 cycle per access by default).
  //===--------------------------------------------------------------===//

  template <typename T> T localRead(sim::LocalAddr Addr) {
    noteLocalAccess(Addr, sizeof(T), /*IsWrite=*/false);
    return Accel.Store.readValue<T>(Addr);
  }

  template <typename T> void localWrite(sim::LocalAddr Addr, const T &Value) {
    noteLocalAccess(Addr, sizeof(T), /*IsWrite=*/true);
    Accel.Store.writeValue(Addr, Value);
  }

  void localReadBytes(void *Dst, sim::LocalAddr Src, uint32_t Size) {
    noteLocalAccess(Src, Size, /*IsWrite=*/false);
    Accel.Store.read(Dst, Src, Size);
  }

  void localWriteBytes(sim::LocalAddr Dst, const void *Src, uint32_t Size) {
    noteLocalAccess(Dst, Size, /*IsWrite=*/true);
    Accel.Store.write(Dst, Src, Size);
  }

  //===--------------------------------------------------------------===//
  // Explicit DMA (the Figure 1 programming model). Plain forwards: the
  // DMA engine charges each MFC command, including the retry of a
  // transiently rejected one.
  //===--------------------------------------------------------------===//

  void dmaGet(sim::LocalAddr Dst, sim::GlobalAddr Src, uint32_t Size,
              unsigned Tag) {
    Accel.Dma.get(Dst, Src, Size, Tag);
  }
  void dmaPut(sim::GlobalAddr Dst, sim::LocalAddr Src, uint32_t Size,
              unsigned Tag) {
    Accel.Dma.put(Dst, Src, Size, Tag);
  }
  void dmaGetLarge(sim::LocalAddr Dst, sim::GlobalAddr Src, uint64_t Size,
                   unsigned Tag) {
    Accel.Dma.getLarge(Dst, Src, Size, Tag);
  }
  void dmaPutLarge(sim::GlobalAddr Dst, sim::LocalAddr Src, uint64_t Size,
                   unsigned Tag) {
    Accel.Dma.putLarge(Dst, Src, Size, Tag);
  }
  void dmaGetList(const sim::DmaEngine::ListElement *Elements,
                  unsigned Count, unsigned Tag) {
    Accel.Dma.getList(Elements, Count, Tag);
  }
  void dmaPutList(const sim::DmaEngine::ListElement *Elements,
                  unsigned Count, unsigned Tag) {
    Accel.Dma.putList(Elements, Count, Tag);
  }
  void dmaWait(unsigned Tag) { Accel.Dma.waitTag(Tag); }
  void dmaWaitMask(uint32_t Mask) { Accel.Dma.waitTagMask(Mask); }

  //===--------------------------------------------------------------===//
  // Automatic outer access (what a compiled __outer dereference does).
  //===--------------------------------------------------------------===//

  /// Binds \p Cache so subsequent outer accesses go through it; pass
  /// nullptr to return to direct synchronous transfers. The programmer
  /// picks the cache "based on profiling" (Section 4.2).
  void bindCache(SoftwareCacheBase *Cache) { BoundCache = Cache; }

  /// Reads a T from main memory, via the bound cache if any, else via a
  /// synchronous DMA of the enclosing aligned region.
  template <typename T> T outerRead(sim::GlobalAddr Addr) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "outer access moves trivially copyable data only");
    T Value;
    outerReadBytes(&Value, Addr, sizeof(T));
    return Value;
  }

  /// Writes a T to main memory, via the bound cache if any.
  template <typename T> void outerWrite(sim::GlobalAddr Addr, const T &Value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "outer access moves trivially copyable data only");
    outerWriteBytes(Addr, &Value, sizeof(T));
  }

  void outerReadBytes(void *Dst, sim::GlobalAddr Src, uint32_t Size);
  void outerWriteBytes(sim::GlobalAddr Dst, const void *Src, uint32_t Size);

  //===--------------------------------------------------------------===//
  // Computation cost model.
  //===--------------------------------------------------------------===//

  /// Charges \p Cycles of accelerator computation.
  void compute(uint64_t Cycles) {
    Accel.Clock.advance(Cycles);
    Accel.Counters.ComputeCycles += Cycles;
  }

  /// RAII nested allocation scope inside an offload block: local-store
  /// allocations made while a LocalScope is alive are popped when it is
  /// destroyed — the analogue of a lexical scope inside the paper's
  /// offload block. Needed by loops that construct accessors or staging
  /// buffers per iteration (the stack otherwise only unwinds at block
  /// end). Scopes must nest properly, like the lexical scopes they
  /// model.
  class LocalScope {
  public:
    explicit LocalScope(OffloadContext &Ctx)
        : Store(Ctx.accel().Store), Mark(Store.mark()) {}
    ~LocalScope() { Store.reset(Mark); }
    LocalScope(const LocalScope &) = delete;
    LocalScope &operator=(const LocalScope &) = delete;

  private:
    sim::LocalStore &Store;
    sim::LocalStore::Mark Mark;
  };

private:
  friend class SoftwareCacheBase;

  /// Bills one local-store access: the SPE accesses its local store in
  /// 16-byte quadwords, so one access cost per quadword touched, then
  /// the counter and the observers. Inline: every local access pays it.
  void noteLocalAccess(sim::LocalAddr Addr, uint32_t Size, bool IsWrite) {
    uint64_t Quadwords = divideCeil(Size > 1 ? Size : 1, 16);
    Accel.Clock.advance(Quadwords * sim::MachineConfig::LocalAccessCycles);
    if (IsWrite)
      ++Accel.Counters.LocalStores;
    else
      ++Accel.Counters.LocalLoads;
    if (sim::DmaObserver *Obs = M.observer())
      Obs->onLocalAccess(accelId(), Addr, Size, IsWrite, Accel.Clock.now());
  }

  /// Synchronous, uncached transfer of the 16-byte-aligned region
  /// enclosing [Addr, Addr+Size) through the bounce buffer.
  void directOuterRead(void *Dst, sim::GlobalAddr Src, uint32_t Size);
  void directOuterWrite(sim::GlobalAddr Dst, const void *Src, uint32_t Size);

  sim::Machine &M;
  sim::Accelerator &Accel;
  SoftwareCacheBase *BoundCache = nullptr;
  sim::LocalAddr BounceBuffer;      ///< Staging area for direct accesses.
  uint32_t BounceSize;
  unsigned BounceTag;               ///< Reserved tag for direct accesses.
};

/// Host-side stand-in for OffloadContext, used when a chunk of offloaded
/// work must run on the host because no accelerator can take it (all
/// dead, or the machine has none). It exposes the subset of the context
/// API the machine-generic bodies use: computation is charged to the
/// host clock and typed outer accesses are plain cache-modelled host
/// accesses (there is no local store to stage through).
class HostContext {
public:
  explicit HostContext(sim::Machine &M) : M(M) {}

  sim::Machine &machine() { return M; }
  const sim::MachineConfig &config() const { return M.config(); }
  sim::CycleClock &clock() { return M.hostClock(); }

  void compute(uint64_t Cycles) { M.hostCompute(Cycles); }

  template <typename T> T outerRead(sim::GlobalAddr Addr) {
    return M.hostRead<T>(Addr);
  }
  template <typename T> void outerWrite(sim::GlobalAddr Addr,
                                        const T &Value) {
    M.hostWrite(Addr, Value);
  }

private:
  sim::Machine &M;
};

} // namespace omm::offload

#endif // OMM_OFFLOAD_OFFLOADCONTEXT_H
