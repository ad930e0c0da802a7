//===- sim/PerfCounters.h - Machine performance counters -------*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hardware-style event counters maintained by the simulated machine.
/// The paper's engineering loop is profile-driven; every experiment reads
/// these counters to explain *why* one code structure beats another
/// (transfers issued, bytes moved, cycles stalled on the MFC).
///
//===----------------------------------------------------------------------===//

#ifndef OMM_SIM_PERFCOUNTERS_H
#define OMM_SIM_PERFCOUNTERS_H

#include <cstdint>

namespace omm {
class OStream;
} // namespace omm

namespace omm::sim {

/// Event counters for one accelerator's memory traffic plus host traffic.
/// Every field, and merge/subtract/print, comes from the counter table in
/// sim/PerfCounters.def.
struct PerfCounters {
#define OMM_PERF_COUNTER(Name, Label) uint64_t Name = 0;
#include "sim/PerfCounters.def"

  /// \returns total DMA transfers issued.
  uint64_t dmaTransfers() const { return DmaGetsIssued + DmaPutsIssued; }

  /// \returns total bytes moved by DMA in either direction.
  uint64_t dmaBytes() const { return DmaBytesRead + DmaBytesWritten; }

  /// Accumulates \p Other into this set of counters.
  void merge(const PerfCounters &Other) {
#define OMM_PERF_COUNTER(Name, Label) Name += Other.Name;
#include "sim/PerfCounters.def"
  }

  /// Subtracts \p Other from this set of counters. With a snapshot taken
  /// before a region of work, `after.subtract(before)` attributes the
  /// region's events (Machine::countersSince wraps exactly that).
  /// Counters are monotonic, so the subtraction never wraps when \p Other
  /// really is an earlier snapshot of the same counters.
  void subtract(const PerfCounters &Other) {
#define OMM_PERF_COUNTER(Name, Label) Name -= Other.Name;
#include "sim/PerfCounters.def"
  }

  /// Field-wise equality: the multi-tenant determinism contract compares
  /// whole counter sets, not just checksums.
  bool operator==(const PerfCounters &Other) const = default;

  /// Prints the counters as a small table, one row per counter.
  void print(OStream &OS) const;
};

} // namespace omm::sim

#endif // OMM_SIM_PERFCOUNTERS_H
