//===- sim/PerfCounters.cpp - Machine performance counters ---------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "sim/PerfCounters.h"

#include "support/OStream.h"

using namespace omm;
using namespace omm::sim;

void PerfCounters::print(OStream &OS) const {
  auto Row = [&](const char *Label, uint64_t Value) {
    OS.paddedInt(static_cast<int64_t>(Value), 14);
    OS << "  " << Label << '\n';
  };
#define OMM_PERF_COUNTER(Name, Label) Row(Label, Name);
#include "sim/PerfCounters.def"
}
