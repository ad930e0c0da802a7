//===- trace/ChromeTrace.h - Chrome trace-event JSON export ----*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exports a recorded machine timeline in the Chrome trace-event JSON
/// format, loadable in chrome://tracing and https://ui.perfetto.dev.
/// The host and each accelerator appear as separate tracks (threads of
/// one "machine" process); offload blocks are duration events on their
/// accelerator's track, dma_wait stalls are duration events nested
/// under them, each DMA transfer is an async begin/end pair spanning
/// issue to completion, and block launches appear on the host track
/// with flow arrows to the accelerator span. One simulated cycle is
/// rendered as one microsecond.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_TRACE_CHROMETRACE_H
#define OMM_TRACE_CHROMETRACE_H

#include "trace/TraceRecorder.h"

#include <string_view>

namespace omm {
class OStream;
} // namespace omm

namespace omm::trace {

/// Writes the recorded timeline as Chrome trace-event JSON to \p OS.
void writeChromeTrace(OStream &OS, const TraceRecorder &Recorder);

/// As above, into a file created at \p Path.
/// \returns false if the file could not be opened.
bool writeChromeTraceFile(std::string_view Path,
                          const TraceRecorder &Recorder);

} // namespace omm::trace

#endif // OMM_TRACE_CHROMETRACE_H
