//===- trace/TimelineReport.cpp - Textual timeline summary ----------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "trace/TimelineReport.h"

#include "support/OStream.h"

#include <algorithm>
#include <string>
#include <vector>

using namespace omm;
using namespace omm::sim;
using namespace omm::trace;

namespace {

/// Width of the ASCII occupancy chart.
constexpr unsigned ChartColumns = 64;

/// Block-list rows printed before the rest are elided.
constexpr unsigned MaxBlockRows = 32;

/// [Begin, End) of the rendered window: first block launch (or first
/// event) to the last event cycle.
struct Window {
  uint64_t Begin = 0;
  uint64_t End = 0;

  uint64_t span() const { return End > Begin ? End - Begin : 1; }
};

Window traceWindow(const TraceRecorder &Rec) {
  Window W;
  W.End = Rec.lastEventCycle();
  uint64_t Begin = UINT64_MAX;
  for (const OffloadSpan &B : Rec.blocks())
    Begin = std::min(Begin, B.BeginCycle);
  for (const DmaTransfer &T : Rec.transfers())
    Begin = std::min(Begin, T.IssueCycle);
  W.Begin = Begin == UINT64_MAX ? 0 : Begin;
  if (W.End < W.Begin)
    W.End = W.Begin;
  return W;
}

/// One row of the ASCII chart: '#' where a block runs, '~' where the
/// core stalls in dma_wait, '.' where it is idle.
std::string occupancyRow(const TraceRecorder &Rec, unsigned AccelId,
                         const Window &W) {
  std::string Row(ChartColumns, '.');
  auto Paint = [&](uint64_t Begin, uint64_t End, char C) {
    if (End <= Begin)
      return;
    uint64_t Span = W.span();
    uint64_t FromTick =
        (std::max(Begin, W.Begin) - W.Begin) * ChartColumns / Span;
    uint64_t ToTick = (std::min(End, W.End) - W.Begin) * ChartColumns / Span;
    for (uint64_t I = FromTick; I <= ToTick && I < ChartColumns; ++I)
      Row[static_cast<size_t>(I)] = C;
  };
  for (const OffloadSpan &B : Rec.blocks())
    if (B.AccelId == AccelId)
      Paint(B.BeginCycle, B.EndCycle, '#');
  for (const WaitSpan &S : Rec.waits())
    if (S.AccelId == AccelId && S.stallCycles() != 0)
      Paint(S.BeginCycle, S.EndCycle, '~');
  return Row;
}

} // namespace

void trace::printTimelineReport(OStream &OS, const TraceRecorder &Rec) {
  Machine &M = Rec.machine();
  Window W = traceWindow(Rec);

  OS << "=== offload timeline (" << W.span() << " cycles, "
     << Rec.blocks().size() << " blocks, " << Rec.transfers().size()
     << " transfers, " << Rec.totalDmaBytes() << " DMA bytes) ===\n\n";

  OS.padded("core", 9);
  OS.padded("blocks", 8);
  OS.padded("busy", 11);
  OS.padded("stall", 11);
  OS.padded("busy%", 7);
  OS.padded("bytes in", 11);
  OS.padded("bytes out", 11);
  OS << "ls peak\n";
  for (unsigned A = 0, E = M.numAccelerators(); A != E; ++A) {
    uint64_t Busy = Rec.busyCycles(A);
    uint64_t Stall = Rec.stallCycles(A);
    uint64_t In = 0, Out = 0;
    unsigned NumBlocks = 0;
    uint32_t Peak = 0;
    for (const OffloadSpan &B : Rec.blocks()) {
      if (B.AccelId != A)
        continue;
      ++NumBlocks;
      In += B.BytesIn;
      Out += B.BytesOut;
      Peak = std::max(Peak, B.LocalStorePeak);
    }
    OS.padded("accel " + std::to_string(A), 9);
    OS.paddedInt(NumBlocks, 6);
    OS << "  ";
    OS.paddedInt(static_cast<int64_t>(Busy), 9);
    OS << "  ";
    OS.paddedInt(static_cast<int64_t>(Stall), 9);
    OS << "  ";
    OS.paddedFixed(100.0 * static_cast<double>(Busy) /
                       static_cast<double>(W.span()),
                   5, 1);
    OS << "  ";
    OS.paddedInt(static_cast<int64_t>(In), 9);
    OS << "  ";
    OS.paddedInt(static_cast<int64_t>(Out), 9);
    OS << "  ";
    OS.paddedInt(Peak, 7);
    OS << '\n';
  }
  OS << "\nhost direct accesses seen: " << Rec.hostAccesses() << "\n";

  if (!Rec.descriptors().empty()) {
    // The persistent-worker runtime was active: summarise mailbox
    // dispatch so amortization is visible next to the block counts.
    uint64_t Doorbells = 0, IdlePolls = 0, Drained = 0;
    uint64_t Steals = 0, Stolen = 0, Parcels = 0;
    for (const DispatchEvent &E : Rec.mailboxEvents()) {
      switch (E.Kind) {
      case DispatchEventKind::DoorbellWrite:
      case DispatchEventKind::BulkDoorbell:
        ++Doorbells;
        break;
      case DispatchEventKind::IdlePoll:
        ++IdlePolls;
        break;
      case DispatchEventKind::MailboxDrained:
        Drained += E.Seq;
        break;
      case DispatchEventKind::StealTransfer:
        ++Steals;
        Stolen += E.Seq;
        break;
      case DispatchEventKind::ParcelSpawn:
        ++Parcels;
        break;
      case DispatchEventKind::DescriptorFetch:
      case DispatchEventKind::StealProbe:
      case DispatchEventKind::ParcelDeliver:
      case DispatchEventKind::DescriptorRun:
        break;
      }
    }
    OS << "descriptors executed: " << Rec.descriptors().size()
       << " (doorbells " << Doorbells << ", idle polls " << IdlePolls
       << ", drained on death " << Drained << ", steals " << Steals
       << " moving " << Stolen << ", parcels " << Parcels << ")\n";

    if (Steals != 0) {
      // Who robbed whom: thief rows x victim columns, descriptor counts.
      // Makes load-imbalance diagnosis (and cross-tenant steal leakage)
      // one glance instead of a trace crawl.
      unsigned Cores = M.numAccelerators();
      std::vector<uint64_t> Matrix(static_cast<size_t>(Cores) * Cores, 0);
      for (const DispatchEvent &E : Rec.mailboxEvents()) {
        if (E.Kind != DispatchEventKind::StealTransfer)
          continue;
        unsigned Thief = E.AccelId;
        unsigned Victim = static_cast<unsigned>(E.Detail);
        if (Thief < Cores && Victim < Cores)
          Matrix[static_cast<size_t>(Thief) * Cores + Victim] += E.Seq;
      }
      OS << "\nsteal matrix (rows thieves, columns victims, descriptors"
            " moved):\n";
      OS.padded("", 11);
      for (unsigned V = 0; V != Cores; ++V) {
        std::string Header = "v";
        Header += std::to_string(V);
        OS.padded(Header, 7);
      }
      OS << '\n';
      for (unsigned T = 0; T != Cores; ++T) {
        std::string Label = "  thief ";
        Label += std::to_string(T);
        OS.padded(Label, 11);
        for (unsigned V = 0; V != Cores; ++V) {
          uint64_t N = Matrix[static_cast<size_t>(T) * Cores + V];
          if (N == 0)
            OS.padded(".", 7);
          else
            OS.padded(std::to_string(N), 7);
        }
        OS << '\n';
      }
    }
  }

  if (!Rec.faults().empty()) {
    // Count per kind, printed in FaultKind order so the line is stable.
    uint64_t Counts[NumFaultKinds] = {};
    for (const FaultEvent &F : Rec.faults())
      ++Counts[static_cast<unsigned>(F.Kind)];
    OS << "faults seen: " << Rec.faults().size() << " (";
    bool First = true;
    for (unsigned K = 0; K != NumFaultKinds; ++K) {
      if (Counts[K] == 0)
        continue;
      if (!First)
        OS << ", ";
      OS << faultKindName(static_cast<FaultKind>(K)) << " x" << Counts[K];
      First = false;
    }
    OS << ")\n";
  }
  OS << "\n";

  OS << "occupancy over [" << W.Begin << ", " << W.End
     << ") cycles ('#' block, '~' dma_wait stall, '.' idle):\n";
  for (unsigned A = 0, E = M.numAccelerators(); A != E; ++A) {
    OS.padded("accel " + std::to_string(A), 9);
    OS << '|' << occupancyRow(Rec, A, W) << "|\n";
  }

  OS << "\nblocks (cycle order):\n";
  OS.padded("  block", 9);
  OS.padded("accel", 7);
  OS.padded("begin", 12);
  OS.padded("end", 12);
  OS.padded("cycles", 10);
  OS.padded("xfers", 7);
  OS.padded("bytes in", 10);
  OS << "bytes out\n";
  unsigned Rows = 0;
  for (const OffloadSpan &B : Rec.blocks()) {
    if (Rows++ == MaxBlockRows) {
      OS << "  ... " << (Rec.blocks().size() - MaxBlockRows)
         << " more blocks elided\n";
      break;
    }
    OS << "  #";
    OS.paddedInt(static_cast<int64_t>(B.BlockId), 5);
    OS << "  ";
    OS.paddedInt(B.AccelId, 5);
    OS << "  ";
    OS.paddedInt(static_cast<int64_t>(B.BeginCycle), 10);
    OS << "  ";
    OS.paddedInt(static_cast<int64_t>(B.EndCycle), 10);
    OS << "  ";
    OS.paddedInt(static_cast<int64_t>(B.cycles()), 8);
    OS << "  ";
    OS.paddedInt(B.Transfers, 5);
    OS << "  ";
    OS.paddedInt(static_cast<int64_t>(B.BytesIn), 8);
    OS << "  ";
    OS.paddedInt(static_cast<int64_t>(B.BytesOut), 8);
    OS << '\n';
  }
  OS.flush();
}
