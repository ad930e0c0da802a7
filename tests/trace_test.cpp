//===- tests/trace_test.cpp - Trace recorder and exporter tests ------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// The trace layer's contract, in order of importance:
//
//   1. Attaching a TraceRecorder changes nothing: cycle counts are
//      bit-identical with and without it.
//   2. What the recorder reports agrees with the machine's own
//      PerfCounters (same transfers, bytes, stalls).
//   3. The Chrome trace export is well-formed JSON whose events match
//      the recorder's data.
//   4. The recorder coexists with the DMA race checker through the
//      ObserverMux — both see every event.
//   5. The resident runtime's descriptors, mailbox transactions, steals,
//      parcels and faults reach both exporters, under their table names.
//   6. The JSON helpers escape what JSON requires and never emit a
//      non-finite number.
//
//===----------------------------------------------------------------------===//

#include "trace/ChromeTrace.h"
#include "trace/TimelineReport.h"
#include "trace/TraceRecorder.h"

#include "dmacheck/DmaRaceChecker.h"
#include "offload/JobQueue.h"
#include "offload/Offload.h"
#include "offload/Parcel.h"
#include "sim/FaultInjector.h"
#include "support/OStream.h"
#include "trace/Json.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

using namespace omm;
using namespace omm::offload;
using namespace omm::sim;

namespace {

//===----------------------------------------------------------------------===//
// A minimal JSON reader — just enough to validate the Chrome trace
// output (objects, arrays, strings, numbers, bools, null).
//===----------------------------------------------------------------------===//

struct JsonValue {
  enum Kind { Null, Bool, Number, String, Array, Object };
  Kind K = Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<JsonValue> Items;
  std::vector<std::pair<std::string, JsonValue>> Fields;

  const JsonValue *field(const std::string &Name) const {
    for (const auto &F : Fields)
      if (F.first == Name)
        return &F.second;
    return nullptr;
  }
  double numField(const std::string &Name) const {
    const JsonValue *V = field(Name);
    return V && V->K == Number ? V->Num : -1;
  }
  std::string strField(const std::string &Name) const {
    const JsonValue *V = field(Name);
    return V && V->K == String ? V->Str : std::string();
  }
};

class JsonParser {
public:
  explicit JsonParser(std::string Text) : Text(std::move(Text)) {}

  /// Parses the whole input; Ok is false on any syntax error.
  JsonValue parse() {
    JsonValue Root = parseValue();
    skipWs();
    if (Pos != Text.size())
      Ok = false;
    return Root;
  }

  bool ok() const { return Ok; }

private:
  void skipWs() {
    while (Pos < Text.size() && (Text[Pos] == ' ' || Text[Pos] == '\t' ||
                                 Text[Pos] == '\n' || Text[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    skipWs();
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool literal(const char *Lit) {
    size_t Len = std::strlen(Lit);
    if (Text.compare(Pos, Len, Lit) == 0) {
      Pos += Len;
      return true;
    }
    Ok = false;
    return false;
  }

  JsonValue parseValue() {
    skipWs();
    if (Pos >= Text.size()) {
      Ok = false;
      return {};
    }
    char C = Text[Pos];
    if (C == '{')
      return parseObject();
    if (C == '[')
      return parseArray();
    if (C == '"')
      return parseString();
    if (C == 't' || C == 'f')
      return parseBool();
    if (C == 'n') {
      literal("null");
      return {};
    }
    return parseNumber();
  }

  JsonValue parseObject() {
    JsonValue V;
    V.K = JsonValue::Object;
    consume('{');
    if (consume('}'))
      return V;
    do {
      JsonValue Key = parseString();
      if (!consume(':')) {
        Ok = false;
        return V;
      }
      V.Fields.emplace_back(Key.Str, parseValue());
    } while (consume(','));
    if (!consume('}'))
      Ok = false;
    return V;
  }

  JsonValue parseArray() {
    JsonValue V;
    V.K = JsonValue::Array;
    consume('[');
    if (consume(']'))
      return V;
    do {
      V.Items.push_back(parseValue());
    } while (consume(','));
    if (!consume(']'))
      Ok = false;
    return V;
  }

  JsonValue parseString() {
    JsonValue V;
    V.K = JsonValue::String;
    if (!consume('"')) {
      Ok = false;
      return V;
    }
    while (Pos < Text.size() && Text[Pos] != '"') {
      char C = Text[Pos++];
      if (C == '\\' && Pos < Text.size()) {
        char E = Text[Pos++];
        switch (E) {
        case 'n': V.Str += '\n'; break;
        case 't': V.Str += '\t'; break;
        case 'r': V.Str += '\r'; break;
        case 'u': Pos += 4; V.Str += '?'; break;
        default: V.Str += E; break;
        }
      } else {
        V.Str += C;
      }
    }
    if (!consume('"'))
      Ok = false;
    return V;
  }

  JsonValue parseBool() {
    JsonValue V;
    V.K = JsonValue::Bool;
    V.B = Text[Pos] == 't';
    literal(V.B ? "true" : "false");
    return V;
  }

  JsonValue parseNumber() {
    JsonValue V;
    V.K = JsonValue::Number;
    size_t End = Pos;
    while (End < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[End])) ||
            Text[End] == '-' || Text[End] == '+' || Text[End] == '.' ||
            Text[End] == 'e' || Text[End] == 'E'))
      ++End;
    if (End == Pos) {
      Ok = false;
      return V;
    }
    V.Num = std::strtod(Text.c_str() + Pos, nullptr);
    Pos = End;
    return V;
  }

  std::string Text;
  size_t Pos = 0;
  bool Ok = true;
};

//===----------------------------------------------------------------------===//
// The workload: two offload blocks with explicit DMA, host work in
// parallel. Deterministic, race-free, and touches every observer hook.
//===----------------------------------------------------------------------===//

uint64_t runWorkload(Machine &M) {
  GlobalAddr In = M.allocGlobal(4096);
  GlobalAddr Out = M.allocGlobal(4096);
  for (uint32_t I = 0; I != 1024; ++I)
    M.hostWrite<uint32_t>(In + I * 4, I * 2654435761u);

  OffloadHandle H0 = offloadBlock(M, 0, [&](OffloadContext &Ctx) {
    LocalAddr L = Ctx.localAlloc(2048);
    Ctx.dmaGet(L, In, 2048, 0);
    Ctx.dmaWait(0);
    for (uint32_t I = 0; I != 512; ++I) {
      auto V = Ctx.localRead<uint32_t>(L + I * 4);
      Ctx.localWrite<uint32_t>(L + I * 4, V ^ 0x9E3779B9u);
    }
    Ctx.compute(20000);
    Ctx.dmaPut(Out, L, 2048, 1);
    Ctx.dmaWait(1);
  });
  OffloadHandle H1 = offloadBlock(M, 1, [&](OffloadContext &Ctx) {
    LocalAddr L = Ctx.localAlloc(2048);
    Ctx.dmaGet(L, In + 2048, 2048, 2);
    Ctx.dmaWait(2);
    Ctx.compute(5000);
    Ctx.dmaPut(Out + 2048, L, 2048, 3);
    Ctx.dmaWait(3);
  });
  M.hostCompute(3000);
  offloadJoin(M, H0);
  offloadJoin(M, H1);

  uint64_t Sum = 0;
  for (uint32_t I = 0; I != 1024; ++I)
    Sum += M.hostRead<uint32_t>(Out + I * 4);
  return Sum;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

} // namespace

//===----------------------------------------------------------------------===//
// 1. Observers are passive: tracing never changes the simulation.
//===----------------------------------------------------------------------===//

TEST(Trace, BitIdenticalWithAndWithoutRecorder) {
  Machine Plain, Traced;
  uint64_t PlainSum = runWorkload(Plain);
  uint64_t TracedSum;
  {
    trace::TraceRecorder Recorder(Traced);
    TracedSum = runWorkload(Traced);
  }
  EXPECT_EQ(PlainSum, TracedSum);
  EXPECT_EQ(Plain.hostClock().now(), Traced.hostClock().now());
  for (unsigned I = 0; I != Plain.config().NumAccelerators; ++I)
    EXPECT_EQ(Plain.accel(I).Clock.now(), Traced.accel(I).Clock.now());

  PerfCounters P = Plain.totalCounters(), T = Traced.totalCounters();
  EXPECT_EQ(P.ComputeCycles, T.ComputeCycles);
  EXPECT_EQ(P.DmaStallCycles, T.DmaStallCycles);
  EXPECT_EQ(P.JoinStallCycles, T.JoinStallCycles);
  EXPECT_EQ(P.dmaBytes(), T.dmaBytes());
  EXPECT_EQ(P.dmaTransfers(), T.dmaTransfers());
  EXPECT_EQ(P.LocalLoads, T.LocalLoads);
  EXPECT_EQ(P.LocalStores, T.LocalStores);
  EXPECT_EQ(P.HostLoads, T.HostLoads);
  EXPECT_EQ(P.HostStores, T.HostStores);
}

//===----------------------------------------------------------------------===//
// 2. The recorder agrees with PerfCounters.
//===----------------------------------------------------------------------===//

TEST(Trace, RecorderMatchesPerfCounters) {
  Machine M;
  trace::TraceRecorder Recorder(M);
  runWorkload(M);

  PerfCounters Total = M.totalCounters();
  EXPECT_EQ(Recorder.transfers().size(), Total.dmaTransfers());
  EXPECT_EQ(Recorder.totalDmaBytes(), Total.dmaBytes());
  EXPECT_EQ(Recorder.hostAccesses(), Total.HostLoads + Total.HostStores);

  uint64_t RecordedStalls = 0;
  for (unsigned I = 0; I != M.config().NumAccelerators; ++I)
    RecordedStalls += Recorder.stallCycles(I);
  uint64_t CounterStalls = 0;
  for (unsigned I = 0; I != M.config().NumAccelerators; ++I)
    CounterStalls += M.accel(I).Counters.DmaStallCycles;
  EXPECT_EQ(RecordedStalls, CounterStalls);

  // Two blocks, distinct monotonic ids, both spans closed.
  ASSERT_EQ(Recorder.blocks().size(), 2u);
  const trace::OffloadSpan &B0 = Recorder.blocks()[0];
  const trace::OffloadSpan &B1 = Recorder.blocks()[1];
  EXPECT_LT(B0.BlockId, B1.BlockId);
  EXPECT_EQ(B0.AccelId, 0u);
  EXPECT_EQ(B1.AccelId, 1u);
  EXPECT_GT(B0.cycles(), 0u);
  EXPECT_GT(B1.cycles(), 0u);
  EXPECT_EQ(B0.Transfers, 2u);
  EXPECT_EQ(B0.BytesIn, 2048u);
  EXPECT_EQ(B0.BytesOut, 2048u);
  EXPECT_GT(B0.LocalAccesses, 0u);
  EXPECT_GE(B0.LocalStorePeak, 2048u);

  // The block span covers the compute it charged.
  EXPECT_GE(B0.cycles(), 20000u);
  EXPECT_GE(B1.cycles(), 5000u);
}

TEST(Trace, ClearForgetsEverything) {
  Machine M;
  trace::TraceRecorder Recorder(M);
  runWorkload(M);
  ASSERT_FALSE(Recorder.blocks().empty());
  Recorder.clear();
  EXPECT_TRUE(Recorder.blocks().empty());
  EXPECT_TRUE(Recorder.transfers().empty());
  EXPECT_TRUE(Recorder.waits().empty());
  EXPECT_EQ(Recorder.lastEventCycle(), 0u);
  // Still attached: new work is recorded again.
  runWorkload(M);
  EXPECT_EQ(Recorder.blocks().size(), 2u);
}

//===----------------------------------------------------------------------===//
// 3. The Chrome trace export is valid JSON and matches the recording.
//===----------------------------------------------------------------------===//

TEST(Trace, ChromeTraceJsonMatchesRecorder) {
  Machine M;
  trace::TraceRecorder Recorder(M);
  runWorkload(M);

  std::string Path = ::testing::TempDir() + "omm_trace_test.json";
  ASSERT_TRUE(trace::writeChromeTraceFile(Path, Recorder));

  JsonParser Parser(slurp(Path));
  JsonValue Root = Parser.parse();
  ASSERT_TRUE(Parser.ok()) << "trace output is not valid JSON";
  ASSERT_EQ(Root.K, JsonValue::Object);
  const JsonValue *Events = Root.field("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_EQ(Events->K, JsonValue::Array);

  size_t BlockEvents = 0, DmaBegins = 0, DmaEnds = 0, WaitEvents = 0;
  uint64_t DmaBytes = 0, BlockCycles = 0, WaitCycles = 0;
  for (const JsonValue &E : Events->Items) {
    ASSERT_EQ(E.K, JsonValue::Object);
    std::string Ph = E.strField("ph");
    ASSERT_FALSE(Ph.empty());
    EXPECT_EQ(E.numField("pid"), 1);
    std::string Name = E.strField("name");
    if (Ph == "X" && Name.compare(0, 8, "offload ") == 0) {
      ++BlockEvents;
      BlockCycles += static_cast<uint64_t>(E.numField("dur"));
    } else if (Ph == "X" && Name == "dma_wait") {
      ++WaitEvents;
      WaitCycles += static_cast<uint64_t>(E.numField("dur"));
    } else if (Ph == "b") {
      ++DmaBegins;
      const JsonValue *Args = E.field("args");
      ASSERT_NE(Args, nullptr);
      DmaBytes += static_cast<uint64_t>(Args->numField("size"));
    } else if (Ph == "e") {
      ++DmaEnds;
    }
  }

  PerfCounters Total = M.totalCounters();
  EXPECT_EQ(BlockEvents, Recorder.blocks().size());
  EXPECT_EQ(DmaBegins, Recorder.transfers().size());
  EXPECT_EQ(DmaEnds, DmaBegins); // Every async DMA event is closed.
  EXPECT_EQ(DmaBytes, Total.dmaBytes());

  uint64_t RecordedBlockCycles = 0;
  for (const trace::OffloadSpan &Span : Recorder.blocks())
    RecordedBlockCycles += Span.cycles();
  EXPECT_EQ(BlockCycles, RecordedBlockCycles);

  // Zero-length waits are elided from the export; every emitted wait
  // carries its stall, so the sum matches the non-zero recorded stalls.
  uint64_t RecordedWaitCycles = 0;
  for (const trace::WaitSpan &Wait : Recorder.waits())
    RecordedWaitCycles += Wait.stallCycles();
  EXPECT_EQ(WaitCycles, RecordedWaitCycles);
  EXPECT_LE(WaitEvents, Recorder.waits().size());

  std::remove(Path.c_str());
}

TEST(Trace, TimelineReportSmoke) {
  Machine M;
  trace::TraceRecorder Recorder(M);
  runWorkload(M);

  std::FILE *Tmp = std::tmpfile();
  ASSERT_NE(Tmp, nullptr);
  {
    OStream OS(Tmp);
    trace::printTimelineReport(OS, Recorder);
  }
  long Size = std::ftell(Tmp);
  EXPECT_GT(Size, 0); // Wrote something without crashing.
  std::fclose(Tmp);
}

//===----------------------------------------------------------------------===//
// 4. Recorder and race checker coexist through the ObserverMux.
//===----------------------------------------------------------------------===//

TEST(Trace, CoexistsWithRaceChecker) {
  Machine M;
  DiagSink Diags;
  dmacheck::DmaRaceChecker Checker(Diags);
  M.addObserver(&Checker);
  {
    trace::TraceRecorder Recorder(M);
    runWorkload(M);
    // Both observers saw the whole run.
    EXPECT_EQ(Recorder.transfers().size(), M.totalCounters().dmaTransfers());
    EXPECT_EQ(Checker.raceCount(), 0u);
    EXPECT_EQ(Recorder.blocks().size(), 2u);
  }
  // Recorder detached itself; the checker must keep observing.
  Accelerator &A = M.accel(0);
  GlobalAddr G = M.allocGlobal(128);
  LocalAddr L = A.Store.alloc(128);
  A.Dma.get(L, G, 64, 0);
  A.Dma.get(L + 32, G + 64, 64, 1); // Overlapping local writes: a race.
  A.Dma.waitAll();
  EXPECT_EQ(Checker.raceCount(), 1u);
  M.removeObserver(&Checker);
}

//===----------------------------------------------------------------------===//
// 5. Resident dispatch, steals, parcels and faults reach the exporters.
//===----------------------------------------------------------------------===//

TEST(Trace, EveryEventKindHasADistinctName) {
  const FaultKind Faults[] = {
#define OMM_FAULT_KIND(Name, Label) FaultKind::Name,
#include "sim/FaultKinds.def"
  };
  const DispatchEventKind Dispatches[] = {
#define OMM_DISPATCH_EVENT(Name, Label, OnHost) DispatchEventKind::Name,
#include "sim/DispatchEventKinds.def"
  };
  ASSERT_EQ(std::size(Faults), NumFaultKinds);
  std::set<std::string> Names;
  auto Check = [&](const char *Name) {
    ASSERT_NE(Name, nullptr);
    std::string Str(Name);
    EXPECT_FALSE(Str.empty());
    EXPECT_EQ(Str.find_first_not_of("abcdefghijklmnopqrstuvwxyz_"),
              std::string::npos)
        << Str;
    EXPECT_TRUE(Names.insert(Str).second) << "duplicate name " << Str;
  };
  for (unsigned K = 0; K != std::size(Faults); ++K) {
    EXPECT_EQ(static_cast<unsigned>(Faults[K]), K);
    Check(faultKindName(Faults[K]));
  }
  std::set<std::string> HostSide;
  for (unsigned K = 0; K != std::size(Dispatches); ++K) {
    EXPECT_EQ(static_cast<unsigned>(Dispatches[K]), K);
    Check(dispatchEventKindName(Dispatches[K]));
    if (isHostSideDispatch(Dispatches[K]))
      HostSide.insert(dispatchEventKindName(Dispatches[K]));
  }
  EXPECT_EQ(HostSide, (std::set<std::string>{"doorbell_write", "bulk_doorbell",
                                             "mailbox_drained"}));
}

namespace {

/// Reads what a writer put into \p File from its start.
std::string readBack(std::FILE *File) {
  std::rewind(File);
  std::string Text;
  char Buf[4096];
  while (size_t N = std::fread(Buf, 1, sizeof(Buf), File))
    Text.append(Buf, N);
  return Text;
}

/// Sums the cells of the timeline report's steal matrix; \returns -1
/// when the report has no matrix.
int64_t stealMatrixSum(const std::string &Report) {
  size_t At = Report.find("steal matrix");
  if (At == std::string::npos)
    return -1;
  std::istringstream Lines(Report.substr(At));
  std::string Line;
  std::getline(Lines, Line); // Title.
  std::getline(Lines, Line); // Victim column headers.
  int64_t Sum = 0;
  while (std::getline(Lines, Line) && Line.rfind("  thief ", 0) == 0) {
    std::istringstream Cells(Line.substr(8));
    std::string Cell;
    Cells >> Cell; // The thief's id.
    while (Cells >> Cell)
      if (Cell != ".")
        Sum += std::stoll(Cell);
  }
  return Sum;
}

} // namespace

TEST(Trace, ExportsStealsParcelsAndFaults) {
  // One recording of three resident regions: a kill refuses core 5's
  // launch, a skewed stealing job queue runs on the other five workers,
  // then a two-stage dataflow chains parcels worker to worker.
  MachineConfig Cfg;
  Cfg.WorkStealing = StealPolicy::LocalityAware;
  Cfg.Faults.Enabled = true;
  Machine M(Cfg);
  M.faults()->scheduleKill(5, 0);
  trace::TraceRecorder Recorder(M);
  PerfCounters Before = M.totalCounters();
  distributeJobs(M, 256, {.ChunkSize = 8},
                 [](OffloadContext &Ctx, uint32_t Begin, uint32_t End) {
                   for (uint32_t I = Begin; I != End; ++I)
                     Ctx.compute(I < 64 ? 900 : 60);
                 });
  DataflowOptions Opts;
  Opts.ChunkSize = 16;
  Opts.NumStages = 2;
  runDataflow(M, 128, Opts, [](auto &Ctx, const WorkDescriptor &Desc) {
    Ctx.compute((Desc.End - Desc.Begin) * 40);
  });
  PerfCounters C = M.countersSince(Before);
  ASSERT_GT(C.DescriptorsStolen, 0u);
  ASSERT_GT(C.ParcelsSpawned, 0u);
  ASSERT_FALSE(M.accel(5).Alive);

  // The Chrome trace: one descriptor span per recorded descriptor, the
  // mailbox instants under their table names and on the right track,
  // and the kill on the dead core's track.
  std::FILE *Json = std::tmpfile();
  ASSERT_NE(Json, nullptr);
  {
    OStream OS(Json);
    trace::writeChromeTrace(OS, Recorder);
  }
  JsonParser Parser(readBack(Json));
  std::fclose(Json);
  JsonValue Root = Parser.parse();
  ASSERT_TRUE(Parser.ok()) << "trace output is not valid JSON";
  const JsonValue *Events = Root.field("traceEvents");
  ASSERT_NE(Events, nullptr);
  size_t DescriptorEvents = 0;
  std::map<std::string, size_t> Mailbox, Faults;
  for (const JsonValue &E : Events->Items) {
    std::string Cat = E.strField("cat");
    std::string Name = E.strField("name");
    if (Cat == "descriptor") {
      EXPECT_EQ(E.strField("ph"), "X");
      EXPECT_EQ(Name.rfind("desc #", 0), 0u) << Name;
      ++DescriptorEvents;
    } else if (Cat == "mailbox") {
      ++Mailbox[Name];
      bool OnHost = Name == "doorbell_write" || Name == "bulk_doorbell" ||
                    Name == "mailbox_drained";
      const JsonValue *Args = E.field("args");
      ASSERT_NE(Args, nullptr);
      EXPECT_EQ(E.numField("tid"), OnHost ? 0 : Args->numField("accel") + 1)
          << Name;
    } else if (Cat == "fault") {
      ++Faults[Name];
      if (Name == "accelerator_death") {
        EXPECT_EQ(E.numField("tid"), 6);
      }
    }
  }
  EXPECT_EQ(DescriptorEvents, Recorder.descriptors().size());
  EXPECT_GT(DescriptorEvents, 0u);
  size_t MailboxEvents = 0;
  for (const auto &[Name, N] : Mailbox)
    MailboxEvents += N;
  EXPECT_EQ(MailboxEvents, Recorder.mailboxEvents().size());
  for (const char *Name : {"bulk_doorbell", "descriptor_fetch", "steal_probe",
                           "steal_transfer", "parcel_spawn", "parcel_deliver"})
    EXPECT_GT(Mailbox[Name], 0u) << Name;
  EXPECT_EQ(Mailbox["parcel_spawn"], C.ParcelsSpawned);
  EXPECT_EQ(Mailbox["parcel_deliver"], C.ParcelsSpawned);
  EXPECT_EQ(Faults["accelerator_death"], 1u);
  EXPECT_EQ(Faults["launch_on_dead_accelerator"], 1u); // The dataflow pool.
  size_t FaultEvents = 0;
  for (const auto &[Name, N] : Faults)
    FaultEvents += N;
  EXPECT_EQ(FaultEvents, Recorder.faults().size());

  // The timeline report: the dispatch summary, a steal matrix whose
  // cells account for every stolen descriptor, and the fault line.
  std::FILE *Tmp = std::tmpfile();
  ASSERT_NE(Tmp, nullptr);
  {
    OStream OS(Tmp);
    trace::printTimelineReport(OS, Recorder);
  }
  std::string Report = readBack(Tmp);
  std::fclose(Tmp);
  EXPECT_NE(Report.find("descriptors executed: " +
                        std::to_string(Recorder.descriptors().size())),
            std::string::npos)
      << Report;
  EXPECT_NE(Report.find("parcels " + std::to_string(C.ParcelsSpawned) + ")"),
            std::string::npos)
      << Report;
  EXPECT_EQ(stealMatrixSum(Report), static_cast<int64_t>(C.DescriptorsStolen))
      << Report;
  EXPECT_NE(Report.find("faults seen: " +
                        std::to_string(Recorder.faults().size()) +
                        " (accelerator_death x1, launch_on_dead_accelerator x1)"),
            std::string::npos)
      << Report;
}

//===----------------------------------------------------------------------===//
// 6. The JSON helpers.
//===----------------------------------------------------------------------===//

TEST(Trace, JsonEscapesQuotesBackslashesAndControlCharacters) {
  std::string Out;
  trace::appendJsonEscaped(Out, std::string_view("q\"b\\n\nr\rt\tc\x01\x1f", 13));
  EXPECT_EQ(Out, "q\\\"b\\\\n\\nr\\rt\\tc\\u0001\\u001f");
  // Printable ASCII and UTF-8 bytes pass through unchanged.
  Out.clear();
  trace::appendJsonEscaped(Out, "ok /~ \xc3\xa9");
  EXPECT_EQ(Out, "ok /~ \xc3\xa9");
  EXPECT_EQ(trace::jsonQuote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(trace::jsonQuote(""), "\"\"");
}

TEST(Trace, JsonNumberWritesNonFiniteValuesAsZero) {
  constexpr double Inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(trace::jsonNumber(Inf), "0");
  EXPECT_EQ(trace::jsonNumber(-Inf), "0");
  EXPECT_EQ(trace::jsonNumber(std::numeric_limits<double>::quiet_NaN()), "0");
  EXPECT_EQ(trace::jsonNumber(42), "42");
  EXPECT_EQ(trace::jsonNumber(-1.5), "-1.5");
  EXPECT_EQ(trace::jsonNumber(0.1), "0.10000000000000001");
}
