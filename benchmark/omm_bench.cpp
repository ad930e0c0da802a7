//===- benchmark/omm_bench.cpp - The repository benchmark program ---------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// Runs one benchmark workload in this process and prints one JSON line
// with its metrics. benchmark/run.py builds this binary, starts one
// process per workload and assembles the results; benchmark/README.md
// defines every workload and metric.
//
// Two clocks are measured. Simulated cycles come from the model and are
// deterministic per seed; host nanoseconds measure the simulator itself.
// Every layer is measured from outside, through public calls only: the
// GameWorld frame calls, the split-phase served frame, distributeJobs,
// TenantServer::serveTick, Machine::totalCounters() deltas and a
// bench-owned DmaObserver.
//
// One run of a workload is, on one host thread:
//   1. set-up (Machine, then the world or the tenants), timed
//      SetupSamples times;
//   2. timed repeats, each on a fresh Machine, until --seconds is spent
//      (at least MinRepeats); every frame call is timed on its own;
//   3. a reference schedule, untimed, that every frame's world checksum
//      is checked against;
//   4. with --trace 1, one traced repeat: host spans kept in memory and
//      written as a Chrome trace, plus a counting observer.
// The process exits 1, after printing, if a check or a gate failed.
//
//===----------------------------------------------------------------------===//

#include "offload/JobQueue.h"
#include "server/TenantServer.h"
#include "sim/Machine.h"
#include "support/Random.h"
#include "trace/Json.h"

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

using namespace omm;
using namespace omm::game;
using namespace omm::server;
using namespace omm::sim;

namespace {

/// The modelled clock: MachineConfig's costs are calibrated to a 3.2 GHz
/// Cell BE.
constexpr double SimHz = 3.2e9;
/// setup_s is the median of this many constructions.
constexpr unsigned SetupSamples = 11;
/// Timed repeats are compared by fingerprint, so there are at least two.
constexpr unsigned MinRepeats = 2;
/// --quick runs 1/QuickDivisor of every workload's frames, once.
constexpr uint32_t QuickDivisor = 20;

// serve_tenants.
constexpr unsigned NumTenants = 16;
constexpr uint32_t TenantBaseEntities = 96;
/// The tenant size mix is part of the workload, like an entity count: it
/// is one fixed draw of makeHeavyTailedTenants, and --seed re-seeds every
/// world instead. A seeded mix would move p99 by whole size classes
/// between seeds.
constexpr uint64_t TenantMixSeed = 0xE15E15;
/// Per-tenant chunk deadline from E15's calibration at the default seed
/// (`omm_bench --calibrate --seed 1` reproduces it).
constexpr uint64_t TenantDeadlineCycles = 32768;
/// Tick budget as a share of the unconstrained admission ledger.
constexpr uint64_t AdmissionBudgetPct = 85;
constexpr unsigned StragglerAccel = 1;
constexpr float StragglerSlowdown = 8.0f;

enum class Kind { Resident, Dataflow, Launch, Serve };

struct Workload {
  const char *Name;
  Kind K;
  uint32_t Steps; ///< Frame calls per repeat (serving ticks for Serve).
};

// Why each workload is in the set: benchmark/README.md.
constexpr Workload Workloads[] = {
    {"frame_resident", Kind::Resident, 1200},
    {"frame_dataflow", Kind::Dataflow, 2000},
    {"frame_launch", Kind::Launch, 1200},
    {"serve_tenants", Kind::Serve, 600},
};

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t cpuNs() {
  timespec T{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return int64_t(T.tv_sec) * 1000000000 + T.tv_nsec;
}

uint64_t fold(uint64_t Hash, uint64_t Value) {
  return Hash ^ (Value + 0x9E3779B97F4A7C15ull + (Hash << 6) + (Hash >> 2));
}

uint64_t median(const std::vector<uint64_t> &Samples) {
  return percentileCycles(Samples, 50.0);
}

/// Host-time spans of the traced run, kept in memory until the run ends.
class SpanLog {
public:
  static constexpr int32_t NoParent = -1;

  int32_t open(const char *Name, uint32_t Frame, int32_t Parent) {
    Spans.push_back({Name, nowNs(), 0, Parent, Frame});
    return static_cast<int32_t>(Spans.size() - 1);
  }
  void close(int32_t Id) { Spans[Id].End = nowNs(); }

  /// Self time summed by span name: each span's duration minus the part
  /// its child spans cover (children never overlap: one host thread).
  std::map<std::string, int64_t> selfNsByName() const {
    std::vector<int64_t> Self(Spans.size());
    for (size_t I = 0; I != Spans.size(); ++I)
      Self[I] = Spans[I].End - Spans[I].Start;
    for (const Span &S : Spans)
      if (S.Parent != NoParent)
        Self[S.Parent] -= S.End - S.Start;
    std::map<std::string, int64_t> ByName;
    for (size_t I = 0; I != Spans.size(); ++I)
      ByName[Spans[I].Name] += Self[I];
    return ByName;
  }

  /// Writes every span as a Chrome trace complete event (microseconds).
  bool writeChromeTrace(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    int64_t Epoch = Spans.empty() ? 0 : Spans.front().Start;
    std::fputs("{\"traceEvents\":[\n", F);
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"frame\":%u}}",
                   I == 0 ? "" : ",\n", S.Name, double(S.Start - Epoch) / 1e3,
                   double(S.End - S.Start) / 1e3, I, S.Parent, S.Frame);
    }
    std::fputs("\n]}\n", F);
    return std::fclose(F) == 0;
  }

private:
  struct Span {
    const char *Name;
    int64_t Start, End;
    int32_t Parent;
    uint32_t Frame;
  };
  std::vector<Span> Spans;
};

/// A span around one scope; does nothing when there is no log.
class ScopedSpan {
public:
  ScopedSpan(SpanLog *Log, const char *Name, uint32_t Frame,
             int32_t Parent = SpanLog::NoParent)
      : Log(Log), Id(Log ? Log->open(Name, Frame, Parent) : SpanLog::NoParent) {}
  ~ScopedSpan() {
    if (Log)
      Log->close(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  int32_t id() const { return Id; }

private:
  SpanLog *Log;
  int32_t Id;
};

/// The traced run's observer: counts callbacks (cross-checked against the
/// PerfCounters deltas) and sums each accelerator's descriptor body cycles
/// per frame call for the busy imbalance.
class CountingObserver final : public DmaObserver {
public:
  explicit CountingObserver(unsigned NumAccels)
      : Busy(NumAccels), Opened(NumAccels) {}

  uint64_t Events = 0;
  uint64_t Issues = 0;
  uint64_t DescriptorRuns = 0; ///< Body executions; recovery copies excluded.
  uint64_t ParcelSpawns = 0;
  uint64_t Launches = 0;

  void beginFrame() {
    std::fill(Busy.begin(), Busy.end(), 0);
    std::fill(Opened.begin(), Opened.end(), false);
  }

  /// Folds the frame's max / mean busy cycles over the workers it opened;
  /// frames that ran no descriptor body have no imbalance to report.
  void endFrame() {
    uint64_t Max = 0, Sum = 0, Workers = 0;
    for (size_t A = 0; A != Busy.size(); ++A) {
      if (!Opened[A])
        continue;
      Max = std::max(Max, Busy[A]);
      Sum += Busy[A];
      ++Workers;
    }
    if (Sum == 0)
      return;
    ImbalanceSum += double(Max) * double(Workers) / double(Sum);
    ++ImbalanceFrames;
  }

  double meanImbalance() const {
    return ImbalanceFrames ? ImbalanceSum / double(ImbalanceFrames) : 0.0;
  }

  void onIssue(const DmaTransfer &) override {
    count();
    ++Issues;
  }
  void onWait(unsigned, uint32_t, uint64_t, uint64_t) override { count(); }
  void onLocalAccess(unsigned, LocalAddr, uint32_t, bool, uint64_t) override {
    count();
  }
  void onHostAccess(GlobalAddr, uint64_t, bool, uint64_t) override {
    count();
  }
  void onBlockBegin(unsigned AccelId, uint64_t, uint64_t) override {
    count();
    ++Launches;
    if (AccelId < Opened.size())
      Opened[AccelId] = true;
  }
  void onBlockEnd(unsigned, uint64_t, uint64_t) override { count(); }
  void onFault(const FaultEvent &Event) override {
    count();
    AfterRequeue = Event.Kind == FaultKind::ChunkRequeued;
  }
  void onDispatchEvent(const DispatchEvent &Event) override {
    bool RecoveryCopy = AfterRequeue;
    count();
    if (Event.Kind == DispatchEventKind::ParcelSpawn)
      ++ParcelSpawns;
    if (Event.Kind != DispatchEventKind::DescriptorRun)
      return;
    // A deadline-recovery copy reports its re-timed run right after its
    // ChunkRequeued fault; it does not execute the body again.
    if (!RecoveryCopy)
      ++DescriptorRuns;
    if (Event.AccelId < Busy.size())
      Busy[Event.AccelId] += Event.EndCycle - Event.Cycle;
  }

private:
  void count() {
    ++Events;
    AfterRequeue = false;
  }

  std::vector<uint64_t> Busy;
  std::vector<bool> Opened;
  bool AfterRequeue = false;
  double ImbalanceSum = 0;
  uint64_t ImbalanceFrames = 0;
};

/// Everything a repeat is built from: a pure function of the workload and
/// the seed.
struct Inputs {
  MachineConfig Config = MachineConfig::cellLike();
  GameWorldParams World;
  TenantServerParams Policy;
  std::vector<TenantParams> Tenants;
  unsigned Whale = 0; ///< Largest tenant; the straggler is scheduled there.
};

std::vector<TenantParams> tenantPopulation(SplitMix64 &Rng,
                                           uint64_t Deadline) {
  std::vector<TenantParams> Tenants = makeHeavyTailedTenants(
      NumTenants, TenantMixSeed, TenantBaseEntities, Deadline);
  for (TenantParams &T : Tenants)
    T.World.Seed = Rng.next();
  return Tenants;
}

/// Host cycles of serving \p Tenants for \p Ticks round-robin ticks on a
/// fault-free machine with no admission budget; \p Ledger gets the last
/// tick's admission ledger and \p Detected the hangs plus stragglers.
uint64_t serveClean(const std::vector<TenantParams> &Tenants, unsigned Ticks,
                    uint64_t &Ledger, uint64_t &Detected) {
  Machine M(MachineConfig::cellLike());
  TenantServer Server(M, TenantServerParams());
  for (const TenantParams &T : Tenants)
    Server.addTenant(T);
  for (unsigned Tick = 0; Tick != Ticks; ++Tick)
    Ledger = Server.serveTick().LedgerCycles;
  Detected = 0;
  for (unsigned T = 0; T != Server.numTenants(); ++T)
    Detected += Server.stats(T).Counters.HangsDetected +
                Server.stats(T).Counters.StragglersDetected;
  return M.hostClock().now();
}

/// E15's procedure: the smallest deadline, doubling from 512, at which an
/// armed fault-free run of the tenants detects nothing and costs exactly
/// the unarmed run's cycles. 0 if none does.
uint64_t calibrateTenantDeadline(uint64_t Seed) {
  SplitMix64 Rng(Seed);
  std::vector<TenantParams> Tenants = tenantPopulation(Rng, 0);
  uint64_t Ledger = 0, Detected = 0;
  uint64_t Unarmed = serveClean(Tenants, 12, Ledger, Detected);
  for (uint64_t D = 512; D < (uint64_t(1) << 40); D *= 2) {
    for (TenantParams &T : Tenants)
      T.ChunkDeadlineCycles = D;
    if (serveClean(Tenants, 12, Ledger, Detected) == Unarmed && Detected == 0)
      return D;
  }
  return 0;
}

Inputs makeInputs(const Workload &W, uint64_t Seed) {
  SplitMix64 Rng(Seed);
  Inputs In;
  In.Config.HostThreads = 0;
  if (W.K == Kind::Serve) {
    In.Tenants = tenantPopulation(Rng, TenantDeadlineCycles);
    for (unsigned T = 1; T != In.Tenants.size(); ++T)
      if (In.Tenants[T].World.NumEntities >
          In.Tenants[In.Whale].World.NumEntities)
        In.Whale = T;
    // E15's 100% reference: the steady-state ledger of admitting everyone.
    uint64_t Ledger = 0, Detected = 0;
    serveClean(In.Tenants, 4, Ledger, Detected);
    In.Policy.TickBudgetCycles = Ledger * AdmissionBudgetPct / 100;
    In.Config.DeadlineRecovery = DeadlinePolicy::Speculate;
    In.Config.Faults.Enabled = true;
    In.Config.Faults.Seed = Rng.next();
    In.Config.Faults.DmaFailRate = 1e-3f;
    return In;
  }
  In.World.NumEntities = 2000;
  In.World.Seed = Rng.next();
  if (W.K == Kind::Dataflow) {
    In.World.StageShardElems = 32;
    return In;
  }
  In.World.AiChunkElems = 4;
  if (W.K == Kind::Resident) {
    In.World.PathologicalAiEntities = 64;
    In.World.PathologicalAiCostMult = 16;
    In.Config.WorkStealing = StealPolicy::LocalityAware;
  }
  return In;
}

/// One repeat's machine plus its world or tenant server (declared after
/// the machine, so destroyed before it).
struct Instance {
  std::unique_ptr<Machine> M;
  std::unique_ptr<GameWorld> World;
  std::unique_ptr<TenantServer> Server;
  int64_t MachineNs = 0;
  int64_t WorldNs = 0;
};

Instance build(const Workload &W, const Inputs &In, SpanLog *Log) {
  Instance I;
  int64_t Start = nowNs();
  {
    ScopedSpan S(Log, "setup.machine", 0);
    I.M = std::make_unique<Machine>(In.Config);
  }
  int64_t Mid = nowNs();
  {
    ScopedSpan S(Log, "setup.world", 0);
    if (W.K == Kind::Serve) {
      I.Server = std::make_unique<TenantServer>(*I.M, In.Policy);
      for (const TenantParams &T : In.Tenants)
        I.Server->addTenant(T);
    } else {
      I.World = std::make_unique<GameWorld>(*I.M, In.World);
    }
  }
  I.MachineNs = Mid - Start;
  I.WorldNs = nowNs() - Mid;
  return I;
}

/// doFrameOffloadAiResident driven split-phase through public calls, so
/// the snapshot, the dispatch runtime, the AI bodies and the rest of the
/// frame each get spans. Same descriptors, cycles and world state as the
/// one-call frame; the fingerprint gate checks that.
FrameStats residentFrameTraced(GameWorld &World, SpanLog &Log, uint32_t Frame,
                               int32_t FrameSpan) {
  uint32_t Count = 0;
  {
    ScopedSpan S(&Log, "game.snapshot", Frame, FrameSpan);
    Count = World.beginServedFrame();
  }
  {
    ScopedSpan Dispatch(&Log, "offload.dispatch", Frame, FrameSpan);
    offload::JobQueueOptions Opts;
    Opts.ChunkSize = World.params().AiChunkElems;
    Opts.Adaptive = true;
    offload::distributeJobs(
        World.machine(), Count, Opts,
        [&](auto &Ctx, uint32_t Begin, uint32_t End) {
          ScopedSpan Chunk(&Log, "game.ai_chunk", Frame, Dispatch.id());
          if constexpr (std::is_same_v<std::decay_t<decltype(Ctx)>,
                                       offload::OffloadContext>)
            World.servedAiChunk(Ctx, Begin, End);
          else
            World.servedAiChunkHost(Begin, End);
        });
  }
  ScopedSpan S(&Log, "game.finish", Frame, FrameSpan);
  return World.finishServedFrame();
}

FrameStats runFrame(Kind K, GameWorld &World, SpanLog *Log, uint32_t Frame,
                    int32_t FrameSpan) {
  switch (K) {
  case Kind::Resident:
    return Log ? residentFrameTraced(World, *Log, Frame, FrameSpan)
               : World.doFrameOffloadAiResident();
  case Kind::Dataflow:
    return World.doFrameDataflow(ParcelPolicy::Ring);
  case Kind::Launch:
    return World.doFrameOffloadAiParallel();
  case Kind::Serve:
    break;
  }
  std::abort();
}

/// What one repeat produced. Simulated outputs are the same in every
/// repeat (the fingerprint checks that); host times are not.
struct Repeat {
  std::vector<uint64_t> StepNs;    ///< Host time of every frame call/tick.
  std::vector<uint64_t> Checksums; ///< World checksum after every frame;
                                   ///< Serve: each tenant's at the end.
  std::vector<uint64_t> TenantFrames; ///< Serve: frames each tenant served.
  std::vector<uint64_t> FrameCycles;  ///< Per frame (per tenant frame).
  std::vector<FrameStats> Frames;     ///< Frame workloads.
  std::vector<TickStats> Ticks;       ///< Serve.
  PerfCounters Counters;              ///< Machine counter delta.
  uint64_t SimCycles = 0;             ///< Host-clock span of the frames.
  uint64_t Fingerprint = 0;
  int64_t WallNs = 0;
  int64_t CpuNs = 0;
};

Repeat runRepeat(const Workload &W, const Inputs &In, uint32_t Steps,
                 SpanLog *Log = nullptr, CountingObserver *Obs = nullptr) {
  Instance I = build(W, In, Log);
  Machine &M = *I.M;
  if (Obs)
    M.addObserver(Obs);
  Repeat R;
  R.StepNs.reserve(Steps);
  PerfCounters Before = M.totalCounters();
  uint64_t SimStart = M.hostClock().now();
  int64_t Wall = nowNs(), Cpu = cpuNs();
  for (uint32_t Step = 0; Step != Steps; ++Step) {
    if (Obs)
      Obs->beginFrame();
    int64_t Start = nowNs();
    if (W.K == Kind::Serve) {
      ScopedSpan S(Log, "server.tick", Step);
      if (Step % 4 == 2)
        I.Server->scheduleTenantStraggler(In.Whale, StragglerAccel,
                                          StragglerSlowdown);
      R.Ticks.push_back(I.Server->serveTick());
    } else {
      ScopedSpan S(Log, "frame", Step);
      R.Frames.push_back(runFrame(W.K, *I.World, Log, Step, S.id()));
    }
    R.StepNs.push_back(uint64_t(nowNs() - Start));
    if (Obs)
      Obs->endFrame();
    if (W.K == Kind::Serve) {
      R.Fingerprint = fold(R.Fingerprint, R.Ticks.back().TickCycles);
      R.Fingerprint = fold(R.Fingerprint, R.Ticks.back().Admitted);
    } else {
      R.Checksums.push_back(I.World->checksum());
      R.FrameCycles.push_back(R.Frames.back().FrameCycles);
      R.Fingerprint = fold(R.Fingerprint, R.FrameCycles.back());
      R.Fingerprint = fold(R.Fingerprint, R.Checksums.back());
    }
  }
  R.WallNs = nowNs() - Wall;
  R.CpuNs = cpuNs() - Cpu;
  if (W.K == Kind::Serve) {
    for (unsigned T = 0; T != I.Server->numTenants(); ++T) {
      const TenantStats &Stats = I.Server->stats(T);
      R.Checksums.push_back(I.Server->checksum(T));
      R.TenantFrames.push_back(Stats.FramesServed);
      R.FrameCycles.insert(R.FrameCycles.end(), Stats.FrameCycles.begin(),
                           Stats.FrameCycles.end());
      R.Fingerprint = fold(R.Fingerprint, R.Checksums.back());
      for (uint64_t C : Stats.FrameCycles)
        R.Fingerprint = fold(R.Fingerprint, C);
    }
  }
  R.Counters = M.totalCounters();
  R.Counters.subtract(Before);
  R.SimCycles = M.hostClock().now() - SimStart;
  if (Obs)
    M.removeObserver(Obs);
  return R;
}

/// Checksums the workload must reproduce. Frames: the host-only schedule
/// after every frame (the staged shard schedule for frame_dataflow, whose
/// shard-confined collision differs from the global broadphase). Serving:
/// each tenant's world run solo, fault-free and host-only for the frames
/// it was served, the isolation check of the tenant soak test.
std::vector<uint64_t> referenceChecksums(const Workload &W, const Inputs &In,
                                         uint32_t Steps, const Repeat &First) {
  std::vector<uint64_t> Ref;
  if (W.K == Kind::Serve) {
    MachineConfig Solo = MachineConfig::cellLike();
    Solo.MainMemorySize = 8ull << 20;
    for (size_t T = 0; T != In.Tenants.size(); ++T) {
      Machine M(Solo);
      GameWorld World(M, In.Tenants[T].World);
      for (uint64_t F = 0; F != First.TenantFrames[T]; ++F)
        World.doFrameHostOnly();
      Ref.push_back(World.checksum());
    }
    return Ref;
  }
  Machine M(In.Config);
  GameWorld World(M, In.World);
  for (uint32_t F = 0; F != Steps; ++F) {
    if (W.K == Kind::Dataflow)
      World.doFrameStaged();
    else
      World.doFrameHostOnly();
    Ref.push_back(World.checksum());
  }
  return Ref;
}

class JsonMetrics {
public:
  void add(const char *Name, double Value, const char *Unit) {
    Out += Out.empty() ? "{" : ",";
    Out += trace::jsonQuote(Name) + ":{\"value\":" + trace::jsonNumber(Value) +
           ",\"unit\":" + trace::jsonQuote(Unit) + "}";
  }
  std::string str() const { return Out.empty() ? "{}" : Out + "}"; }

private:
  std::string Out;
};

double ratio(double Num, double Den) { return Den == 0 ? 0.0 : Num / Den; }

double peakRssMb() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return double(Usage.ru_maxrss) / 1024.0; // Linux reports KiB.
}

struct Options {
  const Workload *W = nullptr;
  uint64_t Seed = 0;
  bool HaveSeed = false;
  double Seconds = 0;
  bool Trace = false;
  bool Quick = false;
  bool List = false;
  bool Calibrate = false;
  std::string TraceOut;
};

bool parseUnsigned(const char *Text, uint64_t &Value) {
  char *End = nullptr;
  errno = 0;
  Value = std::strtoull(Text, &End, 10);
  return End != Text && *End == '\0' && errno == 0 && Text[0] != '-';
}

bool parseOptions(int Argc, char **Argv, Options &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--quick") {
      Opts.Quick = true;
      continue;
    }
    if (Arg == "--list") {
      Opts.List = true;
      continue;
    }
    if (Arg == "--calibrate") {
      Opts.Calibrate = true;
      continue;
    }
    if (I + 1 == Argc)
      return false;
    const char *Value = Argv[++I];
    uint64_t N = 0;
    if (Arg == "--workload") {
      for (const Workload &W : Workloads)
        if (std::strcmp(W.Name, Value) == 0)
          Opts.W = &W;
      if (!Opts.W)
        return false;
    } else if (Arg == "--seed") {
      if (!parseUnsigned(Value, Opts.Seed))
        return false;
      Opts.HaveSeed = true;
    } else if (Arg == "--seconds") {
      if (!parseUnsigned(Value, N) || N == 0 || N > 3600)
        return false;
      Opts.Seconds = double(N);
    } else if (Arg == "--trace") {
      if (!parseUnsigned(Value, N) || N > 1)
        return false;
      Opts.Trace = N == 1;
    } else if (Arg == "--trace-out") {
      Opts.TraceOut = Value;
    } else {
      return false;
    }
  }
  if (Opts.List)
    return true;
  if (Opts.Calibrate)
    return Opts.HaveSeed;
  return Opts.W && Opts.HaveSeed && Opts.Seconds > 0;
}

} // namespace

int main(int Argc, char **Argv) {
  // The override would beat HostThreads = 0 and run resident regions on
  // extra host threads; the benchmark measures the serial simulator.
  unsetenv("OMM_HOST_THREADS");
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  std::fprintf(stderr, "omm_bench: refusing to measure a sanitizer build\n");
  return 2;
#endif

  Options Opts;
  if (!parseOptions(Argc, Argv, Opts)) {
    std::fprintf(stderr,
                 "usage: omm_bench --workload NAME --seed N --seconds S "
                 "[--trace 0|1] [--trace-out PATH] [--quick]\n"
                 "       omm_bench --list\n"
                 "       omm_bench --calibrate --seed N\n");
    return 2;
  }
  if (Opts.List) {
    for (const Workload &W : Workloads)
      std::printf("%s\n", W.Name);
    return 0;
  }
  if (Opts.Calibrate) {
    std::printf("%llu\n", static_cast<unsigned long long>(
                              calibrateTenantDeadline(Opts.Seed)));
    return 0;
  }

  const Workload &W = *Opts.W;
  const Inputs In = makeInputs(W, Opts.Seed);
  const uint32_t Steps = Opts.Quick ? W.Steps / QuickDivisor : W.Steps;

  std::vector<uint64_t> SetupNs, MachineNs, WorldNs;
  for (unsigned I = 0; I != SetupSamples; ++I) {
    Instance Inst = build(W, In, nullptr);
    MachineNs.push_back(uint64_t(Inst.MachineNs));
    WorldNs.push_back(uint64_t(Inst.WorldNs));
    SetupNs.push_back(uint64_t(Inst.MachineNs + Inst.WorldNs));
  }

  // Repeats run until the budget would be overshot by another one.
  std::vector<Repeat> Repeats;
  const int64_t Budget = int64_t(Opts.Seconds * 1e9);
  const int64_t Start = nowNs();
  for (;;) {
    Repeats.push_back(runRepeat(W, In, Steps));
    if (Opts.Quick)
      break;
    int64_t Elapsed = nowNs() - Start;
    int64_t PerRepeat = Elapsed / int64_t(Repeats.size());
    if (Repeats.size() >= MinRepeats && Elapsed + PerRepeat > Budget)
      break;
  }
  const Repeat &First = Repeats.front();

  SpanLog Log;
  CountingObserver Obs(In.Config.NumAccelerators);
  std::unique_ptr<Repeat> Traced;
  if (Opts.Trace)
    Traced = std::make_unique<Repeat>(runRepeat(W, In, Steps, &Log, &Obs));

  // Gates.
  const std::vector<uint64_t> Ref = referenceChecksums(W, In, Steps, First);
  uint64_t Attempted = 0, Failed = 0;
  bool SameFingerprint = true;
  auto Check = [&](const Repeat &R) {
    SameFingerprint &= R.Fingerprint == First.Fingerprint;
    for (size_t I = 0; I != Ref.size(); ++I) {
      ++Attempted;
      Failed += I >= R.Checksums.size() || R.Checksums[I] != Ref[I];
    }
  };
  for (const Repeat &R : Repeats)
    Check(R);
  bool ObserverAgrees = true;
  if (Traced) {
    Check(*Traced);
    const PerfCounters &C = Traced->Counters;
    ObserverAgrees = Obs.Issues == C.dmaTransfers() &&
                     Obs.DescriptorRuns == C.DescriptorsDispatched &&
                     Obs.ParcelSpawns == C.ParcelsSpawned;
    if (!ObserverAgrees)
      std::fprintf(stderr,
                   "omm_bench: observer/counter mismatch: issues %llu/%llu, "
                   "descriptor runs %llu/%llu, parcel spawns %llu/%llu\n",
                   static_cast<unsigned long long>(Obs.Issues),
                   static_cast<unsigned long long>(C.dmaTransfers()),
                   static_cast<unsigned long long>(Obs.DescriptorRuns),
                   static_cast<unsigned long long>(C.DescriptorsDispatched),
                   static_cast<unsigned long long>(Obs.ParcelSpawns),
                   static_cast<unsigned long long>(C.ParcelsSpawned));
  }
  bool Correct = Failed == 0 && SameFingerprint && ObserverAgrees;
  if (Traced && !Opts.TraceOut.empty() && !Log.writeChromeTrace(Opts.TraceOut)) {
    std::fprintf(stderr, "omm_bench: cannot write %s\n", Opts.TraceOut.c_str());
    Correct = false;
  }

  // Host time per frame call: the minimum over repeats, frame by frame.
  std::vector<uint64_t> MinNs = First.StepNs;
  std::vector<uint64_t> RepeatNs;
  int64_t WallNs = 0, CpuNs = 0;
  for (const Repeat &R : Repeats) {
    uint64_t Sum = 0;
    for (size_t I = 0; I != MinNs.size(); ++I) {
      MinNs[I] = std::min(MinNs[I], R.StepNs[I]);
      Sum += R.StepNs[I];
    }
    RepeatNs.push_back(Sum);
    WallNs += R.WallNs;
    CpuNs += R.CpuNs;
  }
  double MinSumNs = 0;
  for (uint64_t Ns : MinNs)
    MinSumNs += double(Ns);

  // Per-frame means divide by frames: tenant frames when serving.
  const double Frames = double(First.FrameCycles.size());
  const PerfCounters &C = First.Counters;
  JsonMetrics Metrics;
  if (!Opts.Trace) {
    Metrics.add("frame_p50_cycles",
                double(percentileCycles(First.FrameCycles, 50.0)), "cycles");
    Metrics.add("frame_p99_cycles",
                double(percentileCycles(First.FrameCycles, 99.0)), "cycles");
    Metrics.add("frames_per_sim_s", Frames * SimHz / double(First.SimCycles),
                "1/s");
    Metrics.add("host_frames_per_s", Frames * 1e9 / MinSumNs, "1/s");
    Metrics.add("setup_s", double(median(SetupNs)) / 1e9, "s");
    Metrics.add("host_rss_mb", peakRssMb(), "MB");
  } else {
    auto PerFrame = [&](uint64_t V) { return double(V) / Frames; };
    auto StatP50 = [&](uint64_t FrameStats::*Field) {
      std::vector<uint64_t> Samples;
      for (const FrameStats &F : First.Frames)
        Samples.push_back(F.*Field);
      return double(median(Samples));
    };
    auto StatMean = [&](uint32_t FrameStats::*Field) {
      uint64_t Sum = 0;
      for (const FrameStats &F : First.Frames)
        Sum += F.*Field;
      return ratio(double(Sum), double(First.Frames.size()));
    };
    std::vector<uint64_t> TickCycles, Ledger;
    uint64_t Admitted = 0, Recycled = 0, Deferred = 0;
    for (const TickStats &T : First.Ticks) {
      TickCycles.push_back(T.TickCycles);
      Ledger.push_back(T.LedgerCycles);
      Admitted += T.Admitted;
      Recycled += T.CoresRecycled;
      Deferred += T.Deferred;
    }
    const double Ticks = double(First.Ticks.size());
    const std::map<std::string, int64_t> Self = Log.selfNsByName();
    auto SelfNs = [&](const char *Name) {
      auto It = Self.find(Name);
      return It == Self.end() ? 0.0 : double(It->second);
    };
    auto SelfUs = [&](const char *Name) { return SelfNs(Name) / 1e3 / Steps; };
    double TracedNs = 0;
    for (uint64_t Ns : Traced->StepNs)
      TracedNs += double(Ns);
    const double UntracedNs = double(median(RepeatNs));

    Metrics.add("sim.dma_transfers", PerFrame(C.dmaTransfers()), "count/frame");
    Metrics.add("sim.dma_bytes", PerFrame(C.dmaBytes()), "B/frame");
    Metrics.add("sim.dma_stall_cycles", PerFrame(C.DmaStallCycles),
                "cycles/frame");
    Metrics.add("sim.dma_queue_full_cycles",
                PerFrame(C.DmaQueueFullStallCycles), "cycles/frame");
    Metrics.add("sim.dma_retries", PerFrame(C.DmaRetries), "count/frame");
    Metrics.add("sim.dma_retry_cycles", PerFrame(C.DmaRetryStallCycles),
                "cycles/frame");
    Metrics.add("sim.compute_cycles", PerFrame(C.ComputeCycles),
                "cycles/frame");
    Metrics.add("offload.descriptors", PerFrame(C.DescriptorsDispatched),
                "count/frame");
    Metrics.add("offload.doorbell_cycles", PerFrame(C.DoorbellCycles),
                "cycles/frame");
    Metrics.add("offload.idle_poll_cycles", PerFrame(C.IdlePollCycles),
                "cycles/frame");
    Metrics.add("offload.steal_attempts", PerFrame(C.StealsAttempted),
                "count/frame");
    Metrics.add("offload.steal_success_ratio",
                ratio(double(C.StealsSucceeded), double(C.StealsAttempted)),
                "ratio");
    Metrics.add("offload.steal_cycles", PerFrame(C.StealCycles),
                "cycles/frame");
    Metrics.add("offload.launches_saved",
                PerFrame(C.DescriptorsDispatched > Obs.Launches
                             ? C.DescriptorsDispatched - Obs.Launches
                             : 0),
                "count/frame");
    Metrics.add("offload.worker_busy_imbalance", Obs.meanImbalance(), "ratio");
    Metrics.add("offload.parcels", PerFrame(C.ParcelsSpawned), "count/frame");
    Metrics.add("offload.peer_doorbell_cycles", PerFrame(C.PeerDoorbellCycles),
                "cycles/frame");
    Metrics.add("offload.join_stall_cycles", PerFrame(C.JoinStallCycles),
                "cycles/frame");
    Metrics.add("offload.stragglers", PerFrame(C.StragglersDetected),
                "count/frame");
    Metrics.add("offload.speculative_redispatches",
                PerFrame(C.SpeculativeRedispatches), "count/frame");
    Metrics.add("offload.failover_chunks", PerFrame(C.FailoverChunks),
                "count/frame");
    Metrics.add("offload.host_fallback_chunks", PerFrame(C.HostFallbackChunks),
                "count/frame");
    Metrics.add("game.ai_cycles_p50", StatP50(&FrameStats::AiCycles), "cycles");
    Metrics.add("game.collision_cycles_p50",
                StatP50(&FrameStats::CollisionCycles), "cycles");
    Metrics.add("game.update_cycles_p50", StatP50(&FrameStats::UpdateCycles),
                "cycles");
    Metrics.add("game.render_cycles_p50", StatP50(&FrameStats::RenderCycles),
                "cycles");
    Metrics.add("game.pairs_tested", StatMean(&FrameStats::PairsTested),
                "count/frame");
    Metrics.add("game.contacts", StatMean(&FrameStats::Contacts),
                "count/frame");
    Metrics.add("server.tick_cycles_p50",
                double(percentileCycles(TickCycles, 50.0)), "cycles");
    Metrics.add("server.tick_cycles_p99",
                double(percentileCycles(TickCycles, 99.0)), "cycles");
    Metrics.add("server.admitted_per_tick", ratio(double(Admitted), Ticks),
                "count/tick");
    Metrics.add("server.cores_recycled", ratio(double(Recycled), Ticks),
                "count/tick");
    Metrics.add("server.ledger_fill",
                ratio(double(median(Ledger)),
                      double(In.Policy.TickBudgetCycles)),
                "ratio");
    Metrics.add("server.deferred_frac",
                ratio(double(Deferred), Ticks * double(In.Tenants.size())),
                "fraction");
    Metrics.add("host.setup_machine_ms", double(median(MachineNs)) / 1e6,
                "ms");
    Metrics.add("host.setup_world_ms", double(median(WorldNs)) / 1e6, "ms");
    Metrics.add("host.frame_us_p50", double(median(MinNs)) / 1e3, "us");
    Metrics.add("host.frame_us_p99",
                double(percentileCycles(MinNs, 99.0)) / 1e3, "us");
    Metrics.add("host.cpu_per_wall", ratio(double(CpuNs), double(WallNs)),
                "ratio");
    Metrics.add("host.snapshot_us", SelfUs("game.snapshot"), "us/frame");
    Metrics.add("host.dispatch_self_us", SelfUs("offload.dispatch"),
                "us/frame");
    Metrics.add("host.ai_body_us", SelfUs("game.ai_chunk"), "us/frame");
    Metrics.add("host.finish_us", SelfUs("game.finish"), "us/frame");
    // Only frame_resident's traced frame isolates the dispatch runtime.
    Metrics.add("host.ns_per_descriptor",
                ratio(SelfNs("offload.dispatch"),
                      double(Traced->Counters.DescriptorsDispatched)),
                "ns/descriptor");
    Metrics.add("host.ns_per_dma_transfer",
                ratio(MinSumNs, double(C.dmaTransfers())), "ns/transfer");
    Metrics.add("trace.events_per_frame", PerFrame(Obs.Events), "count/frame");
    Metrics.add("trace.overhead_frac",
                ratio(TracedNs - UntracedNs, UntracedNs), "fraction");
    Metrics.add("trace.ns_per_event",
                ratio(TracedNs - UntracedNs, double(Obs.Events)), "ns/event");
  }

  char Fingerprint[17];
  std::snprintf(Fingerprint, sizeof(Fingerprint), "%016llx",
                static_cast<unsigned long long>(First.Fingerprint));
  std::string RepeatSeconds;
  for (uint64_t Ns : RepeatNs)
    RepeatSeconds += (RepeatSeconds.empty() ? "" : ",") +
                     trace::jsonNumber(double(Ns) / 1e9);
  std::printf(
      "{\"workload\":%s,\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
      "\"gates\":{\"checks\":%s,\"fingerprint\":%s,\"observer\":%s},"
      "\"fingerprint\":\"%s\",\"seed\":%llu,\"steps\":%u,\"repeats\":%zu,"
      "\"repeat_s\":[%s],"
      "\"build_type\":%s,\"compiler\":%s,\"metrics\":%s}\n",
      trace::jsonQuote(W.Name).c_str(), Correct ? "true" : "false",
      static_cast<unsigned long long>(Attempted),
      static_cast<unsigned long long>(Failed), Failed == 0 ? "true" : "false",
      SameFingerprint ? "true" : "false", ObserverAgrees ? "true" : "false",
      Fingerprint, static_cast<unsigned long long>(Opts.Seed), Steps,
      Repeats.size(), RepeatSeconds.c_str(),
      trace::jsonQuote(OMM_BENCH_BUILD_TYPE).c_str(),
      trace::jsonQuote(__VERSION__).c_str(), Metrics.str().c_str());
  return Correct ? 0 : 1;
}
