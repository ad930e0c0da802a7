//===- bench/bench_e15_multi_tenant.cpp - Experiment E15 ------------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// E15: multi-tenant serving with admission control and per-tenant fault
// isolation. A production deployment multiplexes many game sessions
// over one machine; this experiment measures what that sharing costs
// and what the robustness layers buy:
//
//   - tenants x mode: the capacity curve. N heavy-tailed tenants served
//     round-robin vs cross-tenant batched; batched rows also run the
//     round-robin reference and report batch_win (round-robin cycles /
//     batched cycles) after asserting the two modes computed identical
//     per-tenant state. tail_ratio (p99/p50 over every served frame)
//     shows the heavy tail.
//   - fault_kind: isolation. A hang or an 8x straggler is injected
//     into the largest tenant's slices; every row asserts all tenants'
//     checksums stay bit-identical to the fault-free run and reports
//     p99_unaffected_ratio — the other tenants' pooled p99 over the
//     fault-free run's. CI gates this at <= 1.05: one tenant's fault
//     must not move its neighbours' tail.
//   - budget_pct: admission control. The per-tick cycle ledger is set
//     to a percentage of the unconstrained ledger; rows report frames
//     deferred and the served-frame tail, and assert the constrained
//     schedule replays bit-identically.
//
// Every row is checksum-asserted; a divergence aborts. The per-tenant
// chunk deadline is self-calibrated exactly as E11's: doubled until a
// fault-free armed serving run detects nothing and costs the same
// cycles as the unarmed run.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "server/TenantServer.h"
#include "sim/FaultInjector.h"
#include "sim/Machine.h"

#include <cstdio>
#include <cstdlib>
#include <vector>

using namespace omm::bench;
using namespace omm::server;
using namespace omm::sim;

namespace {

constexpr uint32_t BaseEntities = 96;
constexpr uint64_t PopulationSeed = 0xE15E15;
constexpr uint32_t TicksPerRow = 12;
constexpr unsigned IsolationTenants = 6;
constexpr unsigned FaultyAccel = 1;

/// The isolation sweep faults the LARGEST tenant: its chunks are the
/// longest, so a fixed slowdown factor is guaranteed to cross the
/// calibrated deadline, and it is the worst case for neighbours.
unsigned faultyTenant() {
  static unsigned Whale = [] {
    std::vector<TenantParams> Population = makeHeavyTailedTenants(
        IsolationTenants, PopulationSeed, BaseEntities, 0);
    unsigned Biggest = 0;
    for (unsigned T = 1; T != Population.size(); ++T)
      if (Population[T].World.NumEntities >
          Population[Biggest].World.NumEntities)
        Biggest = T;
    return Biggest;
  }();
  return Whale;
}

/// Everything one row of the sweep needs from a serving run.
struct ServeOut {
  uint64_t TotalCycles = 0;          ///< Host cycles for the whole run.
  std::vector<uint64_t> AllFrames;   ///< Every tenant's served frames.
  std::vector<uint64_t> Checksums;   ///< Per-tenant final state.
  std::vector<std::vector<uint64_t>> TenantFrames;
  uint64_t Deferred = 0;
  uint64_t Hangs = 0;
  uint64_t Stragglers = 0;
  uint64_t Recycled = 0;
};

/// 0 = no fault, 1 = hang, 2 = 8x straggler, injected into the largest
/// tenant's slice on every fourth tick.
ServeOut runServed(unsigned NumTenants, const TenantServerParams &Policy,
                   uint64_t TenantDeadline, int FaultKind,
                   bool EnableFaults) {
  MachineConfig Cfg = MachineConfig::cellLike();
  if (EnableFaults)
    Cfg.Faults.Enabled = true;
  Machine M(Cfg);
  TenantServer Server(M, Policy);
  for (const TenantParams &T : makeHeavyTailedTenants(
           NumTenants, PopulationSeed, BaseEntities, TenantDeadline))
    Server.addTenant(T);

  ServeOut Out;
  for (uint32_t Tick = 0; Tick != TicksPerRow; ++Tick) {
    if (FaultKind != 0 && Tick % 4 == 2) {
      if (FaultKind == 1)
        Server.scheduleTenantHang(faultyTenant(), FaultyAccel);
      else
        Server.scheduleTenantStraggler(faultyTenant(), FaultyAccel, 8.0f);
    }
    TickStats TS = Server.serveTick();
    Out.Deferred += TS.Deferred;
    Out.Recycled += TS.CoresRecycled;
  }
  Out.TotalCycles = M.hostClock().now();
  for (unsigned T = 0; T != NumTenants; ++T) {
    const TenantStats &Stats = Server.stats(T);
    Out.Checksums.push_back(Server.checksum(T));
    Out.TenantFrames.push_back(Stats.FrameCycles);
    Out.AllFrames.insert(Out.AllFrames.end(), Stats.FrameCycles.begin(),
                         Stats.FrameCycles.end());
    Out.Hangs += Stats.Counters.HangsDetected;
    Out.Stragglers += Stats.Counters.StragglersDetected;
  }
  return Out;
}

TenantServerParams roundRobinPolicy() { return TenantServerParams(); }

TenantServerParams batchedPolicy() {
  TenantServerParams P;
  P.Mode = ServeMode::Batched;
  return P;
}

/// Smallest power-of-two-scaled per-tenant deadline at which an armed
/// serving run is invisible on the fault-free isolation population.
uint64_t calibratedTenantDeadline() {
  static uint64_t Deadline = [] {
    ServeOut Unarmed =
        runServed(IsolationTenants, roundRobinPolicy(), 0, 0, false);
    for (uint64_t D = 512;; D *= 2) {
      ServeOut Armed =
          runServed(IsolationTenants, roundRobinPolicy(), D, 0, false);
      if (Armed.Hangs == 0 && Armed.Stragglers == 0 &&
          Armed.TotalCycles == Unarmed.TotalCycles)
        return D;
      if (D > (uint64_t(1) << 40)) {
        std::fprintf(stderr,
                     "FATAL: tenant-deadline calibration diverged\n");
        std::abort();
      }
    }
  }();
  return Deadline;
}

void requireSameState(const ServeOut &Run, const ServeOut &Reference,
                      const char *Sweep, int64_t Arg) {
  if (Run.Checksums == Reference.Checksums)
    return;
  std::fprintf(stderr,
               "FATAL: %s arg %lld: tenant state diverged from the "
               "reference run\n",
               Sweep, static_cast<long long>(Arg));
  std::abort();
}

uint64_t foldChecksums(const ServeOut &Run) {
  uint64_t Folded = 0;
  for (uint64_t C : Run.Checksums)
    Folded ^= C;
  return Folded;
}

/// Pooled p99 over every tenant's served frames except \p Excluded.
uint64_t unaffectedP99(const ServeOut &Run, unsigned Excluded) {
  std::vector<uint64_t> Pool;
  for (unsigned T = 0; T != Run.TenantFrames.size(); ++T)
    if (T != Excluded)
      Pool.insert(Pool.end(), Run.TenantFrames[T].begin(),
                  Run.TenantFrames[T].end());
  return cyclePercentile(Pool, 99.0);
}

void BM_TenantCapacity(benchmark::State &State) {
  unsigned NumTenants = static_cast<unsigned>(State.range(0));
  bool Batched = State.range(1) != 0;
  for (auto _ : State) {
    ServeOut RoundRobin =
        runServed(NumTenants, roundRobinPolicy(), 0, 0, false);
    ServeOut Run = Batched
                       ? runServed(NumTenants, batchedPolicy(), 0, 0, false)
                       : RoundRobin;
    // Batching reorders dispatch, never results: both modes must
    // compute every tenant's world bit-identically.
    requireSameState(Run, RoundRobin, "tenant_capacity", State.range(0));
    reportSimCycles(State, Run.TotalCycles);
    reportCyclePercentiles(State, Run.AllFrames);
    reportChecksum(State, foldChecksums(Run));
    State.counters["frames_served"] =
        static_cast<double>(Run.AllFrames.size());
    State.counters["cycles_per_frame"] =
        static_cast<double>(Run.TotalCycles) /
        static_cast<double>(Run.AllFrames.size());
    State.counters["tail_ratio"] =
        static_cast<double>(cyclePercentile(Run.AllFrames, 99.0)) /
        static_cast<double>(cyclePercentile(Run.AllFrames, 50.0));
    if (Batched)
      State.counters["batch_win"] =
          static_cast<double>(RoundRobin.TotalCycles) /
          static_cast<double>(Run.TotalCycles);
  }
}

void BM_FaultIsolation(benchmark::State &State) {
  int FaultKind = static_cast<int>(State.range(0));
  uint64_t Deadline = calibratedTenantDeadline();
  TenantServerParams Policy = roundRobinPolicy();
  for (auto _ : State) {
    ServeOut Clean =
        runServed(IsolationTenants, Policy, Deadline, 0, false);
    ServeOut Run =
        runServed(IsolationTenants, Policy, Deadline, FaultKind, true);
    // The whole point: a hang or straggler in one tenant never changes
    // ANY tenant's state — recovery is time-only.
    requireSameState(Run, Clean, "fault_isolation", State.range(0));
    reportSimCycles(State, Run.TotalCycles);
    reportCyclePercentiles(State, Run.AllFrames);
    reportChecksum(State, foldChecksums(Run));
    double Ratio =
        static_cast<double>(unaffectedP99(Run, faultyTenant())) /
        static_cast<double>(unaffectedP99(Clean, faultyTenant()));
    State.counters["p99_unaffected_ratio"] = Ratio;
    State.counters["p99_victim_ratio"] =
        static_cast<double>(
            cyclePercentile(Run.TenantFrames[faultyTenant()], 99.0)) /
        static_cast<double>(
            cyclePercentile(Clean.TenantFrames[faultyTenant()], 99.0));
    State.counters["hangs"] = static_cast<double>(Run.Hangs);
    State.counters["stragglers"] = static_cast<double>(Run.Stragglers);
    State.counters["cores_recycled"] = static_cast<double>(Run.Recycled);
    if (FaultKind != 0 && Ratio > 1.05) {
      // Mirrors the CI gate so a local run fails as loudly.
      std::fprintf(stderr,
                   "FATAL: fault_isolation arg %lld: unaffected tenants' "
                   "p99 moved %.3fx (> 1.05) under a one-tenant fault\n",
                   static_cast<long long>(State.range(0)), Ratio);
      std::abort();
    }
  }
}

void BM_AdmissionBudget(benchmark::State &State) {
  uint64_t Pct = static_cast<uint64_t>(State.range(0));
  // The 100% reference: the steady-state ledger cost of admitting
  // everyone (the last unconstrained tick, when every estimate is a
  // real measured frame).
  MachineConfig Cfg = MachineConfig::cellLike();
  Machine RefM(Cfg);
  TenantServer RefServer(RefM, roundRobinPolicy());
  for (const TenantParams &T : makeHeavyTailedTenants(
           IsolationTenants, PopulationSeed, BaseEntities, 0))
    RefServer.addTenant(T);
  uint64_t FullLedger = 0;
  for (uint32_t Tick = 0; Tick != 4; ++Tick)
    FullLedger = RefServer.serveTick().LedgerCycles;

  TenantServerParams Policy = roundRobinPolicy();
  Policy.TickBudgetCycles = Pct == 0 ? 0 : FullLedger * Pct / 100;
  for (auto _ : State) {
    ServeOut Run =
        runServed(IsolationTenants, Policy, 0, 0, false);
    ServeOut Again =
        runServed(IsolationTenants, Policy, 0, 0, false);
    // Deferral changes how many frames each tenant ran, so there is no
    // unconstrained state to match — but the constrained schedule must
    // replay bit-identically.
    requireSameState(Run, Again, "admission_budget", State.range(0));
    if (Run.AllFrames != Again.AllFrames) {
      std::fprintf(stderr,
                   "FATAL: admission_budget arg %llu: constrained "
                   "schedule is not reproducible\n",
                   static_cast<unsigned long long>(Pct));
      std::abort();
    }
    reportSimCycles(State, Run.TotalCycles);
    reportCyclePercentiles(State, Run.AllFrames);
    reportChecksum(State, foldChecksums(Run));
    State.counters["frames_served"] =
        static_cast<double>(Run.AllFrames.size());
    State.counters["frames_deferred"] = static_cast<double>(Run.Deferred);
  }
}

} // namespace

BENCHMARK(BM_TenantCapacity)
    ->ArgNames({"tenants", "batched"})
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({16, 0})
    ->Args({16, 1})
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });

BENCHMARK(BM_FaultIsolation)
    ->ArgName("fault_kind")
    ->Arg(0)->Arg(1)->Arg(2)
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });

BENCHMARK(BM_AdmissionBudget)
    ->ArgName("budget_pct")
    ->Arg(0)->Arg(100)->Arg(60)->Arg(30)
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });
