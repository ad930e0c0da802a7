//===- bench/bench_e16_domains.cpp - Experiment E16 -----------------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// E16: hierarchical accelerator domains. The machine's accelerators are
// grouped into NUMA-style domains (MachineConfig::AcceleratorsPerDomain);
// crossing the interconnect costs extra — per-DMA latency for
// remote-domain cores reaching main memory, a doorbell premium for the
// host ringing a remote core, and a descriptor-copy premium whenever a
// parcel or a steal gather crosses domains. StealPolicy::DomainAware
// keeps stealing inside the thief's domain while local victims exist and
// escalates to remote ones only when its domain is dry.
//
// The workload is built to fool range-locality: each frame two hot
// windows jitter around the two domain boundaries (the Count/2 split
// and the wrap at 0), so the range-closest victim of a boundary thief
// routinely sits on the *other* side of the interconnect.
// Range-adjacent is not interconnect-adjacent — that is the whole
// experiment.
//
// Sweeps (policy: 0=None, 1=Rotation, 2=LocalityAware, 3=DomainAware):
//   - penalty x policy: the inter-domain premium scales from free to
//     punitive at fixed skew. DomainAware rows report
//     domain_win_vs_oblivious — p99 of the best domain-oblivious
//     stealing policy (Rotation or LocalityAware, whichever is faster)
//     over DomainAware's p99 — the headline gate (>= 1.1x at the high
//     penalty).
//   - hot_mult x policy: skew sweep at a fixed punitive penalty.
//   - flat identity: AcceleratorsPerDomain == 0 with scrambled premiums,
//     and one domain holding every accelerator, must both reproduce the
//     flat machine cycle-for-cycle. Abort on any divergence.
//   - frame_skew: GameWorld resident frames with a pathological entity
//     mix (a few squad leaders dominating the AI cost) on a two-domain
//     machine — the end-to-end row for domain-aware stealing inside
//     doFrameOffloadAiResident.
//
// Every row is checksum-asserted against host-computed expected values;
// a divergence aborts the benchmark. Domains move cycles, never results.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "game/GameWorld.h"
#include "offload/Offload.h"
#include "offload/ParallelFor.h"
#include "offload/Ptr.h"
#include "sim/FaultInjector.h"
#include "support/Random.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

using namespace omm::bench;
using namespace omm::offload;
using namespace omm::sim;
using omm::splitMix64;

namespace {

constexpr uint32_t Count = 2048; // 256 items per slice on 8 workers.
constexpr uint32_t FramesPerRow = 24;
constexpr uint64_t BaseCost = 100;
constexpr uint32_t HotWindow = Count / 4; // Two slices wide: each
                                          // domain keeps several loaded
                                          // victims alive at once.
constexpr unsigned NumAccels = 8;
constexpr unsigned AccelsPerDomain = 4; // Two domains of four.

uint64_t itemValue(uint32_t I) { return splitMix64(0xE16 ^ I); }

/// Two hot windows per frame, one straddling each domain boundary (the
/// Count/2 split and the wrap at 0), sharing one jitter so each domain
/// always holds exactly half the hot items: neither domain ever needs
/// a net work import, which makes every cross-domain steal pure
/// premium waste. Both domains always hold loaded victims, and a
/// boundary thief's range-closest victim is frequently remote — the
/// placement that separates DomainAware from LocalityAware.
uint64_t itemCost(uint32_t I, uint32_t Frame, uint64_t HotMult) {
  uint32_t Jitter =
      static_cast<uint32_t>(splitMix64(0xB0A7 ^ Frame) % (Count / 8));
  uint32_t Begin0 = (Count / 2 - HotWindow / 2 + Jitter) % Count;
  uint32_t Begin1 = (Count - HotWindow / 2 + Jitter) % Count;
  uint32_t Off0 = (I + Count - Begin0) % Count;
  uint32_t Off1 = (I + Count - Begin1) % Count;
  return Off0 < HotWindow || Off1 < HotWindow ? BaseCost * HotMult : BaseCost;
}

uint64_t expectedChecksum() {
  uint64_t Sum = 0;
  for (uint32_t I = 0; I != Count; ++I)
    Sum = splitMix64(Sum ^ itemValue(I));
  return Sum;
}

struct RunOut {
  uint64_t TotalCycles = 0;
  std::vector<uint64_t> FrameCycles;
  uint64_t Checksum = 0;
  /// Every frame's region counters, merged.
  PerfCounters Counters;
};

StealPolicy policyFromArg(int64_t Arg) {
  switch (Arg) {
  case 1:
    return StealPolicy::Rotation;
  case 2:
    return StealPolicy::LocalityAware;
  case 3:
    return StealPolicy::DomainAware;
  default:
    return StealPolicy::None;
  }
}

/// The two-domain machine. \p Penalty is the descriptor-copy premium;
/// doorbells and per-DMA latency scale down from it so one knob sweeps
/// the whole interconnect from free to punitive.
MachineConfig domainConfig(StealPolicy Policy, uint64_t Penalty,
                           unsigned PerDomain = AccelsPerDomain) {
  MachineConfig Cfg = MachineConfig::cellLike();
  Cfg.NumAccelerators = NumAccels;
  Cfg.WorkStealing = Policy;
  Cfg.AcceleratorsPerDomain = PerDomain;
  Cfg.InterDomainDescriptorDmaCycles = Penalty;
  Cfg.InterDomainDoorbellCycles = Penalty / 4;
  // The per-DMA main-memory premium stays off in the policy sweeps:
  // main memory lives in domain 0, so a nonzero value makes domain 1
  // wholesale slower at *everything* and the measurement becomes "how
  // fast can stealing evacuate domain 1" — a residency question, not a
  // victim-choice one. The premium's accounting is covered by the unit
  // tests; here the swept interconnect cost is the control traffic.
  Cfg.InterDomainDmaLatencyCycles = 0;
  // Fine steal granularity: a slice is eight sub-descriptors, so a hot
  // victim stays above StealMinBacklog long enough for same-domain
  // thieves to find it.
  Cfg.StealSliceChunks = 8;
  // Escalate across the interconnect only for a deep haul (half of
  // eight sub-descriptors = a whole slice's worth of work), sized so a
  // remote gather is still profitable at the punitive end of the
  // penalty sweep.
  Cfg.StealRemoteMinBacklog = 8;
  return Cfg;
}

uint64_t readChecksum(Machine &M, OuterPtr<uint64_t> Data) {
  uint64_t Sum = 0;
  for (uint32_t I = 0; I != Count; ++I)
    Sum = splitMix64(Sum ^
                     M.mainMemory().readValue<uint64_t>((Data + I).addr()));
  return Sum;
}

/// FramesPerRow parallel-for frames over the same range.
RunOut runFrames(const MachineConfig &Cfg, uint64_t HotMult) {
  Machine M(Cfg);
  OuterPtr<uint64_t> Data = allocOuterArray<uint64_t>(M, Count);
  RunOut Run;
  Run.FrameCycles.reserve(FramesPerRow);
  for (uint32_t F = 0; F != FramesPerRow; ++F) {
    uint64_t Begin = M.globalTime();
    RegionStats S = parallelForRange(
        M, Count, [&](auto &Ctx, uint32_t B, uint32_t E) {
          for (uint32_t I = B; I != E; ++I) {
            Ctx.compute(itemCost(I, F, HotMult));
            Ctx.outerWrite((Data + I).addr(), itemValue(I));
          }
        });
    uint64_t Cycles = M.globalTime() - Begin;
    Run.FrameCycles.push_back(Cycles);
    Run.TotalCycles += Cycles;
    Run.Counters.merge(S.Counters);
  }
  Run.Checksum = readChecksum(M, Data);
  return Run;
}

void requireBitIdentical(const RunOut &Run, const char *Sweep, int64_t Arg) {
  if (Run.Checksum == expectedChecksum())
    return;
  std::fprintf(stderr,
               "FATAL: %s arg %lld: output diverged from the host-computed "
               "values (%llx != %llx)\n",
               Sweep, static_cast<long long>(Arg),
               static_cast<unsigned long long>(Run.Checksum),
               static_cast<unsigned long long>(expectedChecksum()));
  std::abort();
}

void reportStealCounters(benchmark::State &State, const RunOut &Run) {
  State.counters["steals_attempted"] =
      static_cast<double>(Run.Counters.StealsAttempted);
  State.counters["steals_succeeded"] =
      static_cast<double>(Run.Counters.StealsSucceeded);
  State.counters["steals_remote_domain"] =
      static_cast<double>(Run.Counters.StealsRemoteDomain);
  State.counters["descriptors_stolen"] =
      static_cast<double>(Run.Counters.DescriptorsStolen);
  State.counters["steal_cycles"] =
      static_cast<double>(Run.Counters.StealCycles);
}

/// The headline counter: p99 of the best *domain-oblivious* stealing
/// policy over DomainAware's p99, at identical machine and workload.
void reportDomainWin(benchmark::State &State, const RunOut &Run,
                     uint64_t Penalty, uint64_t HotMult) {
  RunOut Rot = runFrames(domainConfig(StealPolicy::Rotation, Penalty),
                         HotMult);
  requireBitIdentical(Rot, "domain_win_rotation", State.range(0));
  RunOut Loc = runFrames(domainConfig(StealPolicy::LocalityAware, Penalty),
                         HotMult);
  requireBitIdentical(Loc, "domain_win_locality", State.range(0));
  uint64_t Oblivious = std::min(cyclePercentile(Rot.FrameCycles, 99.0),
                                cyclePercentile(Loc.FrameCycles, 99.0));
  State.counters["domain_win_vs_oblivious"] =
      static_cast<double>(Oblivious) /
      static_cast<double>(cyclePercentile(Run.FrameCycles, 99.0));
}

void reportP99Win(benchmark::State &State, const RunOut &None,
                  const RunOut &Run) {
  State.counters["p99_win_vs_none"] =
      static_cast<double>(cyclePercentile(None.FrameCycles, 99.0)) /
      static_cast<double>(cyclePercentile(Run.FrameCycles, 99.0));
}

void BM_DomainPenalty(benchmark::State &State) {
  uint64_t Penalty = static_cast<uint64_t>(State.range(0));
  StealPolicy Policy = policyFromArg(State.range(1));
  constexpr uint64_t HotMult = 16;
  for (auto _ : State) {
    RunOut Run = runFrames(domainConfig(Policy, Penalty), HotMult);
    requireBitIdentical(Run, "domain_penalty", State.range(0));
    reportSimCycles(State, Run.TotalCycles);
    reportCyclePercentiles(State, Run.FrameCycles);
    reportChecksum(State, Run.Checksum);
    reportStealCounters(State, Run);
    if (Policy != StealPolicy::None) {
      RunOut None = runFrames(domainConfig(StealPolicy::None, Penalty),
                              HotMult);
      requireBitIdentical(None, "domain_penalty_none", State.range(0));
      reportP99Win(State, None, Run);
    }
    if (Policy == StealPolicy::DomainAware)
      reportDomainWin(State, Run, Penalty, HotMult);
  }
}

void BM_DomainSkew(benchmark::State &State) {
  uint64_t HotMult = static_cast<uint64_t>(State.range(0));
  StealPolicy Policy = policyFromArg(State.range(1));
  constexpr uint64_t Penalty = 128000;
  for (auto _ : State) {
    RunOut Run = runFrames(domainConfig(Policy, Penalty), HotMult);
    requireBitIdentical(Run, "domain_skew", State.range(0));
    reportSimCycles(State, Run.TotalCycles);
    reportCyclePercentiles(State, Run.FrameCycles);
    reportChecksum(State, Run.Checksum);
    reportStealCounters(State, Run);
    if (Policy == StealPolicy::DomainAware)
      reportDomainWin(State, Run, Penalty, HotMult);
  }
}

/// The determinism contract, asserted end to end: a flat machine
/// (AcceleratorsPerDomain == 0) with scrambled premiums, and a machine
/// whose single domain holds every accelerator, must both reproduce the
/// premium-free flat run cycle for cycle, whatever the steal policy.
void BM_FlatIdentity(benchmark::State &State) {
  StealPolicy Policy = policyFromArg(State.range(0));
  constexpr uint64_t HotMult = 16;
  for (auto _ : State) {
    RunOut Flat = runFrames(domainConfig(Policy, 0, /*PerDomain=*/0),
                            HotMult);
    requireBitIdentical(Flat, "flat_identity", State.range(0));
    RunOut Scrambled =
        runFrames(domainConfig(Policy, 32000, /*PerDomain=*/0), HotMult);
    RunOut OneDomain =
        runFrames(domainConfig(Policy, 32000, /*PerDomain=*/NumAccels),
                  HotMult);
    if (Scrambled.TotalCycles != Flat.TotalCycles ||
        OneDomain.TotalCycles != Flat.TotalCycles ||
        Scrambled.Checksum != Flat.Checksum ||
        OneDomain.Checksum != Flat.Checksum) {
      std::fprintf(stderr,
                   "FATAL: flat_identity policy %lld: degenerate domain "
                   "configs diverged from the flat machine "
                   "(%llu / %llu vs %llu cycles)\n",
                   static_cast<long long>(State.range(0)),
                   static_cast<unsigned long long>(Scrambled.TotalCycles),
                   static_cast<unsigned long long>(OneDomain.TotalCycles),
                   static_cast<unsigned long long>(Flat.TotalCycles));
      std::abort();
    }
    reportSimCycles(State, Flat.TotalCycles);
    reportCyclePercentiles(State, Flat.FrameCycles);
    reportChecksum(State, Flat.Checksum);
    State.counters["flat_identity"] = 1.0;
  }
}

/// GameWorld resident frames with a pathological entity mix: a handful
/// of squad leaders cost path_mult times the crowd's AI decision.
/// World state is bit-identical across policies (asserted); the cycles
/// are not — that is the stealing win, end to end.
void BM_FrameSkew(benchmark::State &State) {
  uint64_t PathMult = static_cast<uint64_t>(State.range(0));
  StealPolicy Policy = policyFromArg(State.range(1));
  // Punitive interconnect: the host-paced queue rings a remote doorbell
  // per descriptor, the bulk placement once per worker — the premium is
  // what separates them end to end.
  constexpr uint64_t Penalty = 128000;
  constexpr uint32_t FrameCount = 12;

  struct WorldOut {
    uint64_t Total = 0;
    uint64_t Checksum = 0;
    uint64_t Steals = 0;
    uint64_t Descriptors = 0;
    std::vector<uint64_t> Frames;
  };
  auto RunWorld = [&](StealPolicy P) {
    Machine M(domainConfig(P, Penalty));
    omm::game::GameWorldParams WP;
    WP.PathologicalAiEntities = WP.NumEntities / 16;
    WP.PathologicalAiCostMult = PathMult;
    // Fine AI chunks put the dispatch style itself on the critical
    // path: the host-paced queue rings a doorbell per descriptor —
    // half of them across the interconnect — while the stealing
    // schedule's bulk placement rings one per worker and rebalances
    // accelerator-side.
    WP.AiChunkElems = 4;
    omm::game::GameWorld W(M, WP);
    WorldOut Out;
    PerfCounters Before = M.totalCounters();
    for (uint32_t F = 0; F != FrameCount; ++F) {
      omm::game::FrameStats FS = W.doFrameOffloadAiResident();
      Out.Total += FS.FrameCycles;
      Out.Frames.push_back(FS.FrameCycles);
    }
    PerfCounters Delta = M.countersSince(Before);
    Out.Steals = Delta.StealsSucceeded;
    Out.Descriptors = Delta.DescriptorsDispatched;
    Out.Checksum = W.checksum();
    return Out;
  };

  for (auto _ : State) {
    WorldOut Run = RunWorld(Policy);
    WorldOut None = RunWorld(StealPolicy::None);
    if (Run.Checksum != None.Checksum) {
      std::fprintf(stderr,
                   "FATAL: frame_skew path_mult %lld: world state diverged "
                   "across steal policies (%llx != %llx)\n",
                   static_cast<long long>(State.range(0)),
                   static_cast<unsigned long long>(Run.Checksum),
                   static_cast<unsigned long long>(None.Checksum));
      std::abort();
    }
    reportSimCycles(State, Run.Total);
    reportCyclePercentiles(State, Run.Frames);
    reportChecksum(State, Run.Checksum);
    State.counters["ai_steals"] = static_cast<double>(Run.Steals);
    State.counters["ai_descriptors"] = static_cast<double>(Run.Descriptors);
    State.counters["ai_descriptors_none"] =
        static_cast<double>(None.Descriptors);
    State.counters["total_win_vs_none"] =
        static_cast<double>(None.Total) / static_cast<double>(Run.Total);
  }
}

} // namespace

BENCHMARK(BM_DomainPenalty)
    ->ArgNames({"penalty", "policy"})
    ->Args({0, 0})
    ->Args({0, 2})
    ->Args({0, 3})
    ->Args({8000, 0})
    ->Args({8000, 2})
    ->Args({8000, 3})
    ->Args({32000, 0})
    ->Args({32000, 2})
    ->Args({32000, 3})
    ->Args({128000, 0})
    ->Args({128000, 1})
    ->Args({128000, 2})
    ->Args({128000, 3})
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });

BENCHMARK(BM_DomainSkew)
    ->ArgNames({"hot_mult", "policy"})
    ->Args({1, 3})
    ->Args({8, 3})
    ->Args({16, 2})
    ->Args({16, 3})
    ->Args({32, 3})
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });

BENCHMARK(BM_FlatIdentity)
    ->ArgName("policy")
    ->DenseRange(0, 3, 1)
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });

BENCHMARK(BM_FrameSkew)
    ->ArgNames({"path_mult", "policy"})
    ->Args({1, 3})
    ->Args({16, 3})
    ->Args({64, 0})
    ->Args({64, 3})
    ->Apply([](benchmark::internal::Benchmark *B) { simBench(B); });
