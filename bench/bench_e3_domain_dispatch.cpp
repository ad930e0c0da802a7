//===- bench/bench_e3_domain_dispatch.cpp - Experiment E3 -----------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// E3 (Figure 3, Section 4.1): virtual dispatch from an accelerator via
// the outer/inner domain structure. Dispatch = vtable resolution (one or
// two inter-memory-space reads) + linear outer-domain scan + inner-domain
// signature match. This bench regenerates:
//   - cost per call as the annotation count (outer-domain size) grows
//     1 -> 128, explaining why 100+-method domains hurt;
//   - the gap between dispatching on outer objects (two dependent
//     transfers) and on prefetched local objects (header read is local);
//   - the host's ordinary virtual call as the reference;
//   - the one-off cost of the on-demand code-loading elaboration.
//
// Expected shape: accel dispatch cost grows linearly with domain size;
// outer-object dispatch costs ~2x a DMA round trip more than
// local-object dispatch; host dispatch is orders cheaper than both.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "domains/Domain.h"
#include "offload/Offload.h"

#include <memory>
#include <vector>

using namespace omm;
using namespace omm::bench;
using namespace omm::domains;
using namespace omm::sim;

namespace {

/// A synthetic hierarchy: one class with NumMethods virtual slots, every
/// slot annotated in the domain. Objects carry an 8-byte payload.
struct Harness {
  explicit Harness(unsigned NumMethods)
      : M(MachineConfig::cellLike()), Dom(nullptr) {
    Class = Registry.createClass(NumMethods);
    Methods.reserve(NumMethods);
    for (unsigned I = 0; I != NumMethods; ++I) {
      MethodId Method =
          Registry.createMethod("Probe::m" + std::to_string(I));
      Methods.push_back(Method);
      Registry.setSlot(Class, I, Method);
      Registry.setHostImpl(Method,
                           [](Machine &, GlobalAddr, uint64_t) {});
    }
    Registry.materialize(M);

    Domain = std::make_unique<OffloadDomain>(Registry);
    auto Noop = [](offload::OffloadContext &, DispatchTarget, uint64_t) {};
    for (MethodId Method : Methods) {
      Domain->addDuplicate(Method, DuplicateId::thisLocal(), Noop);
      Domain->addDuplicate(Method, DuplicateId::thisOuter(), Noop);
    }

    Obj = M.allocGlobal(ClassRegistry::objectSize(8));
    Registry.initObject(M, Obj, Class);
  }

  Machine M;
  ClassRegistry Registry;
  ClassId Class = 0;
  std::vector<MethodId> Methods;
  std::unique_ptr<OffloadDomain> Domain;
  GlobalAddr Obj;
  OffloadDomain *Dom;
};

constexpr unsigned CallsPerRun = 256;

void BM_AccelDispatchOuterObject(benchmark::State &State) {
  unsigned NumMethods = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    Harness H(NumMethods);
    uint64_t Cycles = 0;
    offload::offloadSync(H.M, [&](offload::OffloadContext &Ctx) {
      uint64_t Start = Ctx.clock().now();
      for (unsigned I = 0; I != CallsPerRun; ++I) {
        // Round-robin over slots; the scan cost averages N/2.
        bool Ok = H.Domain->callOnOuterObject(Ctx, H.Obj,
                                              I % NumMethods, 0);
        benchmark::DoNotOptimize(Ok);
      }
      Cycles = Ctx.clock().now() - Start;
    });
    reportSimCycles(State, Cycles);
    State.counters["cycles_per_call"] =
        static_cast<double>(Cycles) / CallsPerRun;
    State.counters["outer_scan_steps"] =
        static_cast<double>(H.Domain->stats().OuterScanSteps) /
        CallsPerRun;
  }
}

void BM_AccelDispatchLocalObject(benchmark::State &State) {
  unsigned NumMethods = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    Harness H(NumMethods);
    uint64_t Cycles = 0;
    offload::offloadSync(H.M, [&](offload::OffloadContext &Ctx) {
      // Prefetch the object into local store once (uniform-type batch
      // style), then dispatch against the local copy.
      LocalAddr Local = Ctx.localAlloc(16);
      Ctx.dmaGet(Local, H.Obj, 16, 0);
      Ctx.dmaWait(0);
      uint64_t Start = Ctx.clock().now();
      for (unsigned I = 0; I != CallsPerRun; ++I) {
        bool Ok = H.Domain->callOnLocalObject(Ctx, Local,
                                              I % NumMethods, 0);
        benchmark::DoNotOptimize(Ok);
      }
      Cycles = Ctx.clock().now() - Start;
    });
    reportSimCycles(State, Cycles);
    State.counters["cycles_per_call"] =
        static_cast<double>(Cycles) / CallsPerRun;
  }
}

void BM_AccelDispatchLocalObjectMemo(benchmark::State &State) {
  // The production refinement: memoise (vtable, slot) resolutions so
  // uniform batches pay one vtable round trip per class per block.
  unsigned NumMethods = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    Harness H(NumMethods);
    H.Domain->setVtableMemo(true);
    uint64_t Cycles = 0;
    offload::offloadSync(H.M, [&](offload::OffloadContext &Ctx) {
      LocalAddr Local = Ctx.localAlloc(16);
      Ctx.dmaGet(Local, H.Obj, 16, 0);
      Ctx.dmaWait(0);
      uint64_t Start = Ctx.clock().now();
      for (unsigned I = 0; I != CallsPerRun; ++I) {
        bool Ok = H.Domain->callOnLocalObject(Ctx, Local,
                                              I % NumMethods, 0);
        benchmark::DoNotOptimize(Ok);
      }
      Cycles = Ctx.clock().now() - Start;
    });
    reportSimCycles(State, Cycles);
    State.counters["cycles_per_call"] =
        static_cast<double>(Cycles) / CallsPerRun;
  }
}

void BM_HostDispatch(benchmark::State &State) {
  unsigned NumMethods = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    Harness H(NumMethods);
    uint64_t Start = H.M.hostClock().now();
    for (unsigned I = 0; I != CallsPerRun; ++I)
      H.Registry.callVirtualHost(H.M, H.Obj, I % NumMethods, 0);
    uint64_t Cycles = H.M.hostClock().now() - Start;
    reportSimCycles(State, Cycles);
    State.counters["cycles_per_call"] =
        static_cast<double>(Cycles) / CallsPerRun;
  }
}

void BM_OnDemandCodeLoading(benchmark::State &State) {
  // The paper's suggested elaboration: a miss triggers a code upload,
  // after which dispatch proceeds at normal cost.
  for (auto _ : State) {
    Harness H(16);
    // Fresh domain with nothing annotated; everything loads on demand.
    OffloadDomain Lazy(H.Registry);
    Lazy.setOnDemandLoader([](MethodId, DuplicateId) -> LocalMethod {
      return [](offload::OffloadContext &, DispatchTarget, uint64_t) {};
    });
    uint64_t Cycles = 0;
    offload::offloadSync(H.M, [&](offload::OffloadContext &Ctx) {
      uint64_t Start = Ctx.clock().now();
      for (unsigned I = 0; I != CallsPerRun; ++I) {
        bool Ok = Lazy.callOnOuterObject(Ctx, H.Obj, I % 16, 0);
        benchmark::DoNotOptimize(Ok);
      }
      Cycles = Ctx.clock().now() - Start;
    });
    reportSimCycles(State, Cycles);
    State.counters["on_demand_loads"] =
        static_cast<double>(Lazy.stats().OnDemandLoads);
    State.counters["cycles_per_call"] =
        static_cast<double>(Cycles) / CallsPerRun;
  }
}

void registerSweep(const char *Name, void (*Fn)(benchmark::State &)) {
  for (unsigned Size : {1u, 10u, 40u, 110u, 128u})
    simBench(benchmark::RegisterBenchmark(
                 (std::string(Name) + "/annotations:" +
                  std::to_string(Size))
                     .c_str(),
                 Fn)
                 ->Arg(Size));
}

[[maybe_unused]] const int Registered = [] {
  registerSweep("BM_AccelDispatchOuterObject",
                BM_AccelDispatchOuterObject);
  registerSweep("BM_AccelDispatchLocalObject",
                BM_AccelDispatchLocalObject);
  registerSweep("BM_AccelDispatchLocalObjectMemo",
                BM_AccelDispatchLocalObjectMemo);
  registerSweep("BM_HostDispatch", BM_HostDispatch);
  simBench(benchmark::RegisterBenchmark("BM_OnDemandCodeLoading",
                                        BM_OnDemandCodeLoading));
  return 0;
}();

} // namespace
