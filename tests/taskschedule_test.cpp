//===- tests/taskschedule_test.cpp - Frame task graph tests ----------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "offload/TaskSchedule.h"

#include "sim/FaultInjector.h"

#include <gtest/gtest.h>

using namespace omm;
using namespace omm::offload;
using namespace omm::sim;

namespace {

using Target = TaskSchedule::Target;

} // namespace

TEST(TaskSchedule, SingleHostTaskRuns) {
  Machine M;
  TaskSchedule Schedule;
  int Runs = 0;
  Schedule.addHostTask("tick", [&](Machine &Mach) {
    Mach.hostCompute(1000);
    ++Runs;
  });
  auto Report = Schedule.run(M);
  EXPECT_EQ(Runs, 1);
  EXPECT_GE(Report.MakespanCycles, 1000u);
  EXPECT_EQ(Report.Timings[0].Where, Target::Host);
}

TEST(TaskSchedule, DependenciesOrderExecution) {
  Machine M;
  TaskSchedule Schedule;
  std::vector<int> Order;
  auto A = Schedule.addHostTask("a", [&](Machine &) { Order.push_back(0); });
  auto B = Schedule.addHostTask("b", [&](Machine &) { Order.push_back(1); });
  auto C = Schedule.addHostTask("c", [&](Machine &) { Order.push_back(2); });
  Schedule.addDependency(C, B); // c before b.
  Schedule.addDependency(B, A); // b before a.
  Schedule.run(M);
  EXPECT_EQ(Order, (std::vector<int>{2, 1, 0}));
}

TEST(TaskSchedule, IndependentAccelTasksOverlap) {
  Machine M;
  TaskSchedule Schedule;
  for (int I = 0; I != 4; ++I)
    Schedule.addAccelTask("work" + std::to_string(I),
                          [](OffloadContext &Ctx) { Ctx.compute(50000); });
  auto Report = Schedule.run(M);
  // Four tasks on four accelerators: each launch costs the host 200
  // cycles and the core 1000 more, so the starts step by 200 and the
  // makespan is the last start plus one body.
  const uint64_t ExpectStart[] = {1200, 1400, 1600, 1800};
  for (unsigned I = 0; I != 4; ++I)
    EXPECT_EQ(Report.Timings[I].StartCycle, ExpectStart[I]) << "task " << I;
  EXPECT_EQ(Report.MakespanCycles, 51800u);
  EXPECT_EQ(Report.AccelBusyCycles, 4 * 50000u);
}

TEST(TaskSchedule, LaunchDeathRetriesOnTheNextLiveAccelerator) {
  MachineConfig Cfg;
  Cfg.Faults.Enabled = true;
  Machine M(Cfg);
  M.faults()->scheduleKill(0, 0);
  TaskSchedule Schedule;
  int Runs = 0;
  Schedule.addAccelTask("w", [&](OffloadContext &Ctx) {
    Ctx.compute(1000);
    ++Runs;
  });
  auto Report = Schedule.run(M);
  // The body never ran on the doomed core: the second launch, 200 host
  // cycles later, took accelerator 1.
  EXPECT_EQ(Runs, 1);
  EXPECT_EQ(Report.Timings[0].AccelId, 1u);
  EXPECT_EQ(Report.Timings[0].StartCycle, 1400u);
  EXPECT_EQ(M.hostCounters().LaunchFaults, 1u);
  EXPECT_FALSE(M.accel(0).Alive);
}

TEST(TaskSchedule, Figure2ShapeOverlapsAiWithCollision) {
  // h = __offload{ AI }; collision on host; join; update; render.
  Machine M;
  TaskSchedule Schedule;
  auto Ai = Schedule.addAccelTask(
      "calculateStrategy", [](OffloadContext &Ctx) { Ctx.compute(40000); });
  auto Collision = Schedule.addHostTask(
      "detectCollisions", [](Machine &Mach) { Mach.hostCompute(40000); });
  auto Update = Schedule.addHostTask(
      "updateEntities", [](Machine &Mach) { Mach.hostCompute(10000); });
  auto Render = Schedule.addHostTask(
      "renderFrame", [](Machine &Mach) { Mach.hostCompute(10000); });
  Schedule.addDependency(Ai, Update);
  Schedule.addDependency(Collision, Update);
  Schedule.addDependency(Update, Render);

  auto Report = Schedule.run(M);
  // AI and collision overlap: makespan ~ 40k + 20k + launch overheads,
  // far less than the serial 100k.
  EXPECT_LT(Report.MakespanCycles, 70000u);
  EXPECT_GE(Report.MakespanCycles, 60000u);
  // Update starts only after both predecessors.
  EXPECT_GE(Report.Timings[Update].StartCycle,
            Report.Timings[Ai].FinishCycle);
  EXPECT_GE(Report.Timings[Update].StartCycle,
            Report.Timings[Collision].FinishCycle);
}

TEST(TaskSchedule, FunctionalEffectsRespectDependencies) {
  Machine M;
  GlobalAddr Value = M.allocGlobal(16);
  TaskSchedule Schedule;
  auto Producer = Schedule.addHostTask("produce", [&](Machine &Mach) {
    Mach.hostWrite<uint64_t>(Value, 41);
  });
  auto Transformer =
      Schedule.addAccelTask("transform", [&](OffloadContext &Ctx) {
        Ctx.outerWrite<uint64_t>(Value,
                                 Ctx.outerRead<uint64_t>(Value) + 1);
      });
  auto Consumer = Schedule.addHostTask("consume", [&](Machine &Mach) {
    EXPECT_EQ(Mach.hostRead<uint64_t>(Value), 42u);
  });
  Schedule.addDependency(Producer, Transformer);
  Schedule.addDependency(Transformer, Consumer);
  Schedule.run(M);
}

TEST(TaskSchedule, CriticalPathFollowsLatestDependencies) {
  Machine M;
  TaskSchedule Schedule;
  auto Short = Schedule.addAccelTask(
      "short", [](OffloadContext &Ctx) { Ctx.compute(1000); });
  auto Long = Schedule.addAccelTask(
      "long", [](OffloadContext &Ctx) { Ctx.compute(90000); });
  auto Sink = Schedule.addHostTask("sink", [](Machine &) {});
  Schedule.addDependency(Short, Sink);
  Schedule.addDependency(Long, Sink);
  auto Report = Schedule.run(M);
  ASSERT_EQ(Report.CriticalPath.size(), 2u);
  EXPECT_EQ(Report.CriticalPath[0], Long);
  EXPECT_EQ(Report.CriticalPath[1], Sink);
}

TEST(TaskSchedule, ChainOfAccelTasksSerialisesInSimTime) {
  Machine M;
  TaskSchedule Schedule;
  TaskSchedule::TaskId Prev = Schedule.addAccelTask(
      "stage0", [](OffloadContext &Ctx) { Ctx.compute(10000); });
  for (int I = 1; I != 4; ++I) {
    TaskSchedule::TaskId Next = Schedule.addAccelTask(
        "stage" + std::to_string(I),
        [](OffloadContext &Ctx) { Ctx.compute(10000); });
    Schedule.addDependency(Prev, Next);
    Prev = Next;
  }
  auto Report = Schedule.run(M);
  EXPECT_GE(Report.MakespanCycles, 4 * 10000u);
  for (unsigned I = 1; I != 4; ++I)
    EXPECT_GE(Report.Timings[I].StartCycle,
              Report.Timings[I - 1].FinishCycle);
}

TEST(TaskSchedule, DeterministicAcrossRuns) {
  uint64_t Makespans[2];
  for (int Run = 0; Run != 2; ++Run) {
    Machine M;
    TaskSchedule Schedule;
    auto A = Schedule.addAccelTask(
        "a", [](OffloadContext &Ctx) { Ctx.compute(12345); });
    auto B = Schedule.addHostTask(
        "b", [](Machine &Mach) { Mach.hostCompute(23456); });
    auto C = Schedule.addAccelTask(
        "c", [](OffloadContext &Ctx) { Ctx.compute(3456); });
    Schedule.addDependency(A, C);
    Schedule.addDependency(B, C);
    Makespans[Run] = Schedule.run(M).MakespanCycles;
  }
  EXPECT_EQ(Makespans[0], Makespans[1]);
}

TEST(TaskScheduleDeath, CycleIsFatal) {
  Machine M;
  TaskSchedule Schedule;
  auto A = Schedule.addHostTask("a", [](Machine &) {});
  auto B = Schedule.addHostTask("b", [](Machine &) {});
  Schedule.addDependency(A, B);
  Schedule.addDependency(B, A);
  EXPECT_DEATH(Schedule.run(M), "dependency cycle");
}

TEST(TaskScheduleDeath, NoLiveAcceleratorIsFatal) {
  MachineConfig Cfg;
  Cfg.NumAccelerators = 0;
  Machine M(Cfg);
  TaskSchedule Schedule;
  Schedule.addAccelTask("w", [](OffloadContext &) {});
  EXPECT_DEATH(Schedule.run(M), "no live accelerator for task 'w'");
}

TEST(TaskSchedule, ManyTasksSpreadAcrossAccelerators) {
  Machine M;
  TaskSchedule Schedule;
  for (int I = 0; I != 12; ++I)
    Schedule.addAccelTask("t" + std::to_string(I),
                          [](OffloadContext &Ctx) { Ctx.compute(20000); });
  auto Report = Schedule.run(M);
  std::vector<bool> Used(M.numAccelerators(), false);
  for (const auto &Timing : Report.Timings)
    Used[Timing.AccelId] = true;
  unsigned Count = 0;
  for (bool U : Used)
    Count += U;
  EXPECT_EQ(Count, M.numAccelerators()); // All six cores fed.
  EXPECT_LT(Report.MakespanCycles, 12 * 20000u / 2);
}
