//===- offload/TaskSchedule.cpp - Frame task scheduling --------------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "offload/TaskSchedule.h"

#include "support/Diag.h"

#include <algorithm>
#include <cassert>

using namespace omm;
using namespace omm::offload;
using namespace omm::sim;

TaskSchedule::TaskId
TaskSchedule::addHostTask(std::string Name,
                          std::function<void(Machine &)> Body) {
  TaskInfo Info;
  Info.Name = std::move(Name);
  Info.Where = Target::Host;
  Info.HostBody = std::move(Body);
  Tasks.push_back(std::move(Info));
  return static_cast<TaskId>(Tasks.size() - 1);
}

TaskSchedule::TaskId
TaskSchedule::addAccelTask(std::string Name,
                           std::function<void(OffloadContext &)> Body) {
  TaskInfo Info;
  Info.Name = std::move(Name);
  Info.Where = Target::Accelerator;
  Info.AccelBody = std::move(Body);
  Tasks.push_back(std::move(Info));
  return static_cast<TaskId>(Tasks.size() - 1);
}

void TaskSchedule::addDependency(TaskId Before, TaskId After) {
  assert(Before < Tasks.size() && After < Tasks.size() && "unknown task");
  assert(Before != After && "task depending on itself");
  Tasks[After].Dependencies.push_back(Before);
}

const std::string &TaskSchedule::taskName(TaskId Task) const {
  assert(Task < Tasks.size() && "unknown task");
  return Tasks[Task].Name;
}

TaskSchedule::RunReport TaskSchedule::run(Machine &M) {
  RunReport Report;
  Report.Timings.assign(Tasks.size(), TaskTiming());

  uint64_t FrameStart = M.hostClock().now();
  std::vector<bool> Done(Tasks.size(), false);
  unsigned Remaining = numTasks();

  auto DepsDone = [&](TaskId Task) {
    for (TaskId Dep : Tasks[Task].Dependencies)
      if (!Done[Dep])
        return false;
    return true;
  };
  auto ReadyAt = [&](TaskId Task) {
    uint64_t At = FrameStart;
    for (TaskId Dep : Tasks[Task].Dependencies)
      At = std::max(At, Report.Timings[Dep].FinishCycle);
    return At;
  };

  while (Remaining != 0) {
    bool Progress = false;

    // Launch every ready accelerator task (the greedy "keep the SPEs
    // fed" policy): the launch costs host time now; the task's start
    // respects its dependencies' finish times in simulated time.
    for (TaskId Task = 0; Task != Tasks.size(); ++Task) {
      if (Done[Task] || Tasks[Task].Where != Target::Accelerator ||
          !DepsDone(Task))
        continue;
      // A core that dies at launch is retried on the next live pick;
      // the body runs only once openBlock returns Ok.
      detail::BlockSpan Span;
      for (;;) {
        OffloadStatus Status =
            detail::openBlock(M, pickAccelerator(M), ReadyAt(Task), Span);
        if (Status == OffloadStatus::Ok)
          break;
        if (Status == OffloadStatus::NoAcceleratorAvailable)
          reportFatalError("task schedule: no live accelerator for task '" +
                           Tasks[Task].Name + "'");
      }
      uint64_t Start = M.accel(Span.AccelId).Clock.now();
      {
        OffloadContext Ctx(M, Span.AccelId);
        Tasks[Task].AccelBody(Ctx);
      }

      TaskTiming &Timing = Report.Timings[Task];
      Timing.StartCycle = Start;
      Timing.FinishCycle = detail::closeBlock(M, Span);
      Timing.Where = Target::Accelerator;
      Timing.AccelId = Span.AccelId;
      Report.AccelBusyCycles += Timing.FinishCycle - Timing.StartCycle;

      Done[Task] = true;
      --Remaining;
      Progress = true;
    }
    if (Progress)
      continue; // Re-scan: finished accel tasks may unblock more.

    // Run one ready host task (lowest id first: the fixed schedule).
    for (TaskId Task = 0; Task != Tasks.size(); ++Task) {
      if (Done[Task] || Tasks[Task].Where != Target::Host ||
          !DepsDone(Task))
        continue;
      uint64_t Ready = ReadyAt(Task);
      // Joining the dependencies stalls the host if they are still in
      // flight in simulated time.
      M.hostCounters().JoinStallCycles += M.hostClock().advanceTo(Ready);
      TaskTiming &Timing = Report.Timings[Task];
      Timing.StartCycle = M.hostClock().now();
      Tasks[Task].HostBody(M);
      Timing.FinishCycle = M.hostClock().now();
      Timing.Where = Target::Host;
      Report.HostBusyCycles += Timing.FinishCycle - Timing.StartCycle;

      Done[Task] = true;
      --Remaining;
      Progress = true;
      break;
    }

    if (!Progress)
      reportFatalError("task schedule: dependency cycle (no ready task)");
  }

  // Frame join: the host waits for the last task.
  uint64_t FrameEnd = FrameStart;
  for (const TaskTiming &Timing : Report.Timings)
    FrameEnd = std::max(FrameEnd, Timing.FinishCycle);
  M.hostCounters().JoinStallCycles += M.hostClock().advanceTo(FrameEnd);
  Report.MakespanCycles = FrameEnd - FrameStart;

  // Critical path: walk back from the last-finishing task through the
  // dependency (or same-core serialisation is ignored — this is the
  // *data* critical path) that finished latest.
  TaskId Last = 0;
  for (TaskId Task = 0; Task != Tasks.size(); ++Task)
    if (Report.Timings[Task].FinishCycle >=
        Report.Timings[Last].FinishCycle)
      Last = Task; // Ties resolve to the later task (the join side).
  std::vector<TaskId> Reversed;
  TaskId Cursor = Last;
  while (true) {
    Reversed.push_back(Cursor);
    const std::vector<TaskId> &Deps = Tasks[Cursor].Dependencies;
    if (Deps.empty())
      break;
    TaskId Next = Deps.front();
    for (TaskId Dep : Deps)
      if (Report.Timings[Dep].FinishCycle >
          Report.Timings[Next].FinishCycle)
        Next = Dep;
    Cursor = Next;
  }
  Report.CriticalPath.assign(Reversed.rbegin(), Reversed.rend());
  return Report;
}
