//===- offload/TaskSchedule.h - Frame task scheduling ----------*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// "Game code is typically structured such that computation is
/// specified as parallel, distinct tasks with well defined
/// synchronisation points executing in a pre-defined and fixed schedule
/// each frame" (Section 4). TaskSchedule is that structure: a DAG of
/// named tasks, each bound to the host or to an accelerator, executed
/// once per frame under the simulator's parallel-time model. The
/// scheduler is a deterministic greedy list scheduler: every ready
/// accelerator task launches immediately (to the least-busy live core,
/// through offloadBlock's fail-stop launch gate), host
/// tasks run in dependency order on the single host core, and the run
/// report carries per-task start/finish times plus the critical path —
/// the profile a game team uses to decide *what to offload next*.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_OFFLOAD_TASKSCHEDULE_H
#define OMM_OFFLOAD_TASKSCHEDULE_H

#include "offload/Offload.h"

#include <functional>
#include <string>
#include <vector>

namespace omm::offload {

/// A fixed per-frame task graph.
class TaskSchedule {
public:
  using TaskId = uint32_t;

  /// Where a task executes.
  enum class Target { Host, Accelerator };

  /// Adds a host-core task.
  TaskId addHostTask(std::string Name,
                     std::function<void(sim::Machine &)> Body);

  /// Adds an accelerator task (an offload block).
  TaskId addAccelTask(std::string Name,
                      std::function<void(OffloadContext &)> Body);

  /// Declares that \p After may not start before \p Before finishes
  /// (the frame's "well defined synchronisation points").
  void addDependency(TaskId Before, TaskId After);

  unsigned numTasks() const { return static_cast<unsigned>(Tasks.size()); }
  const std::string &taskName(TaskId Task) const;

  /// Per-task timing of one run.
  struct TaskTiming {
    uint64_t StartCycle = 0;
    uint64_t FinishCycle = 0;
    Target Where = Target::Host;
    unsigned AccelId = 0; ///< Valid for accelerator tasks.
  };

  /// Result of one frame execution.
  struct RunReport {
    uint64_t MakespanCycles = 0; ///< Frame start to last task finish.
    std::vector<TaskTiming> Timings; ///< Indexed by TaskId.
    std::vector<TaskId> CriticalPath; ///< Root-to-finish chain.

    /// Total busy cycles per target, for utilisation summaries.
    uint64_t HostBusyCycles = 0;
    uint64_t AccelBusyCycles = 0;
  };

  /// Executes the graph once. A task whose core dies at launch is
  /// re-launched on the next live pick. Aborts on dependency cycles and
  /// when an accelerator task finds no live core. The host clock ends
  /// at the frame's completion (all tasks joined).
  RunReport run(sim::Machine &M);

private:
  struct TaskInfo {
    std::string Name;
    Target Where;
    std::function<void(sim::Machine &)> HostBody;
    std::function<void(OffloadContext &)> AccelBody;
    std::vector<TaskId> Dependencies;
  };

  std::vector<TaskInfo> Tasks;
};

} // namespace omm::offload

#endif // OMM_OFFLOAD_TASKSCHEDULE_H
