// Tasks: the per-run state of one task of a TaskGraph.
//
// The graph (rt/task_graph.hpp) holds what a task is; a Task holds what
// happens to it in one run: its state, dependency countdown, placement and
// timestamps. Runtime::instantiate creates all of a run's Tasks at once, in
// one array that never grows, so scheduler queues and workers hold Task*.
// Its accessors forward to the graph, and resolve the graph's handle ids
// through the runtime's handle table.
#pragma once

#include <any>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "hw/kernel_work.hpp"
#include "rt/codelet.hpp"
#include "rt/data_handle.hpp"
#include "rt/task_graph.hpp"
#include "rt/types.hpp"
#include "sim/time.hpp"

namespace greencap::rt {

/// A runtime's registered handles, indexed by HandleId.
using HandleTable = std::vector<std::unique_ptr<DataHandle>>;

enum class TaskState : std::uint8_t {
  kSubmitted,  ///< waiting on dependencies
  kReady,      ///< dependencies satisfied, in scheduler hands
  kQueued,     ///< assigned to a worker queue
  kRunning,
  kDone,
};

class Task {
 public:
  Task(const TaskGraph& graph, const HandleTable& handles, TaskId id)
      : graph_{&graph}, handles_{&handles}, id_{id} {}

  [[nodiscard]] TaskId id() const { return id_; }
  [[nodiscard]] const Codelet& codelet() const { return graph_->codelet(id_); }
  [[nodiscard]] const hw::KernelWork& work() const { return graph_->work(id_); }
  /// Application priority (Chameleon-style expert hint; larger = more
  /// urgent). Consumed by the dmdas scheduler.
  [[nodiscard]] std::int64_t priority() const { return graph_->priority(id_); }
  /// Diagnostic label, e.g. "gemm(2,3,1)".
  [[nodiscard]] std::string_view label() const { return graph_->label(id_); }
  /// Kernel argument pack (StarPU's cl_arg): codelet implementations
  /// any_cast it to their argument struct.
  [[nodiscard]] const std::any& arg() const { return graph_->arg(id_); }
  [[nodiscard]] std::span<const GraphAccess> accesses() const { return graph_->accesses(id_); }
  /// The handle of access `i`, in access order.
  [[nodiscard]] DataHandle* handle(std::size_t i) const {
    return (*handles_)[accesses()[i].handle].get();
  }
  [[nodiscard]] std::span<const std::uint32_t> successors() const {
    return graph_->successors(id_);
  }

  // -- per-run state (owned by Runtime) -----------------------------------
  TaskState state = TaskState::kSubmitted;
  std::int32_t unresolved_deps = 0;
  WorkerId assigned_worker = -1;
  /// The codelet's id in the runtime's perf model.
  CodeletId perf_codelet = 0;
  sim::SimTime ready_at;
  /// Instant the worker popped the task and staging began (profiler's
  /// transfer-wait anchor; re-set on requeue after a dropout).
  sim::SimTime dispatched_at;
  /// Earliest instant the task's prefetched inputs are resident (only set
  /// when RuntimeOptions::prefetch staged data at queue time).
  sim::SimTime data_ready_at;
  sim::SimTime start_time;
  sim::SimTime end_time;
  /// Dynamic device draw above the static floor while this task ran (W),
  /// recorded at kernel start when RuntimeOptions::profile is on. The
  /// energy-attribution profiler multiplies it by the realized duration.
  double attributed_power_w = 0.0;
  /// Index into the observability decision log, -1 when logging is off.
  std::int64_t decision_index = -1;

 private:
  const TaskGraph* graph_;
  const HandleTable* handles_;
  TaskId id_;
};

}  // namespace greencap::rt
