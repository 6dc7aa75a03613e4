// Tasks: the per-run state of one task of a TaskGraph.
//
// The graph (rt/task_graph.hpp) holds what a task is; a Task holds what
// happens to it in one run: its state, dependency countdown, placement and
// timestamps. Its accessors forward to the graph, and resolve the graph's
// handle ids through the runtime's handle table.
#pragma once

#include <any>
#include <bit>
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

/// A runtime's Task array, indexed by TaskId. Tasks never move, so
/// scheduler queues can hold Task*. An instantiated graph gets one block
/// sized to it; tasks submitted one by one fill blocks of doubling size.
class TaskStates {
 public:
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Sizes the first block for exactly `n` tasks; the array must be empty.
  void reserve(std::size_t n) {
    if (n == 0) {
      return;
    }
    blocks_.emplace_back().reserve(n);
    first_ = n;
  }

  /// Appends the state of task size() of `graph`.
  Task& emplace_back(const TaskGraph& graph, const HandleTable& handles) {
    if (blocks_.empty()) {
      reserve(kFirstBlock);
    } else if (blocks_.back().size() == blocks_.back().capacity()) {
      const std::size_t capacity = first_ << blocks_.size();
      blocks_.emplace_back().reserve(capacity);
    }
    const auto id = static_cast<TaskId>(size_++);
    return blocks_.back().emplace_back(graph, handles, id);
  }

  [[nodiscard]] Task& operator[](std::size_t i) {
    if (i < first_) {
      return blocks_.front()[i];
    }
    // Block k holds first_ << k tasks and starts at first_ * (2^k - 1).
    const auto k = static_cast<std::size_t>(std::bit_width(i / first_ + 1) - 1);
    return blocks_[k][i - first_ * ((std::size_t{1} << k) - 1)];
  }
  [[nodiscard]] const Task& operator[](std::size_t i) const {
    return const_cast<TaskStates&>(*this)[i];
  }

 private:
  static constexpr std::size_t kFirstBlock = 64;

  std::vector<std::vector<Task>> blocks_;  ///< each filled within its reserved capacity
  std::size_t first_ = 0;                  ///< capacity of blocks_[0]
  std::size_t size_ = 0;
};

}  // namespace greencap::rt
