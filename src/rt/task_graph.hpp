// Task graphs: the immutable, shareable half of a task DAG.
//
// A TaskGraph holds everything about a DAG that does not change while it
// runs. Per task, in submission order: the codelet, the KernelWork, the
// priority, the label, the kernel argument pack and the data accesses (by
// handle id). Across tasks: the CSR successor lists, each task's initial
// count of unresolved dependencies, and the edge count. What changes while
// the DAG runs (state, times, placement) lives in the runtime's per-run
// Task array (rt/task.hpp).
//
// Runtime::submit builds the runtime's own graph one task at a time; its
// edges stay an unsorted list until Runtime::graph() seals the graph, which
// sorts them into the CSR lists once. A sealed graph never changes again,
// so any number of runtimes, on any threads, can instantiate it
// (Runtime::instantiate, the only way a graph runs) and run it
// concurrently. A graph references its codelets, it does not copy them:
// they must outlive every runtime that runs the graph. Accesses name
// handles by id, so a runtime that runs a graph must register the same
// handles in the same order first.
#pragma once

#include <any>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hw/kernel_work.hpp"
#include "rt/codelet.hpp"
#include "rt/types.hpp"

namespace greencap::rt {

class DataHandle;

/// One data access as submitted: a registered handle and its mode.
struct TaskAccess {
  DataHandle* handle = nullptr;
  AccessMode mode = AccessMode::kRead;
};

/// One data access as a graph stores it: the handle's id in the runtime
/// that runs the graph, and the mode.
struct GraphAccess {
  std::uint32_t handle = 0;
  AccessMode mode = AccessMode::kRead;
};

class TaskGraph {
 public:
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  /// Distinct codelets, in order of first use.
  [[nodiscard]] const std::vector<const Codelet*>& codelets() const { return codelets_; }
  /// Index of task `id`'s codelet in codelets().
  [[nodiscard]] std::uint32_t codelet_index(TaskId id) const { return node(id).codelet; }
  [[nodiscard]] const Codelet& codelet(TaskId id) const { return *codelets_[node(id).codelet]; }
  [[nodiscard]] const hw::KernelWork& work(TaskId id) const { return node(id).work; }
  [[nodiscard]] std::int64_t priority(TaskId id) const { return node(id).priority; }
  [[nodiscard]] const std::any& arg(TaskId id) const { return node(id).arg; }
  [[nodiscard]] std::string_view label(TaskId id) const;
  [[nodiscard]] std::span<const GraphAccess> accesses(TaskId id) const;
  /// Successors in the order their edges were added. Valid once sealed.
  [[nodiscard]] std::span<const std::uint32_t> successors(TaskId id) const;
  /// Distinct predecessors of the task: its unresolved dependencies when a
  /// run starts.
  [[nodiscard]] std::int32_t initial_deps(TaskId id) const { return node(id).initial_deps; }
  /// Edges inferred from access modes; explicit edges are not counted.
  [[nodiscard]] std::uint64_t data_edge_count() const { return data_edges_; }
  /// One past the largest handle id any access names.
  [[nodiscard]] std::uint32_t handle_bound() const { return handle_bound_; }

  // -- building (Runtime::submit) ---------------------------------------------

  /// Appends a task and returns its id. An empty label becomes
  /// "<codelet>#<id>".
  TaskId add_task(const Codelet& codelet, const hw::KernelWork& work, std::int64_t priority,
                  std::string label, std::any arg, std::span<const TaskAccess> accesses);
  /// Appends the edge pred -> succ; `data` marks an edge inferred from
  /// access modes. The caller rules out duplicates.
  void add_edge(TaskId pred, TaskId succ, bool data);
  void set_initial_deps(TaskId id, std::int32_t deps) { nodes_[index(id)].initial_deps = deps; }
  [[nodiscard]] bool sealed() const { return !offsets_.empty(); }
  /// Sorts the edges into the CSR lists and drops spare capacity: call
  /// once, after the last task is in and before anything reads
  /// successors.
  void seal();

 private:
  struct Node {
    hw::KernelWork work;
    std::int64_t priority = 0;
    std::any arg;
    std::uint32_t codelet = 0;
    std::uint32_t label_end = 0;   ///< labels_ offset past this task's label
    std::uint32_t access_end = 0;  ///< accesses_ offset past this task's accesses
    std::int32_t initial_deps = 0;
  };

  [[nodiscard]] static std::size_t index(TaskId id) { return static_cast<std::size_t>(id); }
  [[nodiscard]] const Node& node(TaskId id) const { return nodes_[index(id)]; }

  std::vector<Node> nodes_;
  std::vector<const Codelet*> codelets_;
  std::string labels_;
  std::vector<GraphAccess> accesses_;
  std::vector<std::uint32_t> offsets_;  ///< CSR: successors of i at [offsets_[i], offsets_[i+1])
  std::vector<std::uint32_t> successors_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges_;  ///< (pred, succ) until sealed
  std::uint64_t data_edges_ = 0;
  std::uint32_t handle_bound_ = 0;
};

}  // namespace greencap::rt
