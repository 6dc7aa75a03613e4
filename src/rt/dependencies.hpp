// Implicit data-dependency inference (StarPU's sequential consistency).
//
// Tasks are serialized in submission order whenever their accesses to a
// common handle conflict (anything involving a write). Readers between two
// writers all depend on the first writer and are all predecessors of the
// second — the classic RAW/WAR/WAW rules.
#pragma once

#include <cstdint>
#include <vector>

#include "rt/data_handle.hpp"
#include "rt/task.hpp"
#include "rt/task_graph.hpp"
#include "rt/types.hpp"

namespace greencap::rt {

class DependencyTracker {
 public:
  /// Wires task `id`, the last task added to `graph`, to the earlier tasks
  /// its accesses conflict with, resolving handle ids through `handles`.
  /// `retired(pred)` says whether a predecessor already completed (it then
  /// gates nothing). Returns the number of edges added (0 = ready).
  template <typename Retired>
  std::int32_t register_task(TaskGraph& graph, TaskId id, const HandleTable& handles,
                             Retired&& retired) {
    last_successor_.resize(static_cast<std::size_t>(id) + 1, kInvalidTask);
    std::int32_t pending = 0;
    for (const GraphAccess& access : graph.accesses(id)) {
      DataHandle& handle = *handles[access.handle];
      if (access.mode == AccessMode::kRead) {
        // RAW: depend on the last writer, if still in flight.
        pending += link(graph, handle.last_writer, id, /*data=*/true, retired);
        handle.readers_since_write.push_back(id);
      } else {
        // WAR: depend on every reader since the last write.
        for (TaskId reader : handle.readers_since_write) {
          pending += link(graph, reader, id, /*data=*/true, retired);
        }
        // WAW: and on the last writer itself (covers back-to-back writes).
        pending += link(graph, handle.last_writer, id, /*data=*/true, retired);
        handle.readers_since_write.clear();
        handle.last_writer = id;
      }
    }
    return pending;
  }

  /// Adds the edge pred -> succ unless pred is invalid, is succ, retired, or
  /// already has that edge. Returns whether it added one. Every edge into
  /// succ is added while succ registers, so an existing pred -> succ edge
  /// is always pred's latest.
  template <typename Retired>
  bool link(TaskGraph& graph, TaskId pred, TaskId succ, bool data, Retired&& retired) {
    if (pred == kInvalidTask || pred == succ || retired(pred)) {
      return false;
    }
    TaskId& last = last_successor_[static_cast<std::size_t>(pred)];
    if (last == succ) {
      return false;
    }
    last = succ;
    graph.add_edge(pred, succ, data);
    return true;
  }

 private:
  std::vector<TaskId> last_successor_;  ///< per task: the successor of its latest edge
};

}  // namespace greencap::rt
