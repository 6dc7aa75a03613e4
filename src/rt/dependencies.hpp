// Implicit data-dependency inference (StarPU's sequential consistency).
//
// Tasks are serialized in submission order whenever their accesses to a
// common handle conflict (anything involving a write). Readers between two
// writers all depend on the first writer and are all predecessors of the
// second — the classic RAW/WAR/WAW rules. The tracker works on a graph
// under construction: it keeps, per handle id, the last writer and the
// readers since, and is discarded once the graph is sealed.
#pragma once

#include <cstdint>
#include <vector>

#include "rt/task_graph.hpp"
#include "rt/types.hpp"

namespace greencap::rt {

class DependencyTracker {
 public:
  /// Wires task `id`, the last task added to `graph`, to the earlier tasks
  /// its accesses conflict with. Returns the number of edges added
  /// (0 = nothing gates it).
  std::int32_t register_task(TaskGraph& graph, TaskId id) {
    last_successor_.resize(static_cast<std::size_t>(id) + 1, kInvalidTask);
    std::int32_t pending = 0;
    for (const GraphAccess& access : graph.accesses(id)) {
      if (access.handle >= handles_.size()) {
        handles_.resize(access.handle + 1);
      }
      HandleState& handle = handles_[access.handle];
      if (access.mode == AccessMode::kRead) {
        // RAW: depend on the last writer.
        pending += link(graph, handle.last_writer, id, /*data=*/true);
        handle.readers_since_write.push_back(id);
      } else {
        // WAR: depend on every reader since the last write.
        for (TaskId reader : handle.readers_since_write) {
          pending += link(graph, reader, id, /*data=*/true);
        }
        // WAW: and on the last writer itself (covers back-to-back writes).
        pending += link(graph, handle.last_writer, id, /*data=*/true);
        handle.readers_since_write.clear();
        handle.last_writer = id;
      }
    }
    return pending;
  }

  /// Adds the edge pred -> succ unless pred is invalid, is succ, or already
  /// has that edge. Returns whether it added one. Every edge into succ is
  /// added while succ registers, so an existing pred -> succ edge is always
  /// pred's latest.
  bool link(TaskGraph& graph, TaskId pred, TaskId succ, bool data) {
    if (pred == kInvalidTask || pred == succ) {
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
  struct HandleState {
    TaskId last_writer = kInvalidTask;
    std::vector<TaskId> readers_since_write;
  };

  std::vector<HandleState> handles_;    ///< by handle id
  std::vector<TaskId> last_successor_;  ///< per task: the successor of its latest edge
};

}  // namespace greencap::rt
