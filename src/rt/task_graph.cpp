#include "rt/task_graph.hpp"

#include <algorithm>

#include "rt/data_handle.hpp"

namespace greencap::rt {

std::string_view TaskGraph::label(TaskId id) const {
  const std::size_t i = index(id);
  const std::size_t begin = i == 0 ? 0 : nodes_[i - 1].label_end;
  return std::string_view{labels_}.substr(begin, nodes_[i].label_end - begin);
}

std::span<const GraphAccess> TaskGraph::accesses(TaskId id) const {
  const std::size_t i = index(id);
  const std::size_t begin = i == 0 ? 0 : nodes_[i - 1].access_end;
  return std::span<const GraphAccess>{accesses_}.subspan(begin, nodes_[i].access_end - begin);
}

std::span<const std::uint32_t> TaskGraph::successors(TaskId id) const {
  const std::size_t i = index(id);
  return std::span<const std::uint32_t>{successors_}.subspan(offsets_[i],
                                                            offsets_[i + 1] - offsets_[i]);
}

TaskId TaskGraph::add_task(const Codelet& codelet, const hw::KernelWork& work,
                           std::int64_t priority, std::string label, std::any arg,
                           std::span<const TaskAccess> accesses) {
  const auto id = static_cast<TaskId>(nodes_.size());
  Node node;
  node.work = work;
  node.priority = priority;
  node.arg = std::move(arg);
  const auto known = std::find(codelets_.begin(), codelets_.end(), &codelet);
  node.codelet = static_cast<std::uint32_t>(known - codelets_.begin());
  if (known == codelets_.end()) {
    codelets_.push_back(&codelet);
  }
  if (label.empty()) {
    labels_ += codelet.name;
    labels_ += '#';
    labels_ += std::to_string(id);
  } else {
    labels_ += label;
  }
  node.label_end = static_cast<std::uint32_t>(labels_.size());
  for (const TaskAccess& a : accesses) {
    const auto handle = static_cast<std::uint32_t>(a.handle->id());
    accesses_.push_back(GraphAccess{handle, a.mode});
    handle_bound_ = std::max(handle_bound_, handle + 1);
  }
  node.access_end = static_cast<std::uint32_t>(accesses_.size());
  nodes_.push_back(std::move(node));
  return id;
}

void TaskGraph::add_edge(TaskId pred, TaskId succ, bool data) {
  edges_.emplace_back(static_cast<std::uint32_t>(pred), static_cast<std::uint32_t>(succ));
  if (data) {
    ++data_edges_;
  }
}

void TaskGraph::seal() {
  // Counting sort by predecessor, stable: each list keeps its edges in the
  // order they were added.
  const std::size_t n = size();
  offsets_.assign(n + 1, 0);
  for (const auto& [pred, succ] : edges_) {
    ++offsets_[pred + 1];
  }
  for (std::size_t i = 0; i < n; ++i) {
    offsets_[i + 1] += offsets_[i];
  }
  successors_.resize(edges_.size());
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const auto& [pred, succ] : edges_) {
    successors_[cursor[pred]++] = succ;
  }
  edges_ = {};
  nodes_.shrink_to_fit();
  codelets_.shrink_to_fit();
  labels_.shrink_to_fit();
  accesses_.shrink_to_fit();
}

}  // namespace greencap::rt
