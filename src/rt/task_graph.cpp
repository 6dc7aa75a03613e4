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
  pending_.emplace_back(static_cast<std::uint32_t>(pred), static_cast<std::uint32_t>(succ));
  if (data) {
    ++data_edges_;
  }
}

void TaskGraph::fold_edges() {
  if (folded()) {
    return;
  }
  // Counting sort by predecessor, stable: the folded lists first, then the
  // pending edges in the order they were added.
  const std::size_t n = size();
  const std::size_t old_n = offsets_.empty() ? 0 : offsets_.size() - 1;
  std::vector<std::uint32_t> offsets(n + 1, 0);
  for (std::size_t i = 0; i < old_n; ++i) {
    offsets[i + 1] = offsets_[i + 1] - offsets_[i];
  }
  for (const auto& [pred, succ] : pending_) {
    ++offsets[pred + 1];
  }
  for (std::size_t i = 0; i < n; ++i) {
    offsets[i + 1] += offsets[i];
  }
  std::vector<std::uint32_t> successors(offsets[n]);
  std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (std::size_t i = 0; i < old_n; ++i) {
    for (std::uint32_t e = offsets_[i]; e < offsets_[i + 1]; ++e) {
      successors[cursor[i]++] = successors_[e];
    }
  }
  for (const auto& [pred, succ] : pending_) {
    successors[cursor[pred]++] = succ;
  }
  offsets_ = std::move(offsets);
  successors_ = std::move(successors);
  pending_ = {};
}

void TaskGraph::seal() {
  fold_edges();
  nodes_.shrink_to_fit();
  codelets_.shrink_to_fit();
  labels_.shrink_to_fit();
  accesses_.shrink_to_fit();
}

}  // namespace greencap::rt
