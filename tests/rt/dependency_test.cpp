// DependencyTracker unit tests, exercised through a minimal harness that
// mimics what Runtime::submit does (without any execution): tasks go into
// a TaskGraph, their states into a TaskStates array.
#include "rt/dependencies.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "rt/codelet.hpp"

namespace greencap::rt {
namespace {

class DepHarness {
 public:
  DepHarness() {
    codelet_.name = "noop";
    codelet_.where = kWhereAny;
  }

  DataHandle* data() {
    handles_.push_back(std::make_unique<DataHandle>(static_cast<HandleId>(handles_.size()), 8,
                                                    nullptr, "h"));
    return handles_.back().get();
  }

  Task& submit(const std::vector<TaskAccess>& accesses) {
    const TaskId id = graph_.add_task(codelet_, hw::KernelWork{}, 0, {}, {}, accesses);
    Task& t = tasks_.emplace_back(graph_, handles_);
    t.unresolved_deps = tracker_.register_task(graph_, id, handles_, [this](TaskId pred) {
      return tasks_[static_cast<std::size_t>(pred)].state == TaskState::kDone;
    });
    graph_.fold_edges();
    return t;
  }

  void complete(Task& t) {
    t.state = TaskState::kDone;
    for (const std::uint32_t succ : t.successors()) {
      --tasks_[succ].unresolved_deps;
    }
  }

  [[nodiscard]] std::uint64_t edges() const { return graph_.data_edge_count(); }

 private:
  Codelet codelet_;
  DependencyTracker tracker_;
  HandleTable handles_;
  TaskGraph graph_;
  TaskStates tasks_;
};

TEST(Dependencies, IndependentTasksHaveNoDeps) {
  DepHarness h;
  auto* a = h.data();
  auto* b = h.data();
  Task& t1 = h.submit({{a, AccessMode::kWrite}});
  Task& t2 = h.submit({{b, AccessMode::kWrite}});
  EXPECT_EQ(t1.unresolved_deps, 0);
  EXPECT_EQ(t2.unresolved_deps, 0);
  EXPECT_EQ(h.edges(), 0u);
}

TEST(Dependencies, ReadAfterWrite) {
  DepHarness h;
  auto* a = h.data();
  Task& writer = h.submit({{a, AccessMode::kWrite}});
  Task& reader = h.submit({{a, AccessMode::kRead}});
  EXPECT_EQ(reader.unresolved_deps, 1);
  ASSERT_EQ(writer.successors().size(), 1u);
  EXPECT_EQ(writer.successors()[0], reader.id());
}

TEST(Dependencies, ConcurrentReadsCommute) {
  DepHarness h;
  auto* a = h.data();
  h.submit({{a, AccessMode::kWrite}});
  Task& r1 = h.submit({{a, AccessMode::kRead}});
  Task& r2 = h.submit({{a, AccessMode::kRead}});
  Task& r3 = h.submit({{a, AccessMode::kRead}});
  EXPECT_EQ(r1.unresolved_deps, 1);
  EXPECT_EQ(r2.unresolved_deps, 1);
  EXPECT_EQ(r3.unresolved_deps, 1);
  EXPECT_TRUE(r1.successors().empty());
  EXPECT_TRUE(r2.successors().empty());
}

TEST(Dependencies, WriteAfterRead) {
  DepHarness h;
  auto* a = h.data();
  h.submit({{a, AccessMode::kWrite}});
  Task& r1 = h.submit({{a, AccessMode::kRead}});
  Task& r2 = h.submit({{a, AccessMode::kRead}});
  Task& w2 = h.submit({{a, AccessMode::kWrite}});
  // w2 waits on both readers AND the previous writer.
  EXPECT_EQ(w2.unresolved_deps, 3);
  EXPECT_EQ(r1.successors().size(), 1u);
  EXPECT_EQ(r2.successors().size(), 1u);
}

TEST(Dependencies, WriteAfterWrite) {
  DepHarness h;
  auto* a = h.data();
  Task& w1 = h.submit({{a, AccessMode::kWrite}});
  Task& w2 = h.submit({{a, AccessMode::kWrite}});
  EXPECT_EQ(w2.unresolved_deps, 1);
  EXPECT_EQ(w1.successors()[0], w2.id());
}

TEST(Dependencies, ReadWriteChainsSerialize) {
  DepHarness h;
  auto* a = h.data();
  Task& t1 = h.submit({{a, AccessMode::kReadWrite}});
  Task& t2 = h.submit({{a, AccessMode::kReadWrite}});
  Task& t3 = h.submit({{a, AccessMode::kReadWrite}});
  EXPECT_EQ(t1.unresolved_deps, 0);
  EXPECT_EQ(t2.unresolved_deps, 1);
  EXPECT_EQ(t3.unresolved_deps, 1);
}

TEST(Dependencies, CompletedPredecessorsAreSkipped) {
  DepHarness h;
  auto* a = h.data();
  Task& w = h.submit({{a, AccessMode::kWrite}});
  h.complete(w);
  Task& r = h.submit({{a, AccessMode::kRead}});
  EXPECT_EQ(r.unresolved_deps, 0);
}

TEST(Dependencies, DuplicateEdgesCollapse) {
  DepHarness h;
  auto* a = h.data();
  auto* b = h.data();
  // Writer touches both handles; the reader reads both -> only one edge.
  Task& w = h.submit({{a, AccessMode::kWrite}, {b, AccessMode::kWrite}});
  Task& r = h.submit({{a, AccessMode::kRead}, {b, AccessMode::kRead}});
  EXPECT_EQ(r.unresolved_deps, 1);
  EXPECT_EQ(w.successors().size(), 1u);
}

TEST(Dependencies, DiamondPattern) {
  DepHarness h;
  auto* a = h.data();
  auto* left = h.data();
  auto* right = h.data();
  Task& top = h.submit({{a, AccessMode::kWrite}});
  Task& l = h.submit({{a, AccessMode::kRead}, {left, AccessMode::kWrite}});
  Task& r = h.submit({{a, AccessMode::kRead}, {right, AccessMode::kWrite}});
  Task& bottom = h.submit({{left, AccessMode::kRead}, {right, AccessMode::kRead}});
  EXPECT_EQ(top.successors().size(), 2u);
  EXPECT_EQ(l.unresolved_deps, 1);
  EXPECT_EQ(r.unresolved_deps, 1);
  EXPECT_EQ(bottom.unresolved_deps, 2);
}

TEST(Dependencies, SelfAccessDoesNotSelfDepend) {
  DepHarness h;
  auto* a = h.data();
  Task& t = h.submit({{a, AccessMode::kRead}, {a, AccessMode::kWrite}});
  EXPECT_EQ(t.unresolved_deps, 0);
}

TEST(Dependencies, EdgeCountAccumulates) {
  DepHarness h;
  auto* a = h.data();
  h.submit({{a, AccessMode::kWrite}});
  h.submit({{a, AccessMode::kRead}});
  h.submit({{a, AccessMode::kRead}});
  h.submit({{a, AccessMode::kWrite}});
  EXPECT_EQ(h.edges(), 5u);  // W->R, W->R, R->W, R->W, W->W
}

}  // namespace
}  // namespace greencap::rt
