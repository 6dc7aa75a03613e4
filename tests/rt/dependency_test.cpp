// DependencyTracker unit tests, exercised through a minimal harness that
// mimics what Runtime::submit does (without any execution): tasks go into
// a TaskGraph, and reading successors seals it, as Runtime::graph() does.
#include "rt/dependencies.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "rt/codelet.hpp"
#include "rt/data_handle.hpp"

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

  TaskId submit(const std::vector<TaskAccess>& accesses) {
    const TaskId id = graph_.add_task(codelet_, hw::KernelWork{}, 0, {}, {}, accesses);
    graph_.set_initial_deps(id, tracker_.register_task(graph_, id));
    return id;
  }

  [[nodiscard]] std::int32_t deps(TaskId id) const { return graph_.initial_deps(id); }

  [[nodiscard]] std::span<const std::uint32_t> successors(TaskId id) {
    if (!graph_.sealed()) {
      graph_.seal();
    }
    return graph_.successors(id);
  }

  [[nodiscard]] std::uint64_t edges() const { return graph_.data_edge_count(); }

 private:
  Codelet codelet_;
  DependencyTracker tracker_;
  std::vector<std::unique_ptr<DataHandle>> handles_;
  TaskGraph graph_;
};

TEST(Dependencies, IndependentTasksHaveNoDeps) {
  DepHarness h;
  auto* a = h.data();
  auto* b = h.data();
  const TaskId t1 = h.submit({{a, AccessMode::kWrite}});
  const TaskId t2 = h.submit({{b, AccessMode::kWrite}});
  EXPECT_EQ(h.deps(t1), 0);
  EXPECT_EQ(h.deps(t2), 0);
  EXPECT_EQ(h.edges(), 0u);
}

TEST(Dependencies, ReadAfterWrite) {
  DepHarness h;
  auto* a = h.data();
  const TaskId writer = h.submit({{a, AccessMode::kWrite}});
  const TaskId reader = h.submit({{a, AccessMode::kRead}});
  EXPECT_EQ(h.deps(reader), 1);
  ASSERT_EQ(h.successors(writer).size(), 1u);
  EXPECT_EQ(h.successors(writer)[0], static_cast<std::uint32_t>(reader));
}

TEST(Dependencies, ConcurrentReadsCommute) {
  DepHarness h;
  auto* a = h.data();
  h.submit({{a, AccessMode::kWrite}});
  const TaskId r1 = h.submit({{a, AccessMode::kRead}});
  const TaskId r2 = h.submit({{a, AccessMode::kRead}});
  const TaskId r3 = h.submit({{a, AccessMode::kRead}});
  EXPECT_EQ(h.deps(r1), 1);
  EXPECT_EQ(h.deps(r2), 1);
  EXPECT_EQ(h.deps(r3), 1);
  EXPECT_TRUE(h.successors(r1).empty());
  EXPECT_TRUE(h.successors(r2).empty());
}

TEST(Dependencies, WriteAfterRead) {
  DepHarness h;
  auto* a = h.data();
  h.submit({{a, AccessMode::kWrite}});
  const TaskId r1 = h.submit({{a, AccessMode::kRead}});
  const TaskId r2 = h.submit({{a, AccessMode::kRead}});
  const TaskId w2 = h.submit({{a, AccessMode::kWrite}});
  // w2 waits on both readers AND the previous writer.
  EXPECT_EQ(h.deps(w2), 3);
  EXPECT_EQ(h.successors(r1).size(), 1u);
  EXPECT_EQ(h.successors(r2).size(), 1u);
}

TEST(Dependencies, WriteAfterWrite) {
  DepHarness h;
  auto* a = h.data();
  const TaskId w1 = h.submit({{a, AccessMode::kWrite}});
  const TaskId w2 = h.submit({{a, AccessMode::kWrite}});
  EXPECT_EQ(h.deps(w2), 1);
  EXPECT_EQ(h.successors(w1)[0], static_cast<std::uint32_t>(w2));
}

TEST(Dependencies, ReadWriteChainsSerialize) {
  DepHarness h;
  auto* a = h.data();
  const TaskId t1 = h.submit({{a, AccessMode::kReadWrite}});
  const TaskId t2 = h.submit({{a, AccessMode::kReadWrite}});
  const TaskId t3 = h.submit({{a, AccessMode::kReadWrite}});
  EXPECT_EQ(h.deps(t1), 0);
  EXPECT_EQ(h.deps(t2), 1);
  EXPECT_EQ(h.deps(t3), 1);
}

TEST(Dependencies, DuplicateEdgesCollapse) {
  DepHarness h;
  auto* a = h.data();
  auto* b = h.data();
  // Writer touches both handles; the reader reads both -> only one edge.
  const TaskId w = h.submit({{a, AccessMode::kWrite}, {b, AccessMode::kWrite}});
  const TaskId r = h.submit({{a, AccessMode::kRead}, {b, AccessMode::kRead}});
  EXPECT_EQ(h.deps(r), 1);
  EXPECT_EQ(h.successors(w).size(), 1u);
}

TEST(Dependencies, DiamondPattern) {
  DepHarness h;
  auto* a = h.data();
  auto* left = h.data();
  auto* right = h.data();
  const TaskId top = h.submit({{a, AccessMode::kWrite}});
  const TaskId l = h.submit({{a, AccessMode::kRead}, {left, AccessMode::kWrite}});
  const TaskId r = h.submit({{a, AccessMode::kRead}, {right, AccessMode::kWrite}});
  const TaskId bottom = h.submit({{left, AccessMode::kRead}, {right, AccessMode::kRead}});
  EXPECT_EQ(h.successors(top).size(), 2u);
  EXPECT_EQ(h.deps(l), 1);
  EXPECT_EQ(h.deps(r), 1);
  EXPECT_EQ(h.deps(bottom), 2);
}

TEST(Dependencies, SelfAccessDoesNotSelfDepend) {
  DepHarness h;
  auto* a = h.data();
  const TaskId t = h.submit({{a, AccessMode::kRead}, {a, AccessMode::kWrite}});
  EXPECT_EQ(h.deps(t), 0);
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
