// Runtime resilience: worker quarantine on GPU dropout, requeue of
// in-flight and queued work, coherence repair for copies stranded on the
// dead device, and straggler slowdowns — all with numerical correctness as
// the oracle (tasks really execute on the host).
#include <gtest/gtest.h>

#include <vector>

#include "fault/degradation.hpp"
#include "fault/injector.hpp"
#include "hw/presets.hpp"
#include "rt/runtime.hpp"

namespace greencap::rt {
namespace {

/// Chain codelet: x -> 3*x + 1 on its single RW cell. A chain of N such
/// tasks has one deterministic answer; a lost or doubly-executed task
/// after a dropout/requeue changes it.
Codelet chain_codelet(WhereMask where = kWhereAny) {
  Codelet c;
  c.name = "chain";
  c.klass = hw::KernelClass::kGeneric;
  c.where = where;
  c.cpu_func = [](Task& task) {
    auto* cell = static_cast<std::int64_t*>(task.handle(0)->host_ptr());
    *cell = *cell * 3 + 1;
  };
  return c;
}

/// Heavy enough that a chain of tasks spans whole virtual seconds, so
/// faults scheduled at fractions of a second land mid-run.
constexpr double kFlops = 1e12;

struct Harness {
  hw::Platform platform{hw::presets::platform_32_amd_4_a100()};
  sim::Simulator sim;
  fault::FaultInjector injector;
  fault::DegradationReport degradation;
  Runtime runtime;

  explicit Harness(const std::string& faults, std::uint64_t seed = 42)
      : injector{fault::FaultPlan::parse(faults), seed}, runtime{platform, sim, [&] {
          RuntimeOptions opts;
          opts.execute_kernels = true;
          opts.seed = seed;
          opts.faults = &injector;
          opts.degradation = &degradation;
          return opts;
        }()} {}

  void submit_chain(const Codelet& codelet, DataHandle* handle, int links) {
    for (int i = 0; i < links; ++i) {
      TaskDesc desc;
      desc.codelet = &codelet;
      desc.work = hw::KernelWork{hw::KernelClass::kGeneric, hw::Precision::kDouble, kFlops, 1024};
      desc.accesses.push_back({handle, AccessMode::kReadWrite});
      runtime.submit(std::move(desc));
    }
  }
};

TEST(RuntimeFault, DropoutMidRunPreservesChainResult) {
  constexpr int kChains = 8;
  constexpr int kLinks = 30;
  Harness h{"dropout@gpu1:t=0.05"};
  const Codelet chain = chain_codelet();

  std::vector<std::int64_t> cells(kChains, 1);
  std::vector<DataHandle*> handles;
  for (auto& cell : cells) {
    handles.push_back(h.runtime.register_data(sizeof cell, &cell));
  }
  h.injector.arm(h.sim);
  for (int link = 0; link < kLinks; ++link) {
    for (int c = 0; c < kChains; ++c) {
      TaskDesc desc;
      desc.codelet = &chain;
      desc.work = hw::KernelWork{hw::KernelClass::kGeneric, hw::Precision::kDouble, kFlops, 1024};
      desc.accesses.push_back({handles[c], AccessMode::kReadWrite});
      h.runtime.submit(std::move(desc));
    }
  }
  h.runtime.wait_all();

  ASSERT_EQ(h.injector.counts().dropouts, 1u) << "fault must land mid-run";
  std::int64_t expected = 1;
  for (int link = 0; link < kLinks; ++link) expected = expected * 3 + 1;
  for (int c = 0; c < kChains; ++c) {
    EXPECT_EQ(cells[c], expected) << "chain " << c;
  }
  EXPECT_EQ(h.runtime.stats().tasks_completed, static_cast<std::uint64_t>(kChains * kLinks));

  // Exactly one worker (gpu1's) must be quarantined, with zero live state.
  std::size_t quarantined = 0;
  for (std::size_t w = 0; w < h.runtime.worker_count(); ++w) {
    const Worker& worker = h.runtime.worker(w);
    if (worker.quarantined) {
      ++quarantined;
      EXPECT_EQ(worker.arch(), WorkerArch::kCuda);
      EXPECT_EQ(worker.inflight, nullptr);
      EXPECT_TRUE(worker.queue.empty());
      EXPECT_TRUE(worker.gpu()->failed());
    }
  }
  EXPECT_EQ(quarantined, 1u);
  ASSERT_FALSE(h.degradation.empty());
  EXPECT_EQ(h.degradation.events()[0].component, "rt");
  EXPECT_EQ(h.degradation.events()[0].to, "quarantined");
}

TEST(RuntimeFault, DropoutLeavesNoCopiesOnDeadNode) {
  Harness h{"dropout@gpu0:t=0.05"};
  const Codelet chain = chain_codelet();
  std::int64_t cell = 1;
  DataHandle* handle = h.runtime.register_data(sizeof cell, &cell);
  h.injector.arm(h.sim);
  h.submit_chain(chain, handle, 20);
  h.runtime.wait_all();

  ASSERT_EQ(h.injector.counts().dropouts, 1u);
  MemoryNode dead_node = kHostNode;
  for (std::size_t w = 0; w < h.runtime.worker_count(); ++w) {
    if (h.runtime.worker(w).quarantined) dead_node = h.runtime.worker(w).node();
  }
  ASSERT_NE(dead_node, kHostNode);
  EXPECT_FALSE(handle->valid_on(dead_node));
  EXPECT_GE(handle->copy_count(), 1u);
}

TEST(RuntimeFault, AllGpusDroppedStillCompletesOnCpus) {
  Harness h{"dropout@gpu0:t=0;dropout@gpu1:t=0;dropout@gpu2:t=0;dropout@gpu3:t=0"};
  const Codelet chain = chain_codelet();
  std::int64_t cell = 1;
  DataHandle* handle = h.runtime.register_data(sizeof cell, &cell);
  h.injector.arm(h.sim);
  h.sim.run();  // fire all four dropouts before any work is submitted
  h.submit_chain(chain, handle, 10);
  h.runtime.wait_all();

  const RuntimeStats stats = h.runtime.stats();
  EXPECT_EQ(stats.tasks_completed, 10u);
  for (const auto& w : stats.per_worker) {
    if (w.arch == WorkerArch::kCuda) {
      EXPECT_EQ(w.tasks, 0u) << "quarantined GPU worker executed a task";
    }
  }
}

TEST(RuntimeFault, StragglerStretchesMakespanDeterministically) {
  const auto run = [](const std::string& faults) {
    Harness h{faults};
    const Codelet chain = chain_codelet(kWhereCuda);  // stragglers hit CUDA only
    std::int64_t cell = 1;
    DataHandle* handle = h.runtime.register_data(sizeof cell, &cell);
    h.injector.arm(h.sim);
    h.submit_chain(chain, handle, 20);
    h.runtime.wait_all();
    return h.runtime.stats().makespan.sec();
  };
  // An inert window (never reached) leaves the makespan untouched.
  const double clean = run("straggler@any:t=1e6,factor=8");
  const double slow = run("straggler@any:t=0,factor=8");
  EXPECT_GT(slow, clean * 1.5);
  EXPECT_DOUBLE_EQ(run("straggler@any:t=0,factor=8"), slow);  // replayable
}

TEST(RuntimeFault, InvalidateGpuHistoryDropsGpuWorkerEntries) {
  Harness h{"dropout@gpu3:t=1e6"};  // inert plan; only the runtime is needed
  const Codelet chain = chain_codelet(kWhereCuda);
  std::int64_t cell = 1;
  DataHandle* handle = h.runtime.register_data(sizeof cell, &cell);
  h.submit_chain(chain, handle, 8);
  h.runtime.wait_all();

  // CUDA-only tasks fed only GPU workers' histories; invalidating every
  // GPU must therefore empty the model.
  HistoryPerfModel& model = h.runtime.perf_model();
  ASSERT_GT(model.entry_count(), 0u);
  for (std::size_t g = 0; g < h.platform.gpu_count(); ++g) {
    h.runtime.invalidate_gpu_history(g);
  }
  EXPECT_EQ(model.entry_count(), 0u);
}

}  // namespace
}  // namespace greencap::rt
