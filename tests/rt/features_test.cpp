// Tests for the finer-grained runtime features: can_execute eligibility
// predicates and explicit (tag-style) dependencies.
#include <gtest/gtest.h>

#include "hw/presets.hpp"
#include "rt/runtime.hpp"

namespace greencap::rt {
namespace {

class FeaturesTest : public ::testing::Test {
 protected:
  FeaturesTest() : platform_{hw::presets::platform_32_amd_4_a100()} {
    work_ = hw::KernelWork{hw::KernelClass::kGemm, hw::Precision::kDouble, 1e10, 2880};
  }

  hw::Platform platform_;
  sim::Simulator sim_;
  hw::KernelWork work_;

  /// A tile-GEMM-sized workload (~20 ms on an uncapped A100).
  static double la_big_flops() { return 2.0 * 5760.0 * 5760.0 * 5760.0; }
};

TEST_F(FeaturesTest, CanExecutePinsTaskToOneDevice) {
  Runtime rt{platform_, sim_, RuntimeOptions{}};
  Codelet pinned;
  pinned.name = "pinned";
  pinned.klass = hw::KernelClass::kGemm;
  pinned.where = kWhereCuda;
  // Only the CUDA worker driving GPU 2 may take this kernel.
  pinned.can_execute = [](const Worker& w, const Task&) {
    return w.gpu() != nullptr && w.gpu()->index() == 2;
  };
  for (int i = 0; i < 6; ++i) {
    TaskDesc desc;
    desc.codelet = &pinned;
    desc.work = work_;
    rt.submit(std::move(desc));
  }
  rt.wait_all();
  for (const auto& ws : rt.stats().per_worker) {
    const Worker& w = rt.worker(static_cast<std::size_t>(ws.id));
    if (w.gpu() != nullptr && w.gpu()->index() == 2) {
      EXPECT_EQ(ws.tasks, 6u);
    } else {
      EXPECT_EQ(ws.tasks, 0u);
    }
  }
}

TEST_F(FeaturesTest, CanExecuteRespectedByEveryPolicy) {
  for (const char* sched : {"eager", "prio", "random", "ws", "lws", "dm", "dmda", "dmdas", "dmdae"}) {
    hw::Platform platform{hw::presets::platform_32_amd_4_a100()};
    sim::Simulator sim;
    RuntimeOptions opts;
    opts.scheduler = sched;
    Runtime rt{platform, sim, opts};
    Codelet pinned;
    pinned.name = "pinned";
    pinned.klass = hw::KernelClass::kGemm;
    pinned.where = kWhereAny;
    pinned.can_execute = [](const Worker& w, const Task&) {
      return w.arch() == WorkerArch::kCpuCore;  // GPU-ineligible despite kWhereAny
    };
    for (int i = 0; i < 4; ++i) {
      TaskDesc desc;
      desc.codelet = &pinned;
      desc.work = work_;
      rt.submit(std::move(desc));
    }
    rt.wait_all();
    for (const auto& ws : rt.stats().per_worker) {
      if (ws.arch == WorkerArch::kCuda) {
        EXPECT_EQ(ws.tasks, 0u) << sched;
      }
    }
  }
}

TEST_F(FeaturesTest, ExplicitDepsSerializeIndependentTasks) {
  Runtime rt{platform_, sim_, RuntimeOptions{}};
  Codelet noop;
  noop.name = "noop";
  noop.klass = hw::KernelClass::kGemm;
  noop.where = kWhereCuda;
  // Three data-independent tasks chained only by explicit deps.
  TaskDesc d0;
  d0.codelet = &noop;
  d0.work = work_;
  const TaskId t0 = rt.submit(std::move(d0));
  TaskDesc d1;
  d1.codelet = &noop;
  d1.work = work_;
  d1.explicit_deps = {t0};
  const TaskId t1 = rt.submit(std::move(d1));
  TaskDesc d2;
  d2.codelet = &noop;
  d2.work = work_;
  d2.explicit_deps = {t0, t1};
  const TaskId t2 = rt.submit(std::move(d2));
  rt.wait_all();
  EXPECT_LE(rt.task(t0).end_time, rt.task(t1).start_time);
  EXPECT_LE(rt.task(t1).end_time, rt.task(t2).start_time);
}

TEST_F(FeaturesTest, ExplicitDepsValidateIds) {
  Runtime rt{platform_, sim_, RuntimeOptions{}};
  Codelet noop;
  noop.name = "noop";
  noop.klass = hw::KernelClass::kGemm;
  noop.where = kWhereCuda;
  TaskDesc forward;
  forward.codelet = &noop;
  forward.work = work_;
  forward.explicit_deps = {5};  // references a future task
  EXPECT_THROW(rt.submit(std::move(forward)), std::invalid_argument);
  TaskDesc negative;
  negative.codelet = &noop;
  negative.work = work_;
  negative.explicit_deps = {-1};
  EXPECT_THROW(rt.submit(std::move(negative)), std::invalid_argument);
}

TEST_F(FeaturesTest, ExplicitDepDuplicatesCollapse) {
  Runtime rt{platform_, sim_, RuntimeOptions{}};
  Codelet noop;
  noop.name = "noop";
  noop.klass = hw::KernelClass::kGemm;
  noop.where = kWhereCuda;
  DataHandle* h = rt.register_data(64);
  TaskDesc d0;
  d0.codelet = &noop;
  d0.work = work_;
  d0.accesses = {{h, AccessMode::kWrite}};
  const TaskId t0 = rt.submit(std::move(d0));
  // Data dependency AND an explicit dep on the same predecessor; plus the
  // same explicit id twice.
  TaskDesc d1;
  d1.codelet = &noop;
  d1.work = work_;
  d1.accesses = {{h, AccessMode::kRead}};
  d1.explicit_deps = {t0, t0};
  const TaskId t1 = rt.submit(std::move(d1));
  EXPECT_EQ(rt.graph()->initial_deps(t1), 1);
  rt.wait_all();
}

TEST_F(FeaturesTest, PrefetchOverlapsTransfersWithExecution) {
  // Two tasks on the same GPU, each needing a large fresh input. Without
  // prefetch the second task pays its transfer after the first finishes;
  // with prefetch the transfer happens during the first task's execution.
  auto run = [this](bool prefetch) {
    hw::Platform platform{hw::presets::platform_32_amd_4_a100()};
    sim::Simulator sim;
    RuntimeOptions opts;
    opts.prefetch = prefetch;
    Runtime rt{platform, sim, opts};
    Codelet cuda_only;
    cuda_only.name = "cuda";
    cuda_only.klass = hw::KernelClass::kGemm;
    cuda_only.where = kWhereCuda;
    // Pin both to GPU 0 so they genuinely queue behind each other.
    cuda_only.can_execute = [](const Worker& w, const Task&) {
      return w.gpu() != nullptr && w.gpu()->index() == 0;
    };
    for (int i = 0; i < 2; ++i) {
      TaskDesc desc;
      desc.codelet = &cuda_only;
      desc.work = hw::KernelWork{hw::KernelClass::kGemm, hw::Precision::kDouble,
                                 la_big_flops(), 5760};
      desc.accesses = {{rt.register_data(256ull << 20), AccessMode::kRead}};
      rt.submit(std::move(desc));
    }
    rt.wait_all();
    return rt.stats().makespan.sec();
  };
  const double without = run(false);
  const double with = run(true);
  EXPECT_LT(with, without - 0.005);  // saves roughly one ~10 ms transfer
}

TEST_F(FeaturesTest, FlushToHostGathersAllHandles) {
  Runtime rt{platform_, sim_, RuntimeOptions{}};
  Codelet writer;
  writer.name = "writer";
  writer.klass = hw::KernelClass::kGemm;
  writer.where = kWhereCuda;
  std::vector<DataHandle*> outputs;
  for (int i = 0; i < 6; ++i) {
    DataHandle* h = rt.register_data(64ull << 20);
    outputs.push_back(h);
    TaskDesc desc;
    desc.codelet = &writer;
    desc.work = work_;
    desc.accesses = {{h, AccessMode::kWrite}};
    rt.submit(std::move(desc));
  }
  rt.wait_all();
  int on_device = 0;
  for (DataHandle* h : outputs) {
    on_device += !h->valid_on(kHostNode);
  }
  EXPECT_GT(on_device, 0);  // results live on the GPUs after the run

  const sim::SimTime before = sim_.now();
  const sim::SimTime done = rt.flush_to_host();
  EXPECT_GT(done, before);  // the gather costs virtual time
  for (DataHandle* h : outputs) {
    EXPECT_TRUE(h->valid_on(kHostNode));
  }
  // A second flush is free: everything already resides on the host.
  EXPECT_EQ(rt.flush_to_host(), done);
}

}  // namespace
}  // namespace greencap::rt
