// Fault-schedule fuzzer: random DAGs x random fault plans.
//
// Extends the sequential-consistency oracle of tests/rt/fuzz_test.cpp with
// randomly generated straggler and dropout schedules (the fault kinds the
// runtime itself must absorb). Whatever the plan does — quarantine workers
// mid-task, stretch kernels, evict queues — three invariants must hold:
//
//   1. numerical correctness: the parallel execution still matches the
//      sequential replay of the submission order,
//   2. liveness: wait_all() returns with every submitted task completed,
//   3. determinism: the same (DAG seed, plan, fault seed) replays to the
//      identical makespan and cell values, and the energy accounting stays
//      finite and non-negative.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "fault/degradation.hpp"
#include "fault/injector.hpp"
#include "hw/presets.hpp"
#include "rt/runtime.hpp"
#include "sim/rng.hpp"

namespace greencap::rt {
namespace {

struct FaultFuzzCase {
  const char* scheduler;
  std::uint64_t seed;
  int handles;
  int tasks;
};

struct ScriptTask {
  std::vector<std::pair<int, AccessMode>> accesses;
  double flops = 0.0;
  std::int64_t priority = 0;
};

/// Random straggler/dropout schedule. Task durations are 0.01-0.11 s, so
/// activation times up to ~1 s land inside the DAG's makespan.
std::string random_plan(sim::Xoshiro256& rng, std::size_t gpu_count) {
  std::ostringstream spec;
  const int events = 1 + static_cast<int>(rng.below(3));
  for (int e = 0; e < events; ++e) {
    if (e > 0) spec << ';';
    const std::uint64_t gpu = rng.below(gpu_count);
    if (rng.below(2) == 0) {
      spec << "dropout@gpu" << gpu << ":t=" << 0.05 + rng.uniform();
    } else {
      const double t = 0.5 * rng.uniform();
      spec << "straggler@gpu" << gpu << ":t=" << t << ",until=" << t + 0.5 + rng.uniform()
           << ",factor=" << 1.5 + 3.0 * rng.uniform();
    }
  }
  return spec.str();
}

struct RunResult {
  std::vector<std::int64_t> cells;
  double makespan_s = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t quarantined = 0;
  double energy_j = 0.0;
};

RunResult run_with_faults(const FaultFuzzCase& fc, const std::vector<ScriptTask>& script,
                          const std::string& plan, std::uint64_t fault_seed) {
  const Codelet folder = [] {
    Codelet c;
    c.name = "folder";
    c.klass = hw::KernelClass::kGeneric;
    c.where = kWhereAny;
    c.cpu_func = [](Task& task) {
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < task.accesses().size(); ++i) {
        if (task.accesses()[i].mode != AccessMode::kWrite) {
          acc = acc * 131 + static_cast<std::uint64_t>(
                                *static_cast<std::int64_t*>(task.handle(i)->host_ptr()));
        }
      }
      for (std::size_t i = 0; i < task.accesses().size(); ++i) {
        if (is_write(task.accesses()[i].mode)) {
          *static_cast<std::int64_t*>(task.handle(i)->host_ptr()) =
              static_cast<std::int64_t>(acc * 31 + static_cast<std::uint64_t>(task.id()));
        }
      }
    };
    return c;
  }();

  hw::Platform platform{hw::presets::platform_32_amd_4_a100()};
  sim::Simulator sim;
  fault::FaultInjector injector{fault::FaultPlan::parse(plan), fault_seed};
  fault::DegradationReport degradation;
  RuntimeOptions opts;
  opts.scheduler = fc.scheduler;
  opts.execute_kernels = true;
  opts.exec_noise_rel = 0.10;  // jitter the timing to vary interleavings
  opts.seed = fc.seed;
  opts.faults = &injector;
  opts.degradation = &degradation;
  Runtime runtime{platform, sim, opts};

  RunResult out;
  out.cells.resize(static_cast<std::size_t>(fc.handles));
  std::vector<DataHandle*> handles(static_cast<std::size_t>(fc.handles));
  for (int h = 0; h < fc.handles; ++h) {
    out.cells[static_cast<std::size_t>(h)] = h + 1;
    handles[static_cast<std::size_t>(h)] =
        runtime.register_data(sizeof(std::int64_t), &out.cells[static_cast<std::size_t>(h)]);
  }
  injector.arm(sim);
  for (const ScriptTask& st : script) {
    TaskDesc desc;
    desc.codelet = &folder;
    desc.work =
        hw::KernelWork{hw::KernelClass::kGeneric, hw::Precision::kDouble, st.flops, 1024};
    desc.priority = st.priority;
    for (const auto& [h, mode] : st.accesses) {
      desc.accesses.push_back({handles[static_cast<std::size_t>(h)], mode});
    }
    runtime.submit(std::move(desc));
  }
  runtime.wait_all();

  const RuntimeStats stats = runtime.stats();
  out.makespan_s = stats.makespan.sec();
  out.completed = stats.tasks_completed;
  for (std::size_t w = 0; w < runtime.worker_count(); ++w) {
    if (runtime.worker(w).quarantined) ++out.quarantined;
  }
  const hw::EnergyReading energy = platform.read_energy(sim.now());
  out.energy_j = energy.total();
  return out;
}

class FaultFuzz : public ::testing::TestWithParam<FaultFuzzCase> {};

TEST_P(FaultFuzz, RandomFaultsPreserveCorrectnessLivenessAndDeterminism) {
  const FaultFuzzCase& fc = GetParam();
  sim::Xoshiro256 rng{fc.seed};

  // Random access script (same generator as the clean DAG fuzzer, plus
  // per-task work so kernels span real virtual time for faults to hit).
  std::vector<ScriptTask> script(static_cast<std::size_t>(fc.tasks));
  for (auto& st : script) {
    const int n_acc = 1 + static_cast<int>(rng.below(4));
    std::vector<bool> used(static_cast<std::size_t>(fc.handles), false);
    for (int a = 0; a < n_acc; ++a) {
      const int h = static_cast<int>(rng.below(static_cast<std::uint64_t>(fc.handles)));
      if (used[static_cast<std::size_t>(h)]) continue;
      used[static_cast<std::size_t>(h)] = true;
      st.accesses.emplace_back(h, static_cast<AccessMode>(rng.below(3)));
    }
    if (st.accesses.empty()) {
      st.accesses.emplace_back(0, AccessMode::kReadWrite);
    }
    st.flops = 1e11 + 1e12 * rng.uniform();
    st.priority = static_cast<std::int64_t>(rng.below(5));
  }
  const std::string plan = random_plan(rng, 4);
  SCOPED_TRACE("plan=" + plan);

  // Sequential reference.
  std::vector<std::int64_t> expected(static_cast<std::size_t>(fc.handles));
  for (int h = 0; h < fc.handles; ++h) expected[static_cast<std::size_t>(h)] = h + 1;
  // Both sides hash in wrapping unsigned arithmetic: signed overflow would
  // be undefined behaviour.
  for (std::size_t t = 0; t < script.size(); ++t) {
    std::uint64_t acc = 0;
    for (const auto& [h, mode] : script[t].accesses) {
      if (mode != AccessMode::kWrite) {
        acc = acc * 131 + static_cast<std::uint64_t>(expected[static_cast<std::size_t>(h)]);
      }
    }
    for (const auto& [h, mode] : script[t].accesses) {
      if (is_write(mode)) {
        expected[static_cast<std::size_t>(h)] = static_cast<std::int64_t>(acc * 31 + t);
      }
    }
  }

  const RunResult a = run_with_faults(fc, script, plan, fc.seed + 1);

  // 1. Numerical correctness under injected faults.
  EXPECT_EQ(a.cells, expected);
  // 2. Liveness: every task completed despite dropouts.
  EXPECT_EQ(a.completed, static_cast<std::uint64_t>(fc.tasks));
  // 3. Energy accounting survives dead devices.
  EXPECT_TRUE(std::isfinite(a.energy_j));
  EXPECT_GE(a.energy_j, 0.0);
  EXPECT_GT(a.makespan_s, 0.0);

  // 4. Determinism: identical (DAG, plan, seeds) replays bit-identically.
  const RunResult b = run_with_faults(fc, script, plan, fc.seed + 1);
  EXPECT_EQ(b.cells, expected);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.quarantined, b.quarantined);
}

INSTANTIATE_TEST_SUITE_P(
    SchedulersAndSeeds, FaultFuzz,
    ::testing::Values(FaultFuzzCase{"eager", 21, 6, 120}, FaultFuzzCase{"ws", 22, 8, 120},
                      FaultFuzzCase{"dm", 23, 6, 120}, FaultFuzzCase{"dmda", 24, 8, 150},
                      FaultFuzzCase{"dmdas", 25, 6, 120}, FaultFuzzCase{"dmdas", 26, 12, 200},
                      FaultFuzzCase{"random", 27, 6, 120}, FaultFuzzCase{"dmdae", 28, 8, 150}),
    [](const auto& param_info) {
      return std::string{param_info.param.scheduler} + "_seed" +
             std::to_string(param_info.param.seed);
    });

}  // namespace
}  // namespace greencap::rt
