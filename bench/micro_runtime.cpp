// Microbenchmarks of the simulation substrate itself (google-benchmark):
// event-queue throughput, dependency inference, scheduler decision cost
// and end-to-end simulated tasks per second. These bound how large an
// experiment campaign the harness can sweep.
#include <benchmark/benchmark.h>

#include "hw/presets.hpp"
#include "la/codelets.hpp"
#include "la/operations.hpp"
#include "la/tile_matrix.hpp"
#include "rt/runtime.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

using namespace greencap;

namespace {

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < state.range(0); ++i) {
      q.schedule(sim::SimTime::seconds(static_cast<double>(i % 97)), [] {});
    }
    while (!q.empty()) {
      benchmark::DoNotOptimize(q.pop().first);
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1000)->Arg(10000);

void BM_SimulatorEventCascade(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int remaining = static_cast<int>(state.range(0));
    std::function<void()> hop = [&] {
      if (--remaining > 0) {
        sim.after(sim::SimTime::micros(1.0), hop);
      }
    };
    sim.after(sim::SimTime::micros(1.0), hop);
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorEventCascade)->Arg(10000);

void BM_GemmGraphSubmission(benchmark::State& state) {
  const int nt = static_cast<int>(state.range(0));
  la::Codelets<double> cl;
  for (auto _ : state) {
    hw::Platform platform{hw::presets::platform_32_amd_4_a100()};
    sim::Simulator sim;
    rt::Runtime rt{platform, sim, rt::RuntimeOptions{}};
    la::TileMatrix<double> a{static_cast<std::int64_t>(nt) * 64, 64, false};
    la::TileMatrix<double> b{static_cast<std::int64_t>(nt) * 64, 64, false};
    la::TileMatrix<double> c{static_cast<std::int64_t>(nt) * 64, 64, false};
    a.register_with(rt);
    b.register_with(rt);
    c.register_with(rt);
    la::submit_gemm<double>(rt, cl, a, b, c);
    rt.instantiate(rt.graph());
    benchmark::DoNotOptimize(rt.task_count());
  }
  state.SetItemsProcessed(state.iterations() * nt * nt * nt);
  state.SetLabel("tasks submitted/iter: " + std::to_string(nt * nt * nt));
}
BENCHMARK(BM_GemmGraphSubmission)->Arg(8)->Arg(13);

void BM_FullGemmSimulation(benchmark::State& state) {
  const int nt = static_cast<int>(state.range(0));
  la::Codelets<double> cl;
  for (auto _ : state) {
    hw::Platform platform{hw::presets::platform_32_amd_4_a100()};
    sim::Simulator sim;
    rt::Runtime rt{platform, sim, rt::RuntimeOptions{}};
    la::TileMatrix<double> a{static_cast<std::int64_t>(nt) * 5760, 5760, false};
    la::TileMatrix<double> b{static_cast<std::int64_t>(nt) * 5760, 5760, false};
    la::TileMatrix<double> c{static_cast<std::int64_t>(nt) * 5760, 5760, false};
    a.register_with(rt);
    b.register_with(rt);
    c.register_with(rt);
    la::submit_gemm<double>(rt, cl, a, b, c);
    rt.wait_all();
    benchmark::DoNotOptimize(rt.stats().makespan);
  }
  state.SetItemsProcessed(state.iterations() * nt * nt * nt);
}
BENCHMARK(BM_FullGemmSimulation)->Arg(8)->Arg(13)->Unit(benchmark::kMillisecond);

void BM_FullCholeskySimulation(benchmark::State& state) {
  const int nt = static_cast<int>(state.range(0));
  la::Codelets<double> cl;
  for (auto _ : state) {
    hw::Platform platform{hw::presets::platform_32_amd_4_a100()};
    sim::Simulator sim;
    rt::Runtime rt{platform, sim, rt::RuntimeOptions{}};
    la::TileMatrix<double> a{static_cast<std::int64_t>(nt) * 2880, 2880, false};
    a.register_with(rt);
    la::submit_potrf<double>(rt, cl, a);
    rt.wait_all();
    benchmark::DoNotOptimize(rt.stats().makespan);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(la::potrf_task_count(nt)));
}
BENCHMARK(BM_FullCholeskySimulation)->Arg(20)->Arg(60)->Unit(benchmark::kMillisecond);

void BM_SchedulerComparison(benchmark::State& state, const char* scheduler) {
  la::Codelets<double> cl;
  for (auto _ : state) {
    hw::Platform platform{hw::presets::platform_32_amd_4_a100()};
    sim::Simulator sim;
    rt::RuntimeOptions opts;
    opts.scheduler = scheduler;
    rt::Runtime rt{platform, sim, opts};
    la::TileMatrix<double> a{10 * 2880, 2880, false};
    a.register_with(rt);
    la::submit_potrf<double>(rt, cl, a);
    rt.wait_all();
    benchmark::DoNotOptimize(rt.stats().makespan);
  }
}
BENCHMARK_CAPTURE(BM_SchedulerComparison, eager, "eager")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SchedulerComparison, dm, "dm")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SchedulerComparison, dmda, "dmda")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SchedulerComparison, dmdas, "dmdas")->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
