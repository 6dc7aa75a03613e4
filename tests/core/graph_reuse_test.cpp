// Task-graph reuse through the campaign cache: a run that instantiates a
// cached graph must equal a run that submits its own, bit for bit, in its
// results and in every exported artifact. Covers every operation and
// precision, kernel numerics through the shared argument packs, and a GPU
// dropout whose requeue touches only the per-run task states.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/calibration_cache.hpp"
#include "core/experiment.hpp"
#include "core/run_context.hpp"
#include "hw/presets.hpp"
#include "la/operations.hpp"
#include "obs/trace_export.hpp"
#include "prof/profile.hpp"

namespace greencap::core {
namespace {

ExperimentConfig instrumented(Operation op, hw::Precision precision) {
  ExperimentConfig cfg;
  cfg.platform = "32-AMD-4-A100";
  cfg.op = op;
  cfg.precision = precision;
  cfg.nb = 2880;
  cfg.n = 4 * cfg.nb;
  cfg.gpu_config = power::GpuConfig::parse("HHBB");
  cfg.seed = 7;
  cfg.obs.trace = true;
  cfg.obs.metrics = true;
  cfg.obs.decision_log = true;
  cfg.obs.telemetry_period_ms = 1.0;
  cfg.obs.profile = true;
  return cfg;
}

/// Every artifact a run can export, rendered to bytes.
std::vector<std::string> artifacts(const ExperimentResult& r) {
  const ObservabilityData& data = *r.observability;
  std::vector<std::string> out;
  auto render = [&out](auto&& writer) {
    std::ostringstream os;
    writer(os);
    out.push_back(os.str());
  };
  render([&](std::ostream& os) {
    obs::ChromeTraceOptions topts;
    topts.telemetry = &data.telemetry;
    topts.worker_names = data.worker_names;
    obs::write_chrome_trace(os, data.trace, topts);
  });
  render([&](std::ostream& os) { data.metrics.write_json(os); });
  render([&](std::ostream& os) { data.telemetry.write_json(os); });
  render([&](std::ostream& os) { data.decisions.write_json(os); });
  render([&](std::ostream& os) { r.degradation.write_json(os); });
  render([&](std::ostream& os) {
    prof::AnalyzeOptions popts;
    popts.decisions = &data.decisions;
    popts.telemetry = &data.telemetry;
    prof::analyze(data.capture, popts).write_json(os);
  });
  return out;
}

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.time_s, b.time_s);
  EXPECT_EQ(a.total_energy_j, b.total_energy_j);
  EXPECT_EQ(a.energy.gpu_joules, b.energy.gpu_joules);
  EXPECT_EQ(a.energy.cpu_joules, b.energy.cpu_joules);
  EXPECT_EQ(a.cpu_tasks, b.cpu_tasks);
  EXPECT_EQ(a.gpu_tasks, b.gpu_tasks);
  EXPECT_EQ(a.stats.tasks_submitted, b.stats.tasks_submitted);
  EXPECT_EQ(a.stats.tasks_completed, b.stats.tasks_completed);
  EXPECT_EQ(a.stats.dependency_edges, b.stats.dependency_edges);
  EXPECT_EQ(a.stats.total_bytes_transferred, b.stats.total_bytes_transferred);
  EXPECT_EQ(a.fault_counts.dropouts, b.fault_counts.dropouts);
  if (a.observability != nullptr && b.observability != nullptr) {
    const std::vector<std::string> x = artifacts(a);
    const std::vector<std::string> y = artifacts(b);
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i], y[i]) << "artifact " << i;
    }
  }
}

/// Runs `cfg` through a cache whose graph for cfg's shape was built by a
/// run of mirrored caps and another scheduler, so `cfg`'s own run is a hit.
ExperimentResult run_with_cached_graph(const ExperimentConfig& cfg) {
  CalibrationCache cache;
  RunServices services;
  services.calibration = &cache;
  ExperimentConfig builder = cfg;
  std::string ladder = cfg.gpu_config.to_string();
  builder.gpu_config = power::GpuConfig::parse({ladder.rbegin(), ladder.rend()});
  builder.scheduler = "eager";
  builder.obs = {};
  builder.resilience = {};
  (void)run_experiment(builder, services);
  ExperimentResult hit = run_experiment(cfg, services);
  EXPECT_EQ(cache.graph_misses(), 1u);
  EXPECT_EQ(cache.graph_hits(), 1u);
  return hit;
}

struct ReuseCase {
  const char* name;
  Operation op;
  hw::Precision precision;
};

void PrintTo(const ReuseCase& c, std::ostream* os) { *os << c.name; }

class GraphReuse : public ::testing::TestWithParam<ReuseCase> {};

TEST_P(GraphReuse, CachedGraphRunEqualsFreshRun) {
  const ReuseCase& c = GetParam();
  const ExperimentConfig cfg = instrumented(c.op, c.precision);
  const ExperimentResult fresh = run_experiment(cfg);
  const ExperimentResult cached = run_with_cached_graph(cfg);
  ASSERT_NE(cached.observability, nullptr);
  expect_identical(fresh, cached);
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, GraphReuse,
    ::testing::Values(ReuseCase{"dgemm", Operation::kGemm, hw::Precision::kDouble},
                      ReuseCase{"sgemm", Operation::kGemm, hw::Precision::kSingle},
                      ReuseCase{"dpotrf", Operation::kPotrf, hw::Precision::kDouble},
                      ReuseCase{"spotrf", Operation::kPotrf, hw::Precision::kSingle},
                      ReuseCase{"dgetrf", Operation::kGetrf, hw::Precision::kDouble},
                      ReuseCase{"sgetrf", Operation::kGetrf, hw::Precision::kSingle},
                      ReuseCase{"dgeqrf", Operation::kGeqrf, hw::Precision::kDouble},
                      ReuseCase{"sgeqrf", Operation::kGeqrf, hw::Precision::kSingle},
                      ReuseCase{"dgelqf", Operation::kGelqf, hw::Precision::kDouble},
                      ReuseCase{"sgelqf", Operation::kGelqf, hw::Precision::kSingle}),
    [](const ::testing::TestParamInfo<ReuseCase>& param_info) {
      return std::string{param_info.param.name};
    });

TEST(GraphReuseFaults, DropoutRequeueOnACachedGraphEqualsFreshRun) {
  ExperimentConfig cfg = instrumented(Operation::kPotrf, hw::Precision::kDouble);
  cfg.n = 8 * cfg.nb;
  cfg.resilience.faults = "dropout@gpu1:t=0.01";
  const ExperimentResult fresh = run_experiment(cfg);
  ASSERT_EQ(fresh.fault_counts.dropouts, 1u);
  ASSERT_FALSE(fresh.degradation.empty());
  const ExperimentResult cached = run_with_cached_graph(cfg);
  expect_identical(fresh, cached);
}

TEST(GraphReuseKernels, ExecuteKernelsOnACachedGraphEqualsFreshRun) {
  ExperimentConfig cfg;
  cfg.platform = "24-Intel-2-V100";
  cfg.op = Operation::kGetrf;
  cfg.precision = hw::Precision::kDouble;
  cfg.n = 64;
  cfg.nb = 16;
  cfg.gpu_config = power::GpuConfig::parse("HB");
  cfg.execute_kernels = true;
  expect_identical(run_experiment(cfg), run_with_cached_graph(cfg));
}

/// Factors an SPD matrix through the runtime: by submission, or, when
/// `graph` is set, by instantiating it over this run's own tiles.
std::vector<double> factor(std::shared_ptr<const rt::TaskGraph> graph,
                           std::shared_ptr<const rt::TaskGraph>* built) {
  static const la::Codelets<double> codelets;
  hw::Platform platform{hw::presets::platform_24_intel_2_v100()};
  sim::Simulator sim;
  rt::RuntimeOptions opts;
  opts.execute_kernels = true;
  rt::Runtime runtime{platform, sim, opts};
  la::TileMatrix<double> a{64, 16};
  sim::Xoshiro256 rng{3};
  a.make_spd(rng);
  a.register_with(runtime);
  if (graph != nullptr) {
    runtime.instantiate(std::move(graph));
  } else {
    la::submit_potrf<double>(runtime, codelets, a);
  }
  runtime.wait_all();
  if (built != nullptr) {
    *built = runtime.graph();
  }
  return a.to_dense();
}

TEST(GraphReuseKernels, SharedArgumentPacksDriveTheSameNumerics) {
  std::shared_ptr<const rt::TaskGraph> graph;
  const std::vector<double> submitted = factor(nullptr, &graph);
  ASSERT_NE(graph, nullptr);
  // Two more runs over their own storage: each must reproduce the factor.
  EXPECT_EQ(factor(graph, nullptr), submitted);
  EXPECT_EQ(factor(graph, nullptr), submitted);
}

TEST(GraphReuseContract, MisuseIsRejected) {
  static const la::Codelets<double> codelets;
  hw::Platform platform{hw::presets::platform_24_intel_2_v100()};
  sim::Simulator sim;
  rt::Runtime builder{platform, sim};
  la::TileMatrix<double> a{64, 16, /*allocate=*/false};
  a.register_with(builder);
  la::submit_potrf<double>(builder, codelets, a);
  const std::shared_ptr<const rt::TaskGraph> graph = builder.graph();
  // A shared graph takes no more tasks.
  rt::TaskDesc more;
  more.codelet = &codelets.potrf();
  EXPECT_THROW(builder.submit(std::move(more)), std::logic_error);
  // Instantiating needs the graph's handles.
  hw::Platform platform2{hw::presets::platform_24_intel_2_v100()};
  sim::Simulator sim2;
  rt::Runtime bare{platform2, sim2};
  EXPECT_THROW(bare.instantiate(graph), std::invalid_argument);
  EXPECT_EQ(bare.task_count(), 0u);
  // The builder runs its own graph, as a cache miss does, but only once.
  EXPECT_NO_THROW(builder.instantiate(graph));
  EXPECT_EQ(builder.task_count(), graph->size());
  EXPECT_THROW(builder.instantiate(graph), std::logic_error);
}

}  // namespace
}  // namespace greencap::core
