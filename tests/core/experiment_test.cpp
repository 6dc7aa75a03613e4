#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include "core/paper_params.hpp"

namespace greencap::core {
namespace {

ExperimentConfig small_gemm() {
  ExperimentConfig cfg;
  cfg.platform = "32-AMD-4-A100";
  cfg.op = Operation::kGemm;
  cfg.precision = hw::Precision::kDouble;
  cfg.n = 74880;
  cfg.nb = 5760;
  cfg.gpu_config = power::GpuConfig::parse("HHHH");
  return cfg;
}

TEST(Experiment, ValidatesGeometry) {
  ExperimentConfig cfg = small_gemm();
  cfg.n = 100;
  cfg.nb = 33;
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
}

TEST(Experiment, MetricsAreConsistent) {
  const ExperimentResult r = run_experiment(small_gemm());
  EXPECT_GT(r.time_s, 0.0);
  EXPECT_GT(r.total_energy_j, 0.0);
  const double flops = operation_flops(Operation::kGemm, 74880.0);
  EXPECT_NEAR(r.gflops, flops / r.time_s / 1e9, 1e-6);
  EXPECT_NEAR(r.efficiency_gflops_per_w, flops / r.total_energy_j / 1e9, 1e-6);
  EXPECT_NEAR(r.total_energy_j, r.energy.total(), 1e-9);
}

TEST(Experiment, EnergyBreakdownCoversAllDevices) {
  const ExperimentResult r = run_experiment(small_gemm());
  EXPECT_EQ(r.energy.cpu_joules.size(), 1u);
  EXPECT_EQ(r.energy.gpu_joules.size(), 4u);
  for (double j : r.energy.gpu_joules) {
    EXPECT_GT(j, 0.0);
  }
}

TEST(Experiment, TaskSplitCountsEverything) {
  const ExperimentResult r = run_experiment(small_gemm());
  EXPECT_EQ(r.cpu_tasks + r.gpu_tasks, r.stats.tasks_completed);
  EXPECT_EQ(r.stats.tasks_completed, 13u * 13u * 13u);
}

TEST(Experiment, DeterministicAcrossRuns) {
  const ExperimentResult a = run_experiment(small_gemm());
  const ExperimentResult b = run_experiment(small_gemm());
  EXPECT_DOUBLE_EQ(a.time_s, b.time_s);
  EXPECT_DOUBLE_EQ(a.total_energy_j, b.total_energy_j);
}

TEST(Experiment, PercentageHelpers) {
  ExperimentResult base;
  base.gflops = 100.0;
  base.total_energy_j = 1000.0;
  base.efficiency_gflops_per_w = 50.0;
  ExperimentResult other = base;
  other.gflops = 80.0;
  other.total_energy_j = 800.0;
  other.efficiency_gflops_per_w = 60.0;
  EXPECT_NEAR(other.perf_delta_pct(base), -20.0, 1e-9);
  EXPECT_NEAR(other.energy_saving_pct(base), 20.0, 1e-9);
  EXPECT_NEAR(other.efficiency_gain_pct(base), 20.0, 1e-9);
}

TEST(Experiment, DescribeMentionsKeyFields) {
  ExperimentConfig cfg = small_gemm();
  cfg.cpu_cap = CpuCap{1, 0.48};
  const std::string desc = cfg.describe();
  EXPECT_NE(desc.find("32-AMD-4-A100"), std::string::npos);
  EXPECT_NE(desc.find("GEMM"), std::string::npos);
  EXPECT_NE(desc.find("HHHH"), std::string::npos);
  EXPECT_NE(desc.find("cpu1@48%"), std::string::npos);
  // The percent is rounded: 0.57 * 100 and 0.29 * 100 land just below 57
  // and 29 in binary.
  cfg.cpu_cap = CpuCap{1, 0.57};
  EXPECT_NE(cfg.describe().find("cpu1@57%"), std::string::npos) << cfg.describe();
  cfg.cpu_cap = CpuCap{0, 0.29};
  EXPECT_NE(cfg.describe().find("cpu0@29%"), std::string::npos) << cfg.describe();
}

TEST(Experiment, OperationFlops) {
  EXPECT_DOUBLE_EQ(operation_flops(Operation::kGemm, 100.0), 2e6);
  EXPECT_NEAR(operation_flops(Operation::kPotrf, 100.0), 1e6 / 3.0, 6000.0);
  EXPECT_STREQ(to_string(Operation::kGemm), "GEMM");
  EXPECT_STREQ(to_string(Operation::kPotrf), "POTRF");
}

TEST(Experiment, CappedGpuSlowsExperiment) {
  const ExperimentResult base = run_experiment(small_gemm());
  ExperimentConfig cfg = small_gemm();
  cfg.gpu_config = power::GpuConfig::parse("LLLL");
  const ExperimentResult capped = run_experiment(cfg);
  EXPECT_LT(capped.gflops, base.gflops * 0.5);
}

TEST(Experiment, SchedulerOptionIsHonoured) {
  ExperimentConfig cfg = small_gemm();
  cfg.scheduler = "eager";
  const ExperimentResult eager = run_experiment(cfg);
  EXPECT_EQ(eager.stats.tasks_completed, 13u * 13u * 13u);
  // eager lets slow CPU workers grab GEMM tiles; dmdas should beat it.
  const ExperimentResult dmdas = run_experiment(small_gemm());
  EXPECT_GT(dmdas.gflops, eager.gflops);
}

TEST(Experiment, ExecuteKernelsOnSmallProblem) {
  ExperimentConfig cfg;
  cfg.platform = "24-Intel-2-V100";
  cfg.op = Operation::kPotrf;
  cfg.precision = hw::Precision::kDouble;
  cfg.n = 64;
  cfg.nb = 16;
  cfg.gpu_config = power::GpuConfig::parse("HH");
  cfg.execute_kernels = true;
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_EQ(r.stats.tasks_completed, static_cast<std::uint64_t>(4 * 5 * 6 / 6));
}

TEST(Experiment, CpuCapReducesCpuEnergy) {
  ExperimentConfig cfg;
  cfg.platform = "24-Intel-2-V100";
  cfg.op = Operation::kGemm;
  cfg.precision = hw::Precision::kDouble;
  cfg.n = 43200;
  cfg.nb = 2880;
  cfg.gpu_config = power::GpuConfig::parse("HH");
  const ExperimentResult uncapped = run_experiment(cfg);
  cfg.cpu_cap = CpuCap{paper::kCpuCapPackage, paper::kCpuCapFraction};
  const ExperimentResult capped = run_experiment(cfg);
  EXPECT_LT(capped.energy.cpu_joules[1], uncapped.energy.cpu_joules[1]);
}

}  // namespace
}  // namespace greencap::core
