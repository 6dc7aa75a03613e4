#include "prof/efficiency.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "prof/attribution.hpp"

#include "capture_fixture.hpp"

namespace greencap::prof {
namespace {

std::vector<EfficiencyCell> chain_table() {
  const RunCapture cap = testing::chain_capture();
  return efficiency_table(cap, attribute_energy(cap).task_energy_j);
}

TEST(Efficiency, AggregatesPerCodeletPerDevice) {
  const std::vector<EfficiencyCell> rows = chain_table();
  ASSERT_EQ(rows.size(), 2u);  // gemm@gpu0, potrf@cpu0 (sorted by codelet)

  const EfficiencyCell& gemm = rows[0];
  EXPECT_EQ(gemm.codelet, "gemm");
  EXPECT_EQ(gemm.kind, DeviceKind::kGpu);
  EXPECT_EQ(gemm.level, 'H');
  EXPECT_DOUBLE_EQ(gemm.cap_w, 400.0);
  EXPECT_EQ(gemm.tasks, 2u);
  EXPECT_DOUBLE_EQ(gemm.flops, 4e9);
  EXPECT_DOUBLE_EQ(gemm.exec_s, 4.0);
  EXPECT_DOUBLE_EQ(gemm.energy_j, 600.0);

  const EfficiencyCell& potrf = rows[1];
  EXPECT_EQ(potrf.codelet, "potrf");
  EXPECT_EQ(potrf.kind, DeviceKind::kCpu);
  EXPECT_EQ(potrf.tasks, 1u);
  EXPECT_DOUBLE_EQ(potrf.energy_j, 70.0);
}

TEST(Efficiency, DerivedMetricsFollowFromAggregates) {
  const std::vector<EfficiencyCell> rows = chain_table();
  const EfficiencyCell& gemm = rows[0];
  EXPECT_DOUBLE_EQ(gemm.gflops(), 1.0);              // 4e9 flops / 4 s
  EXPECT_DOUBLE_EQ(gemm.gflops_per_w(), 4.0 / 600.0);  // 4e9 / 600 J / 1e9
  EXPECT_DOUBLE_EQ(gemm.j_per_task(), 300.0);
  EXPECT_DOUBLE_EQ(gemm.edp_js(), 2400.0);
}

TEST(Efficiency, RunMetricsUseMeteredTotals) {
  const RunMetrics m = run_metrics(testing::chain_capture());
  EXPECT_DOUBLE_EQ(m.time_s, 9.0);
  EXPECT_DOUBLE_EQ(m.energy_j, 1480.0);
  EXPECT_DOUBLE_EQ(m.gflops, 7.5 / 9.0);
  EXPECT_DOUBLE_EQ(m.gflops_per_w, 7.5 / 1480.0);
  EXPECT_DOUBLE_EQ(m.edp_js, 1480.0 * 9.0);
  EXPECT_DOUBLE_EQ(m.eds_js2, 1480.0 * 81.0);
}

TEST(WhatIf, ScalesGpuTasksByRateRatio) {
  // Target B: GPU rate drops to 0.8x, so GPU durations scale by 1/0.8.
  const WhatIfEntry e = whatif_lower_bound(testing::chain_capture(), "B");
  EXPECT_DOUBLE_EQ(e.dag_bound_s, 2.5 + 2.5 + 3.5);  // chain t0->t1->t2
  EXPECT_DOUBLE_EQ(e.work_bound_s, 5.0);             // w0 busy 4 s x 1.25
  EXPECT_DOUBLE_EQ(e.lower_bound_s, 8.5);
  EXPECT_DOUBLE_EQ(e.vs_measured, 8.5 / 9.0);
}

TEST(WhatIf, RecordedConfigBoundsFromBelow) {
  // Target == recorded level: scale 1, so the bound is the ideal schedule
  // of the realized durations and can't exceed the measured makespan.
  const WhatIfEntry e = whatif_lower_bound(testing::chain_capture(), "H");
  EXPECT_DOUBLE_EQ(e.dag_bound_s, 7.5);
  EXPECT_DOUBLE_EQ(e.lower_bound_s, 7.5);
  EXPECT_LE(e.lower_bound_s, 9.0);
}

TEST(WhatIf, RejectsMalformedConfigs) {
  const RunCapture cap = testing::chain_capture();
  EXPECT_THROW((void)whatif_lower_bound(cap, "HH"), std::invalid_argument);
  EXPECT_THROW((void)whatif_lower_bound(cap, ""), std::invalid_argument);
  EXPECT_THROW((void)whatif_lower_bound(cap, "X"), std::invalid_argument);
}

TEST(WhatIf, LadderCoversLBThenAllH) {
  const std::vector<WhatIfEntry> ladder = whatif_ladder(testing::chain_capture());
  ASSERT_EQ(ladder.size(), 3u);  // one GPU: L, B, H
  EXPECT_EQ(ladder[0].config, "L");
  EXPECT_EQ(ladder[1].config, "B");
  EXPECT_EQ(ladder[2].config, "H");
  // Deeper caps can only push the bound up.
  EXPECT_GE(ladder[0].lower_bound_s, ladder[1].lower_bound_s);
  EXPECT_GE(ladder[1].lower_bound_s, ladder[2].lower_bound_s);
}

}  // namespace
}  // namespace greencap::prof
