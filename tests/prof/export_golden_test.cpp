// Golden digests of every artifact one fully instrumented run exports.
//
// A 6-tile POTRF on 32-AMD-4-A100 with every capture on, a fixed fault
// plan and a checkpoint session writes a trace, metrics, telemetry,
// decision log, degradation report, profile JSON, HTML report and a
// boundary checkpoint. Each file's 64-bit FNV-1a digest is pinned here, so
// any writer change that is meant to be a pure speed-up must reproduce the
// exported bytes exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "core/checkpoint.hpp"
#include "core/experiment.hpp"
#include "obs/trace_export.hpp"
#include "prof/html_report.hpp"
#include "prof/profile.hpp"

namespace greencap::core {
namespace {

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <typename Writer>
std::string render(Writer&& writer) {
  std::ostringstream os;
  writer(os);
  return os.str();
}

ExperimentConfig instrumented_potrf() {
  ExperimentConfig cfg;
  cfg.platform = "32-AMD-4-A100";
  cfg.op = Operation::kPotrf;
  cfg.precision = hw::Precision::kDouble;
  cfg.nb = 2880;
  cfg.n = 6 * cfg.nb;
  cfg.gpu_config = power::GpuConfig::parse("HHBB");
  cfg.seed = 7;
  cfg.obs.trace = true;
  cfg.obs.metrics = true;
  cfg.obs.decision_log = true;
  cfg.obs.telemetry_period_ms = 1.0;
  cfg.obs.profile = true;
  cfg.resilience.faults =
      "capfail@gpu2:count=1;drift@gpu3:t=0.01,factor=0.8;"
      "straggler@gpu0:t=0.005,until=0.03,factor=2;dropout@gpu1:t=0.02";
  cfg.resilience.fault_seed = 11;
  cfg.resilience.degrade = true;
  cfg.resilience.reconcile_ms = 5.0;
  return cfg;
}

TEST(ExportGolden, InstrumentedRunArtifactsAreByteStable) {
  const std::string path = ::testing::TempDir() + "export_golden_" +
                           std::to_string(reinterpret_cast<std::uintptr_t>(&path)) + ".gckp";
  std::remove(path.c_str());
  CheckpointOptions options;
  options.path = path;
  options.every_ms = 10.0;
  CheckpointSession session{options};
  const ExperimentConfig cfg = instrumented_potrf();
  const ExperimentResult result = run_experiment(cfg, &session);
  ASSERT_NE(result.observability, nullptr);
  const ObservabilityData& data = *result.observability;
  ASSERT_FALSE(result.degradation.empty());
  ASSERT_GT(session.writes(), 0);

  prof::AnalyzeOptions popts;
  popts.decisions = &data.decisions;
  popts.telemetry = &data.telemetry;
  const prof::Profile profile = prof::analyze(data.capture, popts);

  const std::string trace = render([&](std::ostream& os) {
    obs::ChromeTraceOptions topts;
    topts.telemetry = &data.telemetry;
    topts.worker_names = data.worker_names;
    obs::write_chrome_trace(os, data.trace, topts);
  });
  const std::string metrics = render([&](std::ostream& os) { data.metrics.write_json(os); });
  const std::string telemetry = render([&](std::ostream& os) { data.telemetry.write_json(os); });
  const std::string decisions = render([&](std::ostream& os) { data.decisions.write_json(os); });
  const std::string degradation =
      render([&](std::ostream& os) { result.degradation.write_json(os); });
  const std::string profile_json = render([&](std::ostream& os) { profile.write_json(os); });
  const std::string html = render([&](std::ostream& os) { prof::write_html_report(os, profile); });

  session.commit(cfg, result);
  std::ifstream in{path, std::ios::binary};
  ASSERT_TRUE(in);
  const std::string checkpoint{std::istreambuf_iterator<char>{in}, {}};
  in.close();
  std::remove(path.c_str());

  // Recorded from the snprintf-based writers these replaced.
  EXPECT_EQ(fnv1a64(trace), 0x1e4df00ffbe902f9ULL) << "trace.json";
  EXPECT_EQ(fnv1a64(metrics), 0x3a576aafdf453090ULL) << "metrics.json";
  EXPECT_EQ(fnv1a64(telemetry), 0x4ed342e89969976cULL) << "telemetry.json";
  EXPECT_EQ(fnv1a64(decisions), 0x3462fa0930937ab2ULL) << "decisions.json";
  EXPECT_EQ(fnv1a64(degradation), 0x00bd12e231678aebULL) << "degradation.json";
  EXPECT_EQ(fnv1a64(profile_json), 0xca051ee19c040beaULL) << "profile.json";
  EXPECT_EQ(fnv1a64(html), 0xb2682f0ffb9b14b0ULL) << "report.html";
  EXPECT_EQ(fnv1a64(checkpoint), 0x380e08d90df78a79ULL) << "boundary .gckp";
}

}  // namespace
}  // namespace greencap::core
