#include "obs/decision_log.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace greencap::obs {
namespace {

Decision make_decision(DecisionLog& log, const std::string& codelet, DecisionArch arch,
                       double expected) {
  Decision d;
  d.task = 1;
  d.codelet = log.intern_codelet(codelet);
  d.arch = arch;
  d.chosen_worker = 0;
  d.expected_exec_s = expected;
  return d;
}

constexpr DecisionArch kCpu = DecisionArch::kCpu;
constexpr DecisionArch kCuda = DecisionArch::kCuda;

TEST(Decision, RelativeErrorAgainstRealized) {
  Decision d;
  d.expected_exec_s = 0.012;
  EXPECT_FALSE(d.realized());
  EXPECT_DOUBLE_EQ(d.relative_error(), 0.0);
  d.realized_exec_s = 0.010;
  EXPECT_TRUE(d.realized());
  EXPECT_NEAR(d.relative_error(), 0.2, 1e-12);  // expected 20 % above reality
}

TEST(DecisionLog, AddAndRealizeRoundTrip) {
  DecisionLog log;
  const std::size_t i = log.add(make_decision(log, "gemm", kCuda, 0.012));
  const std::size_t j = log.add(make_decision(log, "syrk", kCpu, 0.4));
  EXPECT_EQ(log.size(), 2u);
  log.realize(i, 0.010);
  EXPECT_TRUE(log.decisions()[i].realized());
  EXPECT_FALSE(log.decisions()[j].realized());
  EXPECT_EQ(log.codelet_name(log.decisions()[j].codelet), "syrk");
}

TEST(DecisionLog, InternsCodeletsOnce) {
  DecisionLog log;
  const std::uint32_t gemm = log.intern_codelet("gemm");
  const std::uint32_t syrk = log.intern_codelet("syrk");
  EXPECT_NE(gemm, syrk);
  EXPECT_EQ(log.intern_codelet("gemm"), gemm);
  EXPECT_EQ(log.codelet_name(gemm), "gemm");
}

TEST(DecisionLog, AlternativesAreSlicesOfOneArray) {
  DecisionLog log;
  log.add(make_decision(log, "gemm", kCuda, 0.012));
  log.add_alternative({0, 0.012, 0.001, 3.5});
  log.add_alternative({4, 0.300, 0.0, 9.0});
  log.add(make_decision(log, "potrf", kCpu, 0.5));
  log.add_alternative({5, 0.5, 0.0, 1.0});
  const auto first = log.alternatives(log.decisions()[0]);
  const auto second = log.alternatives(log.decisions()[1]);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[1].worker, 4);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].worker, 5);
}

TEST(DecisionLog, AccuracyReportGroupsByCodeletAndArch) {
  DecisionLog log;
  // gemm/cuda: model overestimates by 10 % then underestimates by 10 %.
  log.realize(log.add(make_decision(log, "gemm", kCuda, 1.1)), 1.0);
  log.realize(log.add(make_decision(log, "gemm", kCuda, 0.9)), 1.0);
  // gemm/cpu: spot on.
  log.realize(log.add(make_decision(log, "gemm", kCpu, 2.0)), 2.0);
  // Unrealized decision must not pollute the aggregates.
  log.add(make_decision(log, "gemm", kCuda, 5.0));

  const auto report = log.accuracy_report();
  ASSERT_EQ(report.size(), 2u);  // (gemm,cpu) and (gemm,cuda)
  const ModelAccuracy* cuda = nullptr;
  const ModelAccuracy* cpu = nullptr;
  for (const auto& row : report) {
    (row.arch == "cuda" ? cuda : cpu) = &row;
  }
  ASSERT_NE(cuda, nullptr);
  ASSERT_NE(cpu, nullptr);
  EXPECT_EQ(cuda->samples, 2u);
  EXPECT_NEAR(cuda->mean_rel_error, 0.1, 1e-12);     // |±10 %| averages to 10 %
  EXPECT_NEAR(cuda->mean_signed_error, 0.0, 1e-12);  // ...but signed errors cancel
  EXPECT_NEAR(cuda->worst_rel_error, 0.1, 1e-12);
  EXPECT_EQ(cpu->samples, 1u);
  EXPECT_NEAR(cpu->mean_rel_error, 0.0, 1e-12);

  EXPECT_NEAR(log.overall_mean_rel_error(), 0.2 / 3.0, 1e-12);
}

TEST(DecisionLog, AccuracyReportSortsByNameNotInternOrder) {
  DecisionLog log;
  log.realize(log.add(make_decision(log, "trsm", kCuda, 1.0)), 1.0);
  log.realize(log.add(make_decision(log, "gemm", kCuda, 1.0)), 1.0);
  log.realize(log.add(make_decision(log, "trsm", kCpu, 1.0)), 1.0);
  const auto report = log.accuracy_report();
  ASSERT_EQ(report.size(), 3u);
  EXPECT_EQ(report[0].codelet + "/" + report[0].arch, "gemm/cuda");
  EXPECT_EQ(report[1].codelet + "/" + report[1].arch, "trsm/cpu");
  EXPECT_EQ(report[2].codelet + "/" + report[2].arch, "trsm/cuda");
}

TEST(DecisionLog, JsonListsDecisionsWithAlternatives) {
  DecisionLog log;
  log.add(make_decision(log, "gemm", kCuda, 0.012));
  log.add_alternative({0, 0.012, 0.001, 3.5});
  log.add_alternative({4, 0.300, 0.0, 9.0});
  log.realize(0, 0.011);
  std::ostringstream oss;
  log.write_json(oss);
  const std::string json = oss.str();
  EXPECT_NE(json.find("\"decisions\""), std::string::npos);
  EXPECT_NE(json.find("\"codelet\": \"gemm\""), std::string::npos);
  EXPECT_NE(json.find("\"alternatives\""), std::string::npos);
  EXPECT_NE(json.find("0.012"), std::string::npos);
  EXPECT_NE(json.find("0.011"), std::string::npos);
}

TEST(DecisionLog, JsonTextIsExact) {
  DecisionLog log;
  log.realize(log.add(make_decision(log, "gemm", kCuda, 0.012)), 0.011);
  log.add_alternative({0, 0.012, 0.001, 3.5});
  log.add_alternative({4, 0.300, 0.0, 9.0});
  std::ostringstream oss;
  log.write_json(oss);
  EXPECT_EQ(oss.str(),
            "{\n  \"decisions\": [\n"
            "    {\"task\": 1, \"codelet\": \"gemm\", \"arch\": \"cuda\", \"worker\": 0, "
            "\"decided_at_s\": 0, \"queue_wait_s\": 0, \"expected_exec_s\": 0.012, "
            "\"realized_exec_s\": 0.011, \"alternatives\": ["
            "{\"worker\": 0, \"exec_s\": 0.012, \"transfer_s\": 0.001, \"energy_j\": 3.5}, "
            "{\"worker\": 4, \"exec_s\": 0.3, \"transfer_s\": 0, \"energy_j\": 9}]}\n"
            "  ]\n}\n");
}

TEST(DecisionLog, JsonOfEmptyLog) {
  std::ostringstream oss;
  DecisionLog{}.write_json(oss);
  EXPECT_EQ(oss.str(), "{\n  \"decisions\": []\n}\n");
}

TEST(DecisionLog, PrintAccuracyRendersTable) {
  DecisionLog log;
  log.realize(log.add(make_decision(log, "potrf", kCuda, 0.02)), 0.025);
  std::ostringstream oss;
  log.print_accuracy(oss);
  EXPECT_NE(oss.str().find("potrf"), std::string::npos);
  EXPECT_NE(oss.str().find("cuda"), std::string::npos);
}

}  // namespace
}  // namespace greencap::obs
