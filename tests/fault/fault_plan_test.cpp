// FaultPlan grammar: spec strings and the JSON document form must parse to
// the same events, reject malformed input with a diagnostic, and round-trip
// through to_string().
#include "fault/fault_plan.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

namespace greencap::fault {
namespace {

TEST(FaultPlan, EmptySpecIsEmptyPlan) {
  const FaultPlan plan = FaultPlan::parse("");
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.size(), 0u);
}

TEST(FaultPlan, ParsesSingleCapfail) {
  const FaultPlan plan = FaultPlan::parse("capfail@gpu0:p=0.5,code=not_supported");
  ASSERT_EQ(plan.size(), 1u);
  const FaultEvent& e = plan.events()[0];
  EXPECT_EQ(e.kind, FaultKind::kCapWriteFail);
  EXPECT_EQ(e.gpu, 0);
  EXPECT_DOUBLE_EQ(e.probability, 0.5);
  EXPECT_EQ(e.code, CapError::kNotSupported);
  EXPECT_FALSE(e.permanent);
}

TEST(FaultPlan, ParsesMultipleEvents) {
  const FaultPlan plan =
      FaultPlan::parse("dropout@gpu2:t=12;drift@gpu1:t=5,watts=150;straggler@gpu3:t=2,until=8,factor=2.5");
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kGpuDropout);
  EXPECT_EQ(plan.events()[0].gpu, 2);
  EXPECT_DOUBLE_EQ(plan.events()[0].t, 12.0);
  EXPECT_EQ(plan.events()[1].kind, FaultKind::kCapDrift);
  EXPECT_DOUBLE_EQ(plan.events()[1].watts, 150.0);
  EXPECT_EQ(plan.events()[2].kind, FaultKind::kStraggler);
  EXPECT_DOUBLE_EQ(plan.events()[2].until, 8.0);
  EXPECT_DOUBLE_EQ(plan.events()[2].factor, 2.5);
}

TEST(FaultPlan, AnyTargetAllowedForWindowedKinds) {
  const FaultPlan plan = FaultPlan::parse("capfail@any:p=0.1;straggler@*:factor=2");
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan.events()[0].gpu, -1);
  EXPECT_EQ(plan.events()[1].gpu, -1);
}

TEST(FaultPlan, OpenEndedWindowNormalisesToInfinity) {
  const FaultPlan plan = FaultPlan::parse("straggler@gpu0:t=3,factor=2");
  EXPECT_EQ(plan.events()[0].until, std::numeric_limits<double>::infinity());
}

TEST(FaultPlan, CountAndPermanentFlags) {
  const FaultPlan plan = FaultPlan::parse("capfail@gpu1:count=2;capfail@gpu2:perm=1");
  EXPECT_EQ(plan.events()[0].count, 2);
  EXPECT_TRUE(plan.events()[1].permanent);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("explode@gpu0"), std::invalid_argument);   // unknown kind
  EXPECT_THROW(FaultPlan::parse("capfail"), std::invalid_argument);        // no target
  EXPECT_THROW(FaultPlan::parse("capfail@gpu0:zap=1"), std::invalid_argument);  // unknown key
  EXPECT_THROW(FaultPlan::parse("capfail@gpu0:p=1.5"), std::invalid_argument);  // p out of range
  EXPECT_THROW(FaultPlan::parse("dropout@any:t=1"), std::invalid_argument);     // timed needs gpu
  EXPECT_THROW(FaultPlan::parse("dropout@gpu0:t=-1"), std::invalid_argument);   // negative time
  EXPECT_THROW(FaultPlan::parse("straggler@gpu0:factor=0.5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("capfail@gpu0:code=bogus"), std::invalid_argument);
}

TEST(FaultPlan, RejectsIntegersOutsideIntRange) {
  // Casting these doubles to int would be undefined behaviour.
  EXPECT_THROW(FaultPlan::parse("capfail@gpu0:count=1e20"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("capfail@gpu0:count=-3e9"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("capfail@gpu0:count=inf"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("capfail@gpu0:count=nan"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("capfail@gpu0:perm=1e300"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("capfail@gpu1e300"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("capfail@gpu0:count=2.5"), std::invalid_argument);
  std::istringstream huge_gpu{R"({"events":[{"kind":"capfail","gpu":1e300,"count":1}]})"};
  EXPECT_THROW(FaultPlan::parse_json(huge_gpu), std::invalid_argument);
  std::istringstream huge_count{R"({"events":[{"kind":"capfail","gpu":0,"count":1e20}]})"};
  EXPECT_THROW(FaultPlan::parse_json(huge_count), std::invalid_argument);
  std::istringstream fractional{R"({"events":[{"kind":"capfail","gpu":0.5}]})"};
  EXPECT_THROW(FaultPlan::parse_json(fractional), std::invalid_argument);
  // The bounds of int itself still parse.
  EXPECT_EQ(FaultPlan::parse("capfail@gpu0:count=2147483647").events()[0].count, 2147483647);
  EXPECT_EQ(FaultPlan::parse("capfail@gpu2147483647").events()[0].gpu, 2147483647);
}

TEST(FaultPlan, RejectsNonFiniteValues) {
  EXPECT_THROW(FaultPlan::parse("dropout@gpu0:t=nan"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("dropout@gpu0:t=inf"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("straggler@gpu0:t=1,until=nan,factor=2"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("capfail@gpu0:p=nan"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("straggler@gpu0:factor=inf"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("drift@gpu0:watts=inf"), std::invalid_argument);
  // An infinite end is an open window, as documented.
  EXPECT_TRUE(std::isinf(FaultPlan::parse("straggler@gpu0:t=1,until=inf,factor=2")
                             .events()[0]
                             .until));
}

TEST(FaultPlan, JsonDocumentFormMatchesSpecForm) {
  std::istringstream json{R"({"events": [
    {"kind": "dropout", "gpu": 2, "t": 12.0},
    {"kind": "capfail", "gpu": 0, "p": 0.25, "code": "no_permission"},
    {"kind": "straggler", "gpu": 1, "t": 2.0, "until": 8.0, "factor": 3.0}
  ]})"};
  const FaultPlan plan = FaultPlan::parse_json(json);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kGpuDropout);
  EXPECT_EQ(plan.events()[0].gpu, 2);
  EXPECT_DOUBLE_EQ(plan.events()[1].probability, 0.25);
  EXPECT_EQ(plan.events()[1].code, CapError::kNoPermission);
  EXPECT_DOUBLE_EQ(plan.events()[2].factor, 3.0);
}

TEST(FaultPlan, JsonRejectsUnknownKeysAndGarbage) {
  std::istringstream unknown{R"({"events": [{"kind": "dropout", "gpu": 0, "t": 1, "zap": 2}]})"};
  EXPECT_THROW(FaultPlan::parse_json(unknown), std::invalid_argument);
  std::istringstream garbage{"not json"};
  EXPECT_THROW(FaultPlan::parse_json(garbage), std::invalid_argument);
  std::istringstream trailing{R"({"events": []} trailing)"};
  EXPECT_THROW(FaultPlan::parse_json(trailing), std::invalid_argument);
}

TEST(FaultPlan, ToStringRoundTrips) {
  const std::string spec =
      "capfail@gpu0:p=0.5,code=not_supported;dropout@gpu2:t=12;straggler@gpu1:t=2,until=8,factor=2.5";
  const FaultPlan plan = FaultPlan::parse(spec);
  const FaultPlan replay = FaultPlan::parse(plan.to_string());
  ASSERT_EQ(replay.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(replay.events()[i].kind, plan.events()[i].kind) << i;
    EXPECT_EQ(replay.events()[i].gpu, plan.events()[i].gpu) << i;
    EXPECT_DOUBLE_EQ(replay.events()[i].t, plan.events()[i].t) << i;
    EXPECT_DOUBLE_EQ(replay.events()[i].probability, plan.events()[i].probability) << i;
    EXPECT_DOUBLE_EQ(replay.events()[i].factor, plan.events()[i].factor) << i;
    EXPECT_EQ(replay.events()[i].code, plan.events()[i].code) << i;
  }
}

TEST(FaultPlan, MissingJsonFileThrows) {
  EXPECT_THROW(FaultPlan::parse("@/nonexistent/fault_plan.json"), std::invalid_argument);
}

}  // namespace
}  // namespace greencap::fault
