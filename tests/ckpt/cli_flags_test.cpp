// FlagParser hardening: exact-match flags, strict numeric validation,
// unknown-flag rejection with a nearest-flag suggestion — exercised over
// the shared driver flag table the bench harness and greencap CLI register.
#include "core/cli_flags.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/driver.hpp"

using greencap::core::DriverFlags;
using greencap::core::FlagParser;
using greencap::core::edit_distance;

namespace {

/// A driver's table: a few driver-own flags plus the shared set, registered
/// through the same DriverFlags::register_on the real drivers call.
struct Table {
  bool csv = false;
  bool quick = false;
  std::string summary_json;
  std::int64_t n = 0;
  DriverFlags flags;

  FlagParser parser;

  Table() {
    parser.flag("--csv", &csv);
    parser.flag("--quick", &quick);
    parser.str("--summary-json", &summary_json);
    parser.i64("--n", &n);
    flags.register_on(parser);
  }

  std::string parse(std::vector<std::string> args) {
    std::vector<char*> argv;
    std::string argv0 = "prog";
    argv.push_back(argv0.data());
    for (std::string& a : args) argv.push_back(a.data());
    return parser.parse(static_cast<int>(argv.size()), argv.data());
  }
};

TEST(CliFlags, SpaceAndEqualsFormsBothParse) {
  Table t;
  ASSERT_EQ(t.parse({"--summary-json", "out.json", "--n=4096", "--csv",
                     "--telemetry-period-ms=2.5", "--fault-seed", "99",
                     "--checkpoint=ck.gckp", "--checkpoint-every-ms", "40",
                     "--ckpt-kill-after=3"}),
            "");
  EXPECT_EQ(t.summary_json, "out.json");
  EXPECT_EQ(t.n, 4096);
  EXPECT_TRUE(t.csv);
  EXPECT_EQ(t.flags.telemetry_period_ms, 2.5);
  EXPECT_EQ(t.flags.resilience.fault_seed, 99u);
  EXPECT_EQ(t.flags.checkpoint.path, "ck.gckp");
  EXPECT_EQ(t.flags.checkpoint.every_ms, 40.0);
  EXPECT_EQ(t.flags.checkpoint.kill_after, 3);
}

TEST(CliFlags, UnknownFlagIsRejectedWithSuggestion) {
  Table t;
  const std::string err = t.parse({"--sumary-json", "out.json"});
  EXPECT_NE(err.find("--sumary-json"), std::string::npos) << err;
  EXPECT_NE(err.find("--summary-json"), std::string::npos) << err;
}

TEST(CliFlags, PrefixOfARealFlagDoesNotMatch) {
  // The pre-hardening parsers matched by prefix; "--quic" must now fail.
  Table t;
  const std::string err = t.parse({"--quic"});
  EXPECT_FALSE(err.empty());
  EXPECT_NE(err.find("--quic"), std::string::npos) << err;
  EXPECT_FALSE(t.quick);
}

TEST(CliFlags, ExtendedFlagNameDoesNotMatch) {
  Table t;
  EXPECT_FALSE(t.parse({"--summary-jsonX", "f"}).empty());
  EXPECT_TRUE(t.summary_json.empty());
}

TEST(CliFlags, MalformedNumbersAreRejectedNotTruncated) {
  // atof-era parsers read "40abc" as 40; every token must parse in full.
  for (const auto& args : std::vector<std::vector<std::string>>{
           {"--n", "abc"},
           {"--n", "40abc"},
           {"--n", ""},
           {"--telemetry-period-ms", "1.5x"},
           {"--telemetry-period-ms", "--csv"},
           {"--fault-seed", "-3"},
           {"--cap-retries", "2.5"},
           {"--ckpt-kill-after", "0x3"},
       }) {
    Table t;
    const std::string err = t.parse(args);
    EXPECT_FALSE(err.empty()) << "accepted: --flag '" << args[1] << "'";
    EXPECT_NE(err.find(args[0]), std::string::npos) << err;
  }
}

TEST(CliFlags, MissingValueNamesTheFlag) {
  Table t;
  const std::string err = t.parse({"--summary-json"});
  EXPECT_NE(err.find("--summary-json"), std::string::npos) << err;
  EXPECT_NE(err.find("requires"), std::string::npos) << err;
}

TEST(CliFlags, BooleanFlagRejectsInlineValue) {
  Table t;
  const std::string err = t.parse({"--csv=yes"});
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(t.csv);
}

TEST(CliFlags, CustomValidatorErrorsNameTheFlag) {
  FlagParser parser;
  parser.value("--op", "NAME", [](const std::string& v) -> std::string {
    if (v == "gemm") return {};
    return "expects gemm, got '" + v + "'";
  });
  std::string a0 = "prog", a1 = "--op", a2 = "fft";
  char* argv[] = {a0.data(), a1.data(), a2.data()};
  const std::string err = parser.parse(3, argv);
  EXPECT_NE(err.find("--op"), std::string::npos) << err;
  EXPECT_NE(err.find("fft"), std::string::npos) << err;
}

TEST(CliFlags, EveryRegisteredFlagParsesItsOwnName) {
  // Table-driven sanity: each registered flag accepts a well-formed value
  // and rejects a one-character misspelling of its name.
  Table probe;
  for (const std::string& name : probe.parser.names()) {
    Table t;
    const bool takes_value = name != "--csv" && name != "--quick" && name != "--degrade";
    std::string good_value = "1";
    if (name == "--summary-json" || name == "--checkpoint" || name == "--resume") {
      good_value = "some-value";
    }
    if (name == "--faults") good_value = "capfail@gpu0:count=1";  // validated at parse time
    if (takes_value) {
      EXPECT_EQ(t.parse({name, good_value}), "") << name;
    } else {
      EXPECT_EQ(t.parse({name}), "") << name;
    }
    std::string typo = name;
    typo.back() = typo.back() == 'z' ? 'y' : 'z';
    const std::string err = t.parse(takes_value ? std::vector<std::string>{typo, good_value}
                                                : std::vector<std::string>{typo});
    EXPECT_FALSE(err.empty()) << "typo accepted: " << typo;
  }
}

TEST(CliFlags, SharedSetRejectsNegativeJobsAndParallelCheckpointing) {
  Table ok;
  ASSERT_EQ(ok.parse({"--jobs", "4", "--trace-json", "t.json"}), "");
  EXPECT_EQ(ok.flags.validate(), "");

  Table negative;
  ASSERT_EQ(negative.parse({"--jobs", "-1"}), "");
  EXPECT_NE(negative.flags.validate().find("--jobs"), std::string::npos);

  Table parallel;
  ASSERT_EQ(parallel.parse({"--jobs", "4", "--resume", "ck.gckp"}), "");
  EXPECT_NE(parallel.flags.validate().find("require --jobs 1"), std::string::npos)
      << parallel.flags.validate();
}

TEST(CliFlags, ObservabilityFollowsTheRequestedOutputs) {
  Table none;
  ASSERT_EQ(none.parse({}), "");
  EXPECT_FALSE(none.flags.observability().any());
  EXPECT_EQ(none.flags.observability(true).telemetry_period_ms, 10.0);

  Table profile;
  ASSERT_EQ(profile.parse({"--profile-html", "r.html", "--metrics-json", "m.json"}), "");
  const auto obs = profile.flags.observability();
  EXPECT_TRUE(obs.profile && obs.metrics && !obs.trace && !obs.decision_log);
  EXPECT_EQ(obs.telemetry_period_ms, 10.0);  // the profile needs power samples

  Table period;
  ASSERT_EQ(period.parse({"--trace-json", "t.json", "--telemetry-period-ms", "2"}), "");
  EXPECT_EQ(period.flags.observability().telemetry_period_ms, 2.0);
}

TEST(CliFlags, SuggestFindsNearestAndIgnoresFarTokens) {
  Table t;
  EXPECT_EQ(t.parser.suggest("--chekpoint"), "--checkpoint");
  EXPECT_EQ(t.parser.suggest("--watchdogms"), "--watchdog-ms");
  EXPECT_EQ(t.parser.suggest("--zzzzzzzzzzzzzzz"), "");
}

TEST(CliFlags, EditDistanceBasics) {
  EXPECT_EQ(edit_distance("", "abc"), 3u);
  EXPECT_EQ(edit_distance("abc", "abc"), 0u);
  EXPECT_EQ(edit_distance("kitten", "sitting"), 3u);
}

}  // namespace
