// Seeded mutation tests of FlagParser over a driver's full flag table.
//
// Real command lines are mutated token by token: tokens dropped,
// duplicated or truncated, a flag joined to its value with '=', bytes
// flipped, values replaced by out-of-range, non-finite and malformed
// numbers. FlagParser::parse must never throw: it accepts the line or
// returns the error a driver prints before exiting 2, which names the
// offending flag ("flag '--x' ...") or token ("unknown flag '...'").
// DriverFlags::validate must not throw on whatever parse accepted.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <iterator>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "core/cli_flags.hpp"
#include "core/driver.hpp"
#include "hw/presets.hpp"
#include "power/config.hpp"
#include "sim/rng.hpp"

namespace greencap::core {
namespace {

/// The greencap CLI's table: its own flags plus the shared driver flags.
struct Table {
  DriverFlags flags;
  std::string platform;
  std::int64_t n = 0;
  int nb = 0;
  std::uint64_t seed = 0;
  bool baseline = false;
  FlagParser parser;

  Table() {
    parser.value("--platform", "NAME", [this](const std::string& name) -> std::string {
      try {
        (void)hw::presets::platform_by_name(name);
      } catch (const std::invalid_argument&) {
        return "expects a platform name, got '" + name + "'";
      }
      platform = name;
      return {};
    });
    parser.value("--config", "CFG", [](const std::string& text) -> std::string {
      try {
        (void)power::GpuConfig::parse(text);
      } catch (const std::invalid_argument&) {
        return "expects H/B/L letters, got '" + text + "'";
      }
      return {};
    });
    parser.i64("--n", &n);
    parser.i32("--nb", &nb);
    parser.u64("--seed", &seed);
    parser.flag("--baseline", &baseline);
    flags.register_on(parser);
  }
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;
};

const std::vector<std::vector<std::string>>& corpus() {
  static const std::vector<std::vector<std::string>> lines{
      {"--platform", "32-AMD-4-A100", "--n", "23040", "--nb", "2880", "--config", "HHBB",
       "--jobs", "2", "--baseline"},
      {"--checkpoint=run.gckp", "--checkpoint-every-ms", "40", "--ckpt-kill-after", "1",
       "--faults", "dropout@gpu1:t=0.02", "--fault-seed=11", "--degrade", "--reconcile-ms", "5"},
      {"--trace-json", "t.json", "--metrics-json=m.json", "--profile-json", "p.json",
       "--telemetry-period-ms", "1e-3", "--seed", "18446744073709551615", "--cap-retries", "-3"},
  };
  return lines;
}

void parse_must_accept_or_reject(const std::vector<std::string>& tokens) {
  std::vector<std::string> args{"greencap"};
  args.insert(args.end(), tokens.begin(), tokens.end());
  std::vector<char*> argv;
  for (std::string& a : args) {
    argv.push_back(a.data());
  }
  std::string line;
  for (const std::string& t : tokens) {
    line += " [" + t + "]";
  }
  try {
    Table table;
    const std::string err = table.parser.parse(static_cast<int>(argv.size()), argv.data());
    if (err.empty()) {
      (void)table.flags.validate();
    } else {
      EXPECT_TRUE(err.rfind("flag '", 0) == 0 || err.rfind("unknown flag '", 0) == 0)
          << "line" << line << " gave error '" << err << "'";
    }
  } catch (const std::exception& e) {
    ADD_FAILURE() << "line" << line << " threw " << typeid(e).name() << ": " << e.what();
  } catch (...) {
    ADD_FAILURE() << "line" << line << " threw a non-std exception";
  }
}

std::vector<std::string> mutate(std::vector<std::string> tokens, sim::Xoshiro256& rng) {
  static const char* const kSplices[] = {
      "99999999999999999999", "-9223372036854775809", "2147483648", "-2147483649",
      "1e999", "-1e400", "nan", "inf", "0x10", "", "=", "--", "-", "--n=", "+5", " 7",
      "18446744073709551616", "-0", "@", "--jobs=0"};
  if (tokens.empty()) {
    tokens.emplace_back(kSplices[rng.below(std::size(kSplices))]);
    return tokens;
  }
  const std::size_t at = rng.below(tokens.size());
  std::string& token = tokens[at];
  switch (rng.below(6)) {
    case 0:  // bit flip
      if (!token.empty()) {
        const std::size_t byte = rng.below(token.size());
        token[byte] = static_cast<char>(token[byte] ^ (1u << rng.below(8)));
      }
      break;
    case 1:  // replace the token
      token = kSplices[rng.below(std::size(kSplices))];
      break;
    case 2:  // drop it
      tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(at));
      break;
    case 3:  // duplicate it
      tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(at), token);
      break;
    case 4:  // join it to the next token with '='
      if (at + 1 < tokens.size()) {
        token += "=" + tokens[at + 1];
        tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(at + 1));
      }
      break;
    default:  // truncate it
      token.resize(rng.below(token.size() + 1));
      break;
  }
  return tokens;
}

TEST(FlagParserFuzz, CorpusLinesParse) {
  for (const auto& line : corpus()) {
    std::vector<std::string> args{"greencap"};
    args.insert(args.end(), line.begin(), line.end());
    std::vector<char*> argv;
    for (std::string& a : args) {
      argv.push_back(a.data());
    }
    Table table;
    EXPECT_EQ(table.parser.parse(static_cast<int>(argv.size()), argv.data()), "");
  }
}

TEST(FlagParserFuzz, TruncatedLinesParseOrReject) {
  for (const auto& line : corpus()) {
    for (std::size_t len = 0; len <= line.size(); ++len) {
      parse_must_accept_or_reject({line.begin(), line.begin() + static_cast<std::ptrdiff_t>(len)});
    }
  }
}

TEST(FlagParserFuzz, MutatedLinesParseOrReject) {
  std::uint64_t seed = 0xf1a9;
  for (const auto& line : corpus()) {
    sim::Xoshiro256 rng{seed++};
    for (int i = 0; i < 1500; ++i) {
      std::vector<std::string> tokens = line;
      const int rounds = 1 + static_cast<int>(rng.below(4));
      for (int r = 0; r < rounds; ++r) {
        tokens = mutate(std::move(tokens), rng);
      }
      parse_must_accept_or_reject(tokens);
    }
  }
}

}  // namespace
}  // namespace greencap::core
