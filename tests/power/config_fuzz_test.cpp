// Seeded mutation tests of the cap-configuration grammar (GpuConfig::parse).
//
// Valid configurations are truncated at every length and mutated at seeded
// offsets: bit flips, arbitrary bytes (NUL and high-bit bytes included),
// long letter runs and deletions. GpuConfig::parse must either return one
// level per input byte, whose to_string() re-parses to the same levels, or
// throw std::invalid_argument; nothing else.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <string>
#include <typeinfo>
#include <vector>

#include "power/config.hpp"
#include "sim/rng.hpp"

namespace greencap::power {
namespace {

const std::vector<std::string>& corpus() {
  static const std::vector<std::string> configs{"HHBB", "LLLL", "hbl", "H", "BBBBBBBBBBBBBBBB"};
  return configs;
}

void parse_must_return_or_reject(const std::string& input) {
  try {
    const GpuConfig config = GpuConfig::parse(input);
    ASSERT_EQ(config.size(), input.size()) << "input '" << input << "'";
    EXPECT_EQ(GpuConfig::parse(config.to_string()).levels(), config.levels())
        << "input '" << input << "'";
  } catch (const std::invalid_argument&) {
    // The documented rejection.
  } catch (const std::exception& e) {
    ADD_FAILURE() << "input '" << input << "' threw " << typeid(e).name() << ": " << e.what();
  } catch (...) {
    ADD_FAILURE() << "input '" << input << "' threw a non-std exception";
  }
}

std::string mutate(std::string text, sim::Xoshiro256& rng) {
  static const char kLetters[] = "HBLhbl";
  const std::size_t at = text.empty() ? 0 : rng.below(text.size());
  switch (rng.below(4)) {
    case 0:  // bit flip
      if (!text.empty()) {
        text[at] = static_cast<char>(text[at] ^ (1u << rng.below(8)));
      }
      break;
    case 1:  // any byte, NUL and high-bit bytes included
      text.insert(at, 1, static_cast<char>(rng.below(256)));
      break;
    case 2:  // a run of valid letters, up to a few thousand GPUs
      text.insert(at, std::string(1 + rng.below(4096), kLetters[rng.below(6)]));
      break;
    default:  // delete a byte
      if (!text.empty()) {
        text.erase(at, 1);
      }
      break;
  }
  return text;
}

TEST(GpuConfigFuzz, TruncatedConfigsParseOrReject) {
  for (const std::string& config : corpus()) {
    for (std::size_t len = 0; len <= config.size(); ++len) {
      parse_must_return_or_reject(config.substr(0, len));
    }
  }
}

TEST(GpuConfigFuzz, MutatedConfigsParseOrReject) {
  std::uint64_t seed = 0xcafe;
  for (const std::string& config : corpus()) {
    sim::Xoshiro256 rng{seed++};
    for (int i = 0; i < 2000; ++i) {
      std::string input = config;
      const int rounds = 1 + static_cast<int>(rng.below(3));
      for (int r = 0; r < rounds; ++r) {
        input = mutate(std::move(input), rng);
      }
      parse_must_return_or_reject(input);
    }
  }
}

}  // namespace
}  // namespace greencap::power
