// Seeded mutation tests of the FaultPlan grammars (spec strings and the
// JSON document form).
//
// Valid plans are truncated at every length and mutated at seeded offsets:
// bit flips, digit runs, huge exponents and nan/inf spliced over numbers.
// FaultPlan::parse and FaultPlan::parse_json must either return a plan or
// throw std::invalid_argument, nothing else; run under UBSan with
// float-cast-overflow they also must not cast an out-of-range value. A plan
// that parses must re-parse from its canonical to_string() form.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <exception>
#include <iterator>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "fault/fault_plan.hpp"
#include "sim/rng.hpp"

namespace greencap::fault {
namespace {

const std::vector<std::string>& spec_corpus() {
  static const std::vector<std::string> corpus{
      "capfail@gpu0:p=0.5,code=not_supported",
      "dropout@gpu2:t=12;drift@gpu1:t=5,watts=150;straggler@gpu3:t=2,until=8,factor=2.5",
      "capfail@any:count=3,perm=1,code=no_permission",
      "energyreset@gpu0:t=1.5;straggler@*:t=0.25,factor=4",
      "drift@gpu3:t=0.5,factor=0.8,until=9",
  };
  return corpus;
}

const std::vector<std::string>& json_corpus() {
  static const std::vector<std::string> corpus{
      R"({"events": [
        {"kind": "dropout", "gpu": 2, "t": 12.0},
        {"kind": "capfail", "gpu": 0, "p": 0.25, "code": "no_permission", "count": 3},
        {"kind": "straggler", "gpu": 1, "t": 2.0, "until": 8.0, "factor": 3.0, "perm": true}
      ]})",
      R"({"events":[{"kind":"drift","gpu":1,"t":5,"watts":150},{"kind":"energyreset","gpu":0,"t":1e-3}]})",
      R"({"events": []})",
  };
  return corpus;
}

enum class Grammar { kSpec, kJson };

/// Parses `input`; any exception but std::invalid_argument fails the test.
void parse_must_return_or_reject(Grammar grammar, const std::string& input) {
  try {
    FaultPlan plan;
    if (grammar == Grammar::kSpec) {
      plan = FaultPlan::parse(input);
    } else {
      std::istringstream is{input};
      plan = FaultPlan::parse_json(is);
    }
    const std::string canonical = plan.to_string();
    try {
      (void)FaultPlan::parse(canonical);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "canonical form '" << canonical << "' of input '" << input
                    << "' does not re-parse: " << e.what();
    }
  } catch (const std::invalid_argument&) {
    // The documented rejection.
  } catch (const std::exception& e) {
    ADD_FAILURE() << "input '" << input << "' threw " << typeid(e).name() << ": " << e.what();
  } catch (...) {
    ADD_FAILURE() << "input '" << input << "' threw a non-std exception";
  }
}

/// One seeded mutation of `text`.
std::string mutate(std::string text, sim::Xoshiro256& rng) {
  static const char* const kSplices[] = {
      "99999999999999999999", "1e308", "1e999", "-1e400", "nan", "inf", "-inf",
      "2147483648",           "-2147483649", "1e-400", "0x10", "", "-0", "+5"};
  if (text.empty()) {
    return text;
  }
  const std::size_t at = rng.below(text.size());
  switch (rng.below(4)) {
    case 0:  // bit flip
      text[at] = static_cast<char>(text[at] ^ (1u << rng.below(8)));
      break;
    case 1: {  // splice over the number (or the bytes) starting at `at`
      std::size_t end = at;
      while (end < text.size() && (std::isalnum(static_cast<unsigned char>(text[end])) != 0 ||
                                   text[end] == '.' || text[end] == '-' || text[end] == '+')) {
        ++end;
      }
      const char* splice = kSplices[rng.below(std::size(kSplices))];
      text.replace(at, end - at, splice);
      break;
    }
    case 2:  // digit run
      text.insert(at, std::string(1 + rng.below(30), static_cast<char>('0' + rng.below(10))));
      break;
    default:  // delete a byte
      text.erase(at, 1);
      break;
  }
  return text;
}

void truncate_everywhere(Grammar grammar, const std::string& text) {
  for (std::size_t len = 0; len <= text.size(); ++len) {
    parse_must_return_or_reject(grammar, text.substr(0, len));
  }
}

void mutate_seeded(Grammar grammar, const std::string& text, std::uint64_t seed) {
  sim::Xoshiro256 rng{seed};
  for (int i = 0; i < 1500; ++i) {
    std::string input = text;
    const int rounds = 1 + static_cast<int>(rng.below(3));
    for (int r = 0; r < rounds; ++r) {
      input = mutate(std::move(input), rng);
    }
    parse_must_return_or_reject(grammar, input);
  }
}

TEST(FaultPlanFuzz, TruncatedSpecsParseOrReject) {
  for (const std::string& spec : spec_corpus()) {
    truncate_everywhere(Grammar::kSpec, spec);
  }
}

TEST(FaultPlanFuzz, TruncatedJsonParsesOrRejects) {
  for (const std::string& json : json_corpus()) {
    truncate_everywhere(Grammar::kJson, json);
  }
}

TEST(FaultPlanFuzz, MutatedSpecsParseOrReject) {
  std::uint64_t seed = 0x5eed;
  for (const std::string& spec : spec_corpus()) {
    mutate_seeded(Grammar::kSpec, spec, seed++);
  }
}

TEST(FaultPlanFuzz, MutatedJsonParsesOrRejects) {
  std::uint64_t seed = 0x15014;
  for (const std::string& json : json_corpus()) {
    mutate_seeded(Grammar::kJson, json, seed++);
  }
}

}  // namespace
}  // namespace greencap::fault
