// The JSON helpers every exporter shares: numbers must match printf's
// "%.9g" / "%.17g" text byte for byte (the artifact goldens and the
// profile's read-back identities depend on it), non-finite values must
// become null, and string escaping must follow RFC 8259 while passing every
// other byte through.
#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace greencap::obs {
namespace {

std::string printf_g(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", precision, v);
  return buf;
}

std::string number(double v) {
  std::string out;
  json_append_number(out, v);
  return out;
}

std::string number_exact(double v) {
  std::string out;
  json_append_number_exact(out, v);
  return out;
}

/// Seeded finite doubles: random bit patterns, powers of ten and their
/// neighbours, subnormals, signed zeros and integers.
std::vector<double> sample_doubles() {
  std::mt19937_64 rng{0x5eedULL};
  std::vector<double> v;
  v.reserve(1'100'000);
  while (v.size() < 600'000) {
    const double d = std::bit_cast<double>(rng());
    if (std::isfinite(d)) {
      v.push_back(d);
    }
  }
  for (int e = -323; e <= 308; ++e) {
    const double p = std::pow(10.0, e);
    for (const double d : {p, std::nextafter(p, 0.0), std::nextafter(p, HUGE_VAL)}) {
      v.push_back(d);
      v.push_back(-d);
    }
  }
  for (int i = 0; i < 200'000; ++i) {
    const std::uint64_t mantissa = rng() & ((std::uint64_t{1} << 52) - 1);
    const std::uint64_t sign = (rng() & 1U) << 63;
    v.push_back(std::bit_cast<double>(sign | mantissa));
  }
  v.push_back(0.0);
  v.push_back(-0.0);
  v.push_back(std::numeric_limits<double>::denorm_min());
  v.push_back(std::numeric_limits<double>::min());
  v.push_back(std::numeric_limits<double>::max());
  v.push_back(std::numeric_limits<double>::lowest());
  for (int i = 0; i < 150'000; ++i) {
    v.push_back(static_cast<double>(static_cast<std::int64_t>(rng())));
  }
  for (int i = -50'000; i < 50'000; ++i) {
    v.push_back(static_cast<double>(i));
  }
  return v;
}

TEST(JsonNumber, MatchesPrintfAtNineAndSeventeenDigits) {
  const std::vector<double> values = sample_doubles();
  ASSERT_GE(values.size(), 1'000'000U);
  std::size_t mismatches = 0;
  for (const double v : values) {
    const std::string got9 = number(v);
    const std::string got17 = number_exact(v);
    const std::string want9 = printf_g(v, 9);
    const std::string want17 = printf_g(v, 17);
    if (got9 != want9 || got17 != want17) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v) << ": got "
                      << got9 << " / " << got17 << ", printf gives " << want9 << " / " << want17;
      }
    }
  }
  EXPECT_EQ(mismatches, 0U) << "of " << values.size() << " doubles";
}

TEST(JsonNumber, NonFiniteBecomesNull) {
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         -std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(number(v), "null");
    EXPECT_EQ(number_exact(v), "null");
  }
}

TEST(JsonNumber, AppendsToExistingText) {
  std::string out = "[";
  json_append_number(out, 1.0 / 3.0);
  out += ",";
  json_append_number_exact(out, 1.0 / 3.0);
  out += ",";
  json_append_int(out, -42);
  out += "]";
  EXPECT_EQ(out, "[0.333333333,0.33333333333333331,-42]");
}

TEST(JsonInt, FormatsFullRange) {
  const auto text = [](auto v) {
    std::string out;
    json_append_int(out, v);
    return out;
  };
  EXPECT_EQ(text(0), "0");
  EXPECT_EQ(text(std::int32_t{-7}), "-7");
  EXPECT_EQ(text(std::numeric_limits<std::int64_t>::min()), "-9223372036854775808");
  EXPECT_EQ(text(std::numeric_limits<std::int64_t>::max()), "9223372036854775807");
  EXPECT_EQ(text(std::numeric_limits<std::uint64_t>::max()), "18446744073709551615");
}

/// Byte-at-a-time RFC 8259 escaping, the reference for the bulk path.
std::string reference_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out + "\"";
}

TEST(JsonString, EscapesQuotesBackslashAndControls) {
  EXPECT_EQ(json_string(""), "\"\"");
  EXPECT_EQ(json_string("plain"), "\"plain\"");
  EXPECT_EQ(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(json_string("\"\""), "\"\\\"\\\"\"");
  EXPECT_EQ(json_string("tab\there\nnew\rret\bbs\fff"),
            "\"tab\\there\\nnew\\rret\\bbs\\fff\"");
  EXPECT_EQ(json_string(std::string_view{"x\0y", 3}), "\"x\\u0000y\"");
  EXPECT_EQ(json_string("\x1f\x7f"), "\"\\u001f\x7f\"");
}

TEST(JsonString, EveryControlCharacterMatchesReference) {
  for (int c = 0; c < 0x20; ++c) {
    std::string s = "a";
    s += static_cast<char>(c);
    s += 'b';
    EXPECT_EQ(json_string(s), reference_string(s)) << "control 0x" << std::hex << c;
  }
}

TEST(JsonString, Utf8PassesThroughUnchanged) {
  const std::string utf8 = "caf\xc3\xa9 \xe2\x9c\x93 \xf0\x9f\x94\x8b";  // café ✓ 🔋
  EXPECT_EQ(json_string(utf8), "\"" + utf8 + "\"");
}

TEST(JsonString, RandomBytesMatchReference) {
  std::mt19937_64 rng{42};
  const char alphabet[] = {'a', 'Z', '0', ' ', '"', '\\', '\n', '\t', '\x01', '\x1f',
                           '\x7f', '\xc3', '\xa9', '\xff', '/', '<'};
  for (int i = 0; i < 20'000; ++i) {
    std::string s(rng() % 40, '\0');
    for (char& c : s) {
      c = rng() % 4 == 0 ? static_cast<char>(rng()) : alphabet[rng() % sizeof alphabet];
    }
    std::string out = "prefix";
    json_append_string(out, s);
    ASSERT_EQ(out, "prefix" + reference_string(s)) << "case " << i;
  }
}

}  // namespace
}  // namespace greencap::obs
