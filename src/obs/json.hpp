// Tiny JSON-writing helpers shared by the artifact exporters.
//
// The exporters (metrics registry, telemetry series, Chrome trace,
// decision log, profile) emit JSON by hand — the format is flat and the
// writers are hot enough that a DOM library would be overkill — but string
// escaping and number formatting must be handled once, correctly, here.
// Every helper appends straight into the caller's buffer; an exporter
// builds its whole file in one std::string and writes it once.
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstring>
#include <string>
#include <string_view>

namespace greencap::obs {

/// Appends `s` to `out` as a JSON string literal (quotes included),
/// escaping quotes, backslashes and control characters per RFC 8259.
/// Every other byte, UTF-8 sequences included, passes through unchanged.
inline void json_append_string(std::string& out, std::string_view s) {
  constexpr char kHex[] = "0123456789abcdef";
  out.push_back('"');
  std::size_t run = 0;  // start of the pending run of bytes that need no escape
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xfU]};
        out.append(esc, sizeof esc);
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
  out.push_back('"');
}

[[nodiscard]] inline std::string json_string(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  json_append_string(out, s);
  return out;
}

/// Room json_write_number and json_write_int may need at their `at`:
/// "%.17g" of a subnormal is 24 bytes.
inline constexpr std::size_t kJsonNumberMaxChars = 32;

namespace detail {

/// printf("%.<precision>g") text of `v`; std::to_chars's general format is
/// specified to produce exactly that. JSON has no inf/nan tokens, so
/// non-finite values degrade to null (the convention Perfetto accepts).
inline char* write_general(char* at, double v, int precision) {
  if (!std::isfinite(v)) {
    std::memcpy(at, "null", 4);
    return at + 4;
  }
  return std::to_chars(at, at + kJsonNumberMaxChars, v, std::chars_format::general, precision).ptr;
}

inline void append_general(std::string& out, double v, int precision) {
  char buf[kJsonNumberMaxChars];
  out.append(buf, static_cast<std::size_t>(write_general(buf, v, precision) - buf));
}

}  // namespace detail

/// Appends `v` as a JSON number with 9 significant digits (the text of
/// printf's "%.9g"); non-finite values become null.
inline void json_append_number(std::string& out, double v) { detail::append_general(out, v, 9); }

/// json_append_number's text written in place for exporters that fill a
/// pre-sized buffer: `at` needs kJsonNumberMaxChars bytes of room. Returns
/// the end of the text.
inline char* json_write_number(char* at, double v) { return detail::write_general(at, v, 9); }

/// Full round-trip precision ("%.17g") variant, for exports whose consumers
/// re-verify exact accounting identities (profile.json's energy
/// conservation check reads back the same doubles that were summed).
inline void json_append_number_exact(std::string& out, double v) {
  detail::append_general(out, v, 17);
}

/// An integer in decimal, written in place (room: kJsonNumberMaxChars).
template <std::integral T>
char* json_write_int(char* at, T v) {
  return std::to_chars(at, at + kJsonNumberMaxChars, v).ptr;
}

/// Appends an integer in decimal.
template <std::integral T>
void json_append_int(std::string& out, T v) {
  char buf[kJsonNumberMaxChars];
  out.append(buf, static_cast<std::size_t>(json_write_int(buf, v) - buf));
}

}  // namespace greencap::obs
