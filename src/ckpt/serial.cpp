#include "ckpt/serial.hpp"

#include <bit>
#include <cstring>

namespace greencap::ckpt {

namespace {

/// Slicing-by-8 tables: kCrcTables[0] is the classic bytewise table of the
/// reflected IEEE polynomial; kCrcTables[k][b] is the CRC of byte `b`
/// followed by k zero bytes, so eight table lookups advance eight bytes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) != 0 ? 0xedb88320U ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffU];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// Little-endian bytes of `v`, independent of the host's byte order.
template <typename T>
std::array<char, sizeof(T)> le_bytes(T v) {
  std::array<char, sizeof(T)> b{};
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    b[i] = static_cast<char>((v >> (8 * i)) & 0xffU);
  }
  return b;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xffffffffU;
  for (; size >= 8; p += 8, size -= 8) {
    const std::uint32_t lo = c ^ (static_cast<std::uint32_t>(p[0]) |
                                  static_cast<std::uint32_t>(p[1]) << 8 |
                                  static_cast<std::uint32_t>(p[2]) << 16 |
                                  static_cast<std::uint32_t>(p[3]) << 24);
    c = kCrcTables[7][lo & 0xffU] ^ kCrcTables[6][(lo >> 8) & 0xffU] ^
        kCrcTables[5][(lo >> 16) & 0xffU] ^ kCrcTables[4][lo >> 24] ^ kCrcTables[3][p[4]] ^
        kCrcTables[2][p[5]] ^ kCrcTables[1][p[6]] ^ kCrcTables[0][p[7]];
  }
  for (; size > 0; ++p, --size) {
    c = kCrcTables[0][(c ^ *p) & 0xffU] ^ (c >> 8);
  }
  return c ^ 0xffffffffU;
}

void Writer::u32(std::uint32_t v) {
  const auto b = le_bytes(v);
  buf_.append(b.data(), b.size());
}

void Writer::u64(std::uint64_t v) {
  const auto b = le_bytes(v);
  buf_.append(b.data(), b.size());
}

void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::str(const std::string& v) {
  u64(v.size());
  buf_.append(v);
}

void Writer::bytes(const void* data, std::size_t size) {
  buf_.append(static_cast<const char*>(data), size);
}

void Writer::section(const char (&tag)[5]) { buf_.append(tag, 4); }

const char* Reader::need(std::size_t n, const char* what) {
  if (size_ - pos_ < n) {
    throw CorruptError{"checkpoint payload truncated at byte " + std::to_string(pos_) +
                       ": need " + std::to_string(n) + " byte(s) for " + what + ", have " +
                       std::to_string(size_ - pos_)};
  }
  const char* p = data_ + pos_;
  pos_ += n;
  return p;
}

std::uint8_t Reader::u8() {
  return static_cast<std::uint8_t>(*need(1, "u8"));
}

std::uint32_t Reader::u32() {
  const char* p = need(4, "u32");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

std::uint64_t Reader::u64() {
  const char* p = need(8, "u64");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

double Reader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string Reader::str() {
  const std::size_t n = length(1);
  const char* p = need(n, "string body");
  return std::string{p, n};
}

void Reader::expect_section(const char (&tag)[5]) {
  const std::size_t at = pos_;
  const char* p = need(4, "section tag");
  if (std::memcmp(p, tag, 4) != 0) {
    throw CorruptError{"checkpoint payload: expected section '" + std::string{tag, 4} +
                       "' at byte " + std::to_string(at) + ", found '" + std::string{p, 4} +
                       "'"};
  }
}

std::size_t Reader::length(std::size_t min_elem_bytes) {
  const std::size_t at = pos_;
  const std::uint64_t n = u64();
  if (min_elem_bytes != 0 && n > remaining() / min_elem_bytes) {
    throw CorruptError{"checkpoint payload: length " + std::to_string(n) + " at byte " +
                       std::to_string(at) + " exceeds the " + std::to_string(remaining()) +
                       " byte(s) remaining"};
  }
  return static_cast<std::size_t>(n);
}

}  // namespace greencap::ckpt
