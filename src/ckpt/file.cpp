#include "ckpt/file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include "ckpt/serial.hpp"
#include "obs/json.hpp"

namespace greencap::ckpt {

namespace {

[[noreturn]] void fail(const std::string& path, const std::string& why) {
  throw CheckpointError{"checkpoint " + path + ": " + why};
}

/// Minimal field extraction from the canonical manifest JSON this library
/// writes (flat object, no escapes). The whole-file CRC has already
/// certified the bytes, so a missing field means version skew, not damage.
class ManifestScanner {
 public:
  ManifestScanner(const std::string& json, const std::string& path)
      : json_{json}, path_{path} {}

  std::string str(const char* key) {
    const std::size_t at = value_pos(key);
    if (json_[at] != '"') fail(path_, std::string{"manifest field '"} + key + "' is not a string");
    const std::size_t end = json_.find('"', at + 1);
    if (end == std::string::npos) fail(path_, "manifest ends inside a string");
    return json_.substr(at + 1, end - at - 1);
  }

  std::uint64_t u64(const char* key) {
    return std::strtoull(json_.c_str() + value_pos(key), nullptr, 10);
  }

  double f64(const char* key) {
    return std::strtod(json_.c_str() + value_pos(key), nullptr);
  }

 private:
  std::size_t value_pos(const char* key) {
    const std::string needle = std::string{"\""} + key + "\":";
    const std::size_t at = json_.find(needle);
    if (at == std::string::npos) {
      fail(path_, std::string{"manifest is missing field '"} + key + "'");
    }
    return at + needle.size();
  }

  const std::string& json_;
  const std::string& path_;
};

}  // namespace

std::string manifest_to_json(const Manifest& manifest) {
  // Round-trip precision in the manifest; the payload carries every double
  // by bit pattern.
  std::string t_virtual_s;
  obs::json_append_number_exact(t_virtual_s, manifest.t_virtual_s);
  std::ostringstream os;
  os << "{\"format\":\"greencap-checkpoint\",\"version\":" << kFormatVersion
     << ",\"kind\":\"" << manifest.kind << "\",\"reason\":\"" << manifest.reason
     << "\",\"signature\":" << manifest.signature
     << ",\"completed\":" << manifest.completed
     << ",\"t_virtual_s\":" << t_virtual_s
     << ",\"payload_bytes\":" << manifest.payload_bytes
     << ",\"payload_crc32\":" << manifest.payload_crc32 << "}";
  return os.str();
}

void write_checkpoint_file(const std::string& path, Manifest manifest,
                           const std::string& payload) {
  manifest.payload_bytes = payload.size();
  manifest.payload_crc32 = crc32(payload.data(), payload.size());
  const std::string manifest_json = manifest_to_json(manifest);

  // The file is head ‖ payload ‖ CRC(head ‖ payload); the payload's CRC
  // is already known, so only the short head is read again.
  Writer head;
  head.bytes(kMagic, 4);
  head.u32(kFormatVersion);
  head.u64(manifest_json.size());
  head.bytes(manifest_json.data(), manifest_json.size());
  head.u64(payload.size());
  const std::uint32_t file_crc =
      crc32_combine(crc32(head.data().data(), head.data().size()), manifest.payload_crc32,
                    payload.size());

  // Scratch name unique per (process, thread): campaigns running in
  // parallel processes may checkpoint adjacent paths in one directory, and
  // a shared "<path>.tmp" would let one writer truncate another's
  // half-written file out from under its rename.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(std::hash<std::thread::id>{}(std::this_thread::get_id()));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail(path, "cannot create " + tmp + ": " + std::strerror(errno));

  auto write_all = [&](const char* data, std::size_t size) {
    while (size > 0) {
      const ssize_t n = ::write(fd, data, size);
      if (n < 0) {
        const int err = errno;
        ::close(fd);
        fail(path, "write failed: " + std::string{std::strerror(err)});
      }
      data += n;
      size -= static_cast<std::size_t>(n);
    }
  };
  write_all(head.data().data(), head.data().size());
  write_all(payload.data(), payload.size());
  char crc_bytes[4];
  for (int i = 0; i < 4; ++i) crc_bytes[i] = static_cast<char>((file_crc >> (8 * i)) & 0xffU);
  write_all(crc_bytes, 4);

  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    fail(path, "fsync failed: " + std::string{std::strerror(err)});
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    fail(path, "rename from " + tmp + " failed: " + std::strerror(errno));
  }
}

CheckpointFile read_checkpoint_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) fail(path, "cannot open file");
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string raw = buf.str();

  if (raw.size() < 4 || std::memcmp(raw.data(), kMagic, 4) != 0) {
    fail(path, "bad magic (not a GreenCap checkpoint)");
  }
  // Fixed header after the magic: version + manifest length; then the
  // trailing 4 bytes are the whole-file CRC.
  if (raw.size() < 4 + 4 + 8 + 8 + 4) {
    fail(path, "truncated: " + std::to_string(raw.size()) + " bytes is shorter than the header");
  }
  Reader header{raw.data() + 4, raw.size() - 4};
  CheckpointFile file;
  file.version = header.u32();
  if (file.version != kFormatVersion) {
    fail(path, "unsupported format version " + std::to_string(file.version) + " (expected " +
                   std::to_string(kFormatVersion) + ")");
  }

  const std::uint64_t manifest_len = header.u64();
  const std::size_t fixed = 4 + 4 + 8 + 8 + 4;  // magic+version+two lengths+CRC
  if (manifest_len > raw.size() - fixed) {
    fail(path, "truncated: manifest claims " + std::to_string(manifest_len) +
                   " bytes but only " + std::to_string(raw.size() - fixed) + " remain");
  }
  const std::size_t manifest_at = 4 + 4 + 8;
  file.manifest_json = raw.substr(manifest_at, manifest_len);

  Reader tail{raw.data() + manifest_at + manifest_len, raw.size() - manifest_at - manifest_len};
  const std::uint64_t payload_len = tail.u64();
  const std::size_t payload_at = manifest_at + manifest_len + 8;
  if (payload_len > raw.size() - payload_at || raw.size() - payload_at - payload_len != 4) {
    fail(path, "truncated: payload claims " + std::to_string(payload_len) + " bytes but " +
                   std::to_string(raw.size() - payload_at) + " remain before the CRC");
  }
  file.payload = raw.substr(payload_at, payload_len);

  std::uint32_t stored_crc = 0;
  for (int i = 0; i < 4; ++i) {
    stored_crc |= static_cast<std::uint32_t>(
                      static_cast<unsigned char>(raw[raw.size() - 4 + static_cast<std::size_t>(i)]))
                  << (8 * i);
  }
  const std::uint32_t actual_crc = crc32(raw.data(), raw.size() - 4);
  if (stored_crc != actual_crc) {
    fail(path, "CRC mismatch: stored " + std::to_string(stored_crc) + ", computed " +
                   std::to_string(actual_crc) + " (file is corrupt)");
  }

  ManifestScanner scan{file.manifest_json, path};
  file.manifest.kind = scan.str("kind");
  file.manifest.reason = scan.str("reason");
  file.manifest.signature = scan.u64("signature");
  file.manifest.completed = scan.u64("completed");
  file.manifest.t_virtual_s = scan.f64("t_virtual_s");
  file.manifest.payload_bytes = scan.u64("payload_bytes");
  file.manifest.payload_crc32 = static_cast<std::uint32_t>(scan.u64("payload_crc32"));
  if (file.manifest.payload_bytes != file.payload.size()) {
    fail(path, "manifest payload_bytes " + std::to_string(file.manifest.payload_bytes) +
                   " != actual payload size " + std::to_string(file.payload.size()));
  }
  if (file.manifest.payload_crc32 != crc32(file.payload.data(), file.payload.size())) {
    fail(path, "manifest payload CRC does not match the payload");
  }
  return file;
}

}  // namespace greencap::ckpt
