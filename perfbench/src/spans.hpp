// Benchmark-side span recorder for the traced pass.
//
// Spans are opened around calls into the library's public functions (the
// name's prefix before '.' is the layer), kept in memory with their parent
// and the request (experiment) they belong to, and written out once the
// pass ends. A span's self time is its duration minus the time covered by
// its child spans. Single-threaded: the traced pass runs serially.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Spans {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint32_t request = 0;
  };

  struct Stats {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };

  /// Opens a span on construction and closes it on destruction.
  class Scope {
   public:
    Scope(Spans& spans, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    std::int32_t index_;
  };

  /// Tags spans opened from now on with experiment `request`.
  void set_request(std::uint32_t request) { request_ = request; }

  /// Per-name count, total and self time.
  [[nodiscard]] std::map<std::string, Stats> by_name() const;
  /// Per-layer (name prefix) self time in ms.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;
  /// Total duration of the spans named `name` in request `request`, ms.
  [[nodiscard]] double request_ms(const std::string& name, std::uint32_t request) const;

  /// Writes one JSON object per span (name, start/end ns, parent, request).
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::uint32_t request_ = 0;
  Clock::time_point origin_ = Clock::now();
};

}  // namespace perfbench
