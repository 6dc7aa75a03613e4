// Shared warmup cache for campaign runs.
//
// Two pieces of per-run setup are pure functions of the configuration: the
// per-GPU best-cap sweep (power::find_best_cap_w) and the perf-model
// calibration campaign (an ordered list of history-model record() calls,
// see rt::CalibrationRecord). The cache memoizes both so a campaign
// computes each distinct key once and every other run reuses the immutable
// snapshot. Neither dominates (perfbench/README.md): a cold sweep takes
// about 10 us, and both together stay under 0.2 % of a paper-size run.
//
// Thread safety: lookups are safe from any number of worker threads. Each
// key computes exactly once — every entry has its own mutex, held across
// the compute, so concurrent same-key callers block until the first compute
// finishes, then all of them observe the same address-stable value (entries
// live behind unique_ptr and are never evicted). A compute that throws
// leaves the entry's ready flag unset and releases its mutex, so a later
// caller retries rather than caching a broken entry. The entry holds a
// mutex rather than a std::once_flag because call_once's exceptional path
// never returns under ThreadSanitizer.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "rt/calibration.hpp"

namespace greencap::core {

class CalibrationCache {
 public:
  CalibrationCache() = default;
  CalibrationCache(const CalibrationCache&) = delete;
  CalibrationCache& operator=(const CalibrationCache&) = delete;

  /// Best power cap for `key` (GPU arch + precision + tile size), computing
  /// it via `compute` on first use.
  double best_cap_w(const std::string& key, const std::function<double()>& compute);

  /// Calibration measurement log for `key`, computing it via `compute` on
  /// first use. The returned reference stays valid (and the record
  /// unchanged) for the cache's lifetime.
  const rt::CalibrationRecord& calibration(
      const std::string& key, const std::function<rt::CalibrationRecord()>& compute);

  /// Lookup counters (hit = entry already existed). Approximate under
  /// concurrency only in their ordering, never in their totals.
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;

 private:
  template <typename V>
  struct Entry {
    std::mutex mu;
    bool ready = false;  ///< guarded by mu; set once the compute returned
    V value{};           ///< written under mu before ready, immutable after
  };

  /// Runs `compute` into `e` unless an earlier call already did; a throw
  /// leaves `e` uncomputed.
  template <typename V, typename Compute>
  static const V& compute_once(Entry<V>& e, const Compute& compute) {
    const std::lock_guard<std::mutex> lock{e.mu};
    if (!e.ready) {
      e.value = compute();
      e.ready = true;
    }
    return e.value;
  }

  /// Finds or creates the entry for `key`, bumping hit/miss counters.
  template <typename V>
  Entry<V>& slot(std::map<std::string, std::unique_ptr<Entry<V>>>& entries,
                 const std::string& key) {
    const std::lock_guard<std::mutex> lock{mu_};
    std::unique_ptr<Entry<V>>& e = entries[key];
    if (e == nullptr) {
      e = std::make_unique<Entry<V>>();
      ++misses_;
    } else {
      ++hits_;
    }
    return *e;
  }

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Entry<double>>> caps_;
  std::map<std::string, std::unique_ptr<Entry<rt::CalibrationRecord>>> calibrations_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace greencap::core
