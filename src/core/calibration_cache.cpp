#include "core/calibration_cache.hpp"

namespace greencap::core {

double CalibrationCache::best_cap_w(const std::string& key,
                                    const std::function<double()>& compute) {
  return compute_once(slot(caps_, key, warmups_), compute);
}

const rt::CalibrationRecord& CalibrationCache::calibration(
    const std::string& key, const std::function<rt::CalibrationRecord()>& compute) {
  return compute_once(slot(calibrations_, key, warmups_), compute);
}

const std::shared_ptr<const rt::TaskGraph>& CalibrationCache::graph(
    const std::string& key, const std::function<std::shared_ptr<const rt::TaskGraph>()>& compute) {
  return compute_once(slot(graphs_, key, graph_counts_), compute);
}

std::uint64_t CalibrationCache::hits() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return warmups_.hits;
}

std::uint64_t CalibrationCache::misses() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return warmups_.misses;
}

std::uint64_t CalibrationCache::graph_hits() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return graph_counts_.hits;
}

std::uint64_t CalibrationCache::graph_misses() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return graph_counts_.misses;
}

}  // namespace greencap::core
