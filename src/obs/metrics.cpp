#include "obs/metrics.hpp"

#include <algorithm>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "obs/json.hpp"

namespace greencap::obs {

Histogram::Histogram(std::vector<double> upper_bounds) : bounds_{std::move(upper_bounds)} {
  if (bounds_.empty()) {
    bounds_ = duration_buckets_s();
  }
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("Histogram: bucket bounds must be ascending");
  }
  buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

void Histogram::restore(std::vector<std::uint64_t> buckets, std::uint64_t count, double sum,
                        double min, double max) {
  if (buckets.size() != bounds_.size() + 1) {
    throw std::invalid_argument("Histogram: restored bucket vector does not match the bounds");
  }
  buckets_ = std::move(buckets);
  count_ = count;
  sum_ = sum;
  min_ = min;
  max_ = max;
}

std::vector<double> duration_buckets_s() {
  // 1 us .. 100 s in half-decade steps.
  std::vector<double> bounds;
  for (double decade = 1e-6; decade < 1e3; decade *= 10.0) {
    bounds.push_back(decade);
    bounds.push_back(decade * 3.162277660168379);  // sqrt(10)
  }
  return bounds;
}

Counter& MetricsRegistry::counter(const std::string& name) { return counters_[name]; }

Gauge& MetricsRegistry::gauge(const std::string& name) { return gauges_[name]; }

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    return it->second;
  }
  return histograms_.emplace(name, Histogram{std::move(upper_bounds)}).first->second;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it != counters_.end() ? &it->second : nullptr;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it != gauges_.end() ? &it->second : nullptr;
}

const Histogram* MetricsRegistry::find_histogram(const std::string& name) const {
  const auto it = histograms_.find(name);
  return it != histograms_.end() ? &it->second : nullptr;
}

void MetricsRegistry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

void MetricsRegistry::write_json(std::ostream& os) const {
  std::string out;
  out.reserve(4096);
  out += "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    json_append_string(out, name);
    out += ": ";
    json_append_int(out, c.value());
  }
  out += counters_.empty() ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    json_append_string(out, name);
    out += ": ";
    json_append_number(out, g.value());
  }
  out += gauges_.empty() ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    json_append_string(out, name);
    out += ": {\"count\": ";
    json_append_int(out, h.count());
    out += ", \"sum\": ";
    json_append_number(out, h.sum());
    out += ", \"mean\": ";
    json_append_number(out, h.mean());
    out += ", \"min\": ";
    json_append_number(out, h.min());
    out += ", \"max\": ";
    json_append_number(out, h.max());
    out += ", \"bounds\": [";
    for (std::size_t i = 0; i < h.bounds().size(); ++i) {
      if (i > 0) out += ", ";
      json_append_number(out, h.bounds()[i]);
    }
    out += "], \"buckets\": [";
    for (std::size_t i = 0; i < h.buckets().size(); ++i) {
      if (i > 0) out += ", ";
      json_append_int(out, h.buckets()[i]);
    }
    out += "]}";
  }
  out += histograms_.empty() ? "}\n" : "\n  }\n";
  out += "}\n";
  os << out;
}

}  // namespace greencap::obs
