#include "obs/decision_log.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>

#include "obs/json.hpp"

namespace greencap::obs {

double Decision::relative_error() const {
  if (!realized() || realized_exec_s <= 0.0) {
    return 0.0;
  }
  return (expected_exec_s - realized_exec_s) / realized_exec_s;
}

std::size_t DecisionLog::add(Decision decision) {
  decisions_.push_back(std::move(decision));
  return decisions_.size() - 1;
}

void DecisionLog::realize(std::size_t index, double realized_exec_s) {
  decisions_.at(index).realized_exec_s = realized_exec_s;
}

std::vector<ModelAccuracy> DecisionLog::accuracy_report() const {
  struct Accum {
    std::uint64_t n = 0;
    double abs_sum = 0.0;
    double signed_sum = 0.0;
    double worst = 0.0;
  };
  std::map<std::pair<std::string, std::string>, Accum> by_key;
  for (const Decision& d : decisions_) {
    if (!d.realized() || d.realized_exec_s <= 0.0) {
      continue;
    }
    Accum& a = by_key[{d.codelet, d.worker_arch}];
    const double err = d.relative_error();
    ++a.n;
    a.abs_sum += std::fabs(err);
    a.signed_sum += err;
    a.worst = std::max(a.worst, std::fabs(err));
  }
  std::vector<ModelAccuracy> report;
  report.reserve(by_key.size());
  for (const auto& [key, a] : by_key) {
    ModelAccuracy row;
    row.codelet = key.first;
    row.arch = key.second;
    row.samples = a.n;
    row.mean_rel_error = a.abs_sum / static_cast<double>(a.n);
    row.mean_signed_error = a.signed_sum / static_cast<double>(a.n);
    row.worst_rel_error = a.worst;
    report.push_back(std::move(row));
  }
  return report;
}

double DecisionLog::overall_mean_rel_error() const {
  std::uint64_t n = 0;
  double sum = 0.0;
  for (const Decision& d : decisions_) {
    if (d.realized() && d.realized_exec_s > 0.0) {
      ++n;
      sum += std::fabs(d.relative_error());
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

namespace {

/// Formatted text of the last number appended through it. The
/// alternatives of one decision mostly repeat their neighbour's estimates
/// (CPU workers share one perf model), so equal bits reuse the text.
class RepeatedNumber {
 public:
  void append(std::string& out, double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    if (len_ != 0 && bits == bits_) {
      out.append(text_, len_);
      return;
    }
    const std::size_t at = out.size();
    json_append_number(out, v);
    len_ = out.copy(text_, sizeof text_, at);  // "%.9g" text is at most 16 bytes
    bits_ = bits;
  }

 private:
  std::uint64_t bits_ = 0;
  std::size_t len_ = 0;  ///< 0 until the first append
  char text_[32] = {};
};

}  // namespace

void DecisionLog::write_json(std::ostream& os) const {
  std::size_t alternatives = 0;
  for (const Decision& d : decisions_) {
    alternatives += d.alternatives.size();
  }
  std::string out;
  out.reserve(256 + 224 * decisions_.size() + 96 * alternatives);
  RepeatedNumber exec_s;
  RepeatedNumber transfer_s;
  RepeatedNumber energy_j;
  out += "{\n  \"decisions\": [";
  for (std::size_t i = 0; i < decisions_.size(); ++i) {
    const Decision& d = decisions_[i];
    out += i == 0 ? "\n    {" : ",\n    {";
    out += "\"task\": ";
    json_append_int(out, d.task);
    out += ", \"codelet\": ";
    json_append_string(out, d.codelet);
    out += ", \"arch\": ";
    json_append_string(out, d.worker_arch);
    out += ", \"worker\": ";
    json_append_int(out, d.chosen_worker);
    out += ", \"decided_at_s\": ";
    json_append_number(out, d.decided_at.sec());
    out += ", \"queue_wait_s\": ";
    json_append_number(out, d.queue_wait_s);
    out += ", \"expected_exec_s\": ";
    json_append_number(out, d.expected_exec_s);
    out += ", \"realized_exec_s\": ";
    json_append_number(out, d.realized_exec_s);
    out += ", \"alternatives\": [";
    for (std::size_t k = 0; k < d.alternatives.size(); ++k) {
      const DecisionAlternative& alt = d.alternatives[k];
      out += k == 0 ? "{\"worker\": " : ", {\"worker\": ";
      json_append_int(out, alt.worker);
      out += ", \"exec_s\": ";
      exec_s.append(out, alt.expected_exec_s);
      out += ", \"transfer_s\": ";
      transfer_s.append(out, alt.expected_transfer_s);
      out += ", \"energy_j\": ";
      energy_j.append(out, alt.expected_energy_j);
      out += "}";
    }
    out += "]}";
  }
  out += decisions_.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  os << out;
}

void DecisionLog::print_accuracy(std::ostream& os) const {
  const auto report = accuracy_report();
  char buf[160];
  std::snprintf(buf, sizeof buf, "%-14s %-5s %8s %10s %10s %10s\n", "codelet", "arch",
                "samples", "mean|err|", "bias", "worst|err|");
  os << buf;
  for (const ModelAccuracy& row : report) {
    std::snprintf(buf, sizeof buf, "%-14s %-5s %8llu %9.2f%% %+9.2f%% %9.2f%%\n",
                  row.codelet.c_str(), row.arch.c_str(),
                  static_cast<unsigned long long>(row.samples), row.mean_rel_error * 100.0,
                  row.mean_signed_error * 100.0, row.worst_rel_error * 100.0);
    os << buf;
  }
  if (report.empty()) {
    os << "(no realized decisions)\n";
  }
}

}  // namespace greencap::obs
