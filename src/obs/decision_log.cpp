#include "obs/decision_log.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <ostream>
#include <tuple>

#include "obs/json.hpp"

namespace greencap::obs {

const char* arch_name(DecisionArch arch) {
  return arch == DecisionArch::kCuda ? "cuda" : "cpu";
}

double Decision::relative_error() const {
  if (!realized() || realized_exec_s <= 0.0) {
    return 0.0;
  }
  return (expected_exec_s - realized_exec_s) / realized_exec_s;
}

std::uint32_t DecisionLog::intern_codelet(std::string_view name) {
  const auto it = std::find(codelet_names_.begin(), codelet_names_.end(), name);
  if (it != codelet_names_.end()) {
    return static_cast<std::uint32_t>(it - codelet_names_.begin());
  }
  codelet_names_.emplace_back(name);
  return static_cast<std::uint32_t>(codelet_names_.size() - 1);
}

std::size_t DecisionLog::add(const Decision& decision) {
  Decision& d = decisions_.emplace_back(decision);
  d.first_alternative = static_cast<std::uint32_t>(alternatives_.size());
  d.alternative_count = 0;
  return decisions_.size() - 1;
}

void DecisionLog::add_alternative(const DecisionAlternative& alternative) {
  alternatives_.push_back(alternative);
  ++decisions_.back().alternative_count;
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
  // One slot per (codelet id, arch).
  std::vector<Accum> by_key(codelet_names_.size() * 2);
  for (const Decision& d : decisions_) {
    if (!d.realized() || d.realized_exec_s <= 0.0) {
      continue;
    }
    Accum& a = by_key[d.codelet * 2 + static_cast<std::size_t>(d.arch)];
    const double err = d.relative_error();
    ++a.n;
    a.abs_sum += std::fabs(err);
    a.signed_sum += err;
    a.worst = std::max(a.worst, std::fabs(err));
  }
  std::vector<ModelAccuracy> report;
  for (std::size_t key = 0; key < by_key.size(); ++key) {
    const Accum& a = by_key[key];
    if (a.n == 0) {
      continue;
    }
    ModelAccuracy row;
    row.codelet = codelet_names_[key / 2];
    row.arch = arch_name(static_cast<DecisionArch>(key % 2));
    row.samples = a.n;
    row.mean_rel_error = a.abs_sum / static_cast<double>(a.n);
    row.mean_signed_error = a.signed_sum / static_cast<double>(a.n);
    row.worst_rel_error = a.worst;
    report.push_back(std::move(row));
  }
  std::sort(report.begin(), report.end(), [](const ModelAccuracy& l, const ModelAccuracy& r) {
    return std::tie(l.codelet, l.arch) < std::tie(r.codelet, r.arch);
  });
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

// The fixed text around each field. The first decision and the first
// alternative of each decision drop the leading separator.
constexpr std::string_view kHead = "{\n  \"decisions\": [";
constexpr std::string_view kTask = ",\n    {\"task\": ";
constexpr std::string_view kCodelet = ", \"codelet\": ";
constexpr std::string_view kArch = ", \"arch\": ";
constexpr std::string_view kWorker = ", \"worker\": ";
constexpr std::string_view kDecidedAt = ", \"decided_at_s\": ";
constexpr std::string_view kQueueWait = ", \"queue_wait_s\": ";
constexpr std::string_view kExpected = ", \"expected_exec_s\": ";
constexpr std::string_view kRealized = ", \"realized_exec_s\": ";
constexpr std::string_view kAlternatives = ", \"alternatives\": [";
constexpr std::string_view kDecisionEnd = "]}";
constexpr std::string_view kAltWorker = ", {\"worker\": ";
constexpr std::string_view kAltExec = ", \"exec_s\": ";
constexpr std::string_view kAltTransfer = ", \"transfer_s\": ";
constexpr std::string_view kAltEnergy = ", \"energy_j\": ";
constexpr std::string_view kAltEnd = "}";
constexpr std::string_view kTail = "\n  ]\n}\n";

/// Upper bound of one decision's text without its codelet name: six
/// numbers and the quoted arch.
constexpr std::size_t kDecisionBytes =
    kTask.size() + kCodelet.size() + kArch.size() + kWorker.size() + kDecidedAt.size() +
    kQueueWait.size() + kExpected.size() + kRealized.size() + kAlternatives.size() +
    kDecisionEnd.size() + 6 * kJsonNumberMaxChars + sizeof "\"cuda\"";
/// Upper bound of one alternative's text: four numbers.
constexpr std::size_t kAlternativeBytes = kAltWorker.size() + kAltExec.size() +
                                          kAltTransfer.size() + kAltEnergy.size() +
                                          kAltEnd.size() + 4 * kJsonNumberMaxChars;

char* put(char* at, std::string_view text) {
  std::memcpy(at, text.data(), text.size());
  return at + text.size();
}

/// Writes numbers in place, reusing the text of the previous one when the
/// bits repeat: the alternatives of one decision mostly repeat their
/// neighbour's estimates (CPU workers share one perf model).
class RepeatedNumber {
 public:
  char* write(char* at, double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    if (text_ != nullptr && bits == bits_) {
      return put(at, {text_, len_});
    }
    char* end = json_write_number(at, v);
    text_ = at;
    len_ = static_cast<std::size_t>(end - at);
    bits_ = bits;
    return end;
  }

 private:
  std::uint64_t bits_ = 0;
  const char* text_ = nullptr;  ///< earlier in the same buffer
  std::size_t len_ = 0;
};

}  // namespace

void DecisionLog::write_json(std::ostream& os) const {
  // Codelet names are resolved once here, not per decision.
  std::vector<std::string> codelets;
  codelets.reserve(codelet_names_.size());
  std::size_t longest_codelet = 0;
  for (const std::string& name : codelet_names_) {
    codelets.push_back(json_string(name));
    longest_codelet = std::max(longest_codelet, codelets.back().size());
  }
  const std::string_view archs[] = {"\"cpu\"", "\"cuda\""};

  const std::size_t bound = kHead.size() + kTail.size() +
                            decisions_.size() * (kDecisionBytes + longest_codelet) +
                            alternatives_.size() * kAlternativeBytes;
  const auto buf = std::make_unique_for_overwrite<char[]>(bound);
  char* at = put(buf.get(), kHead);
  RepeatedNumber exec_s;
  RepeatedNumber transfer_s;
  RepeatedNumber energy_j;
  for (std::size_t i = 0; i < decisions_.size(); ++i) {
    const Decision& d = decisions_[i];
    at = put(at, i == 0 ? kTask.substr(1) : kTask);
    at = json_write_int(at, d.task);
    at = put(at, kCodelet);
    at = put(at, codelets[d.codelet]);
    at = put(at, kArch);
    at = put(at, archs[static_cast<std::size_t>(d.arch)]);
    at = put(at, kWorker);
    at = json_write_int(at, d.chosen_worker);
    at = put(at, kDecidedAt);
    at = json_write_number(at, d.decided_at.sec());
    at = put(at, kQueueWait);
    at = json_write_number(at, d.queue_wait_s);
    at = put(at, kExpected);
    at = json_write_number(at, d.expected_exec_s);
    at = put(at, kRealized);
    at = json_write_number(at, d.realized_exec_s);
    at = put(at, kAlternatives);
    const std::span<const DecisionAlternative> alts = alternatives(d);
    for (std::size_t k = 0; k < alts.size(); ++k) {
      const DecisionAlternative& alt = alts[k];
      at = put(at, k == 0 ? kAltWorker.substr(2) : kAltWorker);
      at = json_write_int(at, alt.worker);
      at = put(at, kAltExec);
      at = exec_s.write(at, alt.expected_exec_s);
      at = put(at, kAltTransfer);
      at = transfer_s.write(at, alt.expected_transfer_s);
      at = put(at, kAltEnergy);
      at = energy_j.write(at, alt.expected_energy_j);
      at = put(at, kAltEnd);
    }
    at = put(at, kDecisionEnd);
  }
  at = put(at, decisions_.empty() ? kTail.substr(3) : kTail);
  os.write(buf.get(), at - buf.get());
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
