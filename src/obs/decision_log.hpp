// Scheduler decision log and perf-model accuracy reporting.
//
// For every task the runtime dispatches, the log captures the chosen
// worker, the per-worker expected durations/energies the scheduler saw
// (from the history perf models), the time spent waiting in queues, and —
// once the task retires — the realized duration. Comparing expectation
// against realization per (codelet, architecture) yields the mean
// relative error of the performance models, which directly validates the
// paper's central mechanism: recalibrating the models after a power-cap
// change keeps the dmdas scheduler implicitly informed of the slowed
// devices. A capped GPU with stale models shows up here as a large error
// long before it shows up in the makespan.
//
// The log is columnar: one fixed-size Decision record per dispatched task,
// one flat DecisionAlternative array for the whole run (each record names
// its slice), and codelets as interned ids whose names are resolved only
// by the exporters. Recording a decision therefore allocates nothing once
// the arrays have grown to the run's size.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace greencap::obs {

/// One scheduling alternative the runtime evaluated for a task.
struct DecisionAlternative {
  std::int32_t worker = -1;
  double expected_exec_s = 0.0;
  double expected_transfer_s = 0.0;
  double expected_energy_j = 0.0;
};

/// Architecture of the worker a task was dispatched to.
enum class DecisionArch : std::uint8_t { kCpu, kCuda };

/// "cpu" or "cuda".
[[nodiscard]] const char* arch_name(DecisionArch arch);

/// One dispatched task: a plain record, no heap members.
struct Decision {
  std::int64_t task = -1;
  std::uint32_t codelet = 0;    ///< DecisionLog::intern_codelet id
  std::int32_t chosen_worker = -1;
  sim::SimTime decided_at;
  double queue_wait_s = 0.0;    ///< ready -> dispatch latency
  double expected_exec_s = 0.0; ///< model's estimate for the chosen worker
  double realized_exec_s = -1.0;  ///< filled at completion; -1 while in flight
  /// Slice of DecisionLog::alternatives(): every eligible worker.
  std::uint32_t first_alternative = 0;
  std::uint32_t alternative_count = 0;
  DecisionArch arch = DecisionArch::kCpu;  ///< of the chosen worker

  [[nodiscard]] bool realized() const { return realized_exec_s >= 0.0; }
  /// (expected - realized) / realized; 0 when not realized.
  [[nodiscard]] double relative_error() const;
};

/// Per-(codelet, arch) aggregate of model accuracy.
struct ModelAccuracy {
  std::string codelet;
  std::string arch;
  std::uint64_t samples = 0;
  double mean_rel_error = 0.0;      ///< mean of |expected - realized| / realized
  double mean_signed_error = 0.0;   ///< mean of (expected - realized) / realized
  double worst_rel_error = 0.0;
};

class DecisionLog {
 public:
  /// Id of codelet `name`, assigned on first sight. Recorders resolve it
  /// once per codelet, not per decision.
  [[nodiscard]] std::uint32_t intern_codelet(std::string_view name);
  [[nodiscard]] const std::string& codelet_name(std::uint32_t id) const {
    return codelet_names_[id];
  }

  /// Appends a decision with no alternatives yet and returns its index
  /// for realize(); add_alternative() extends the newest decision.
  std::size_t add(const Decision& decision);
  void add_alternative(const DecisionAlternative& alternative);

  /// Records the realized execution time of the decision at `index`.
  void realize(std::size_t index, double realized_exec_s);

  [[nodiscard]] const std::vector<Decision>& decisions() const { return decisions_; }
  [[nodiscard]] std::span<const DecisionAlternative> alternatives(const Decision& d) const {
    return {alternatives_.data() + d.first_alternative, d.alternative_count};
  }
  [[nodiscard]] bool empty() const { return decisions_.empty(); }
  [[nodiscard]] std::size_t size() const { return decisions_.size(); }

  /// Accuracy aggregates over realized decisions, sorted by codelet/arch.
  [[nodiscard]] std::vector<ModelAccuracy> accuracy_report() const;

  /// Mean relative |error| over every realized decision.
  [[nodiscard]] double overall_mean_rel_error() const;

  /// {"decisions": [{task, codelet, worker, ...}]}
  void write_json(std::ostream& os) const;
  /// Human-readable accuracy table (one row per codelet/arch).
  void print_accuracy(std::ostream& os) const;

 private:
  std::vector<Decision> decisions_;
  std::vector<DecisionAlternative> alternatives_;
  std::vector<std::string> codelet_names_;
};

}  // namespace greencap::obs
