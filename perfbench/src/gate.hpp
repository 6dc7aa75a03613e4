// Correctness gate and output digests.
//
// An experiment fails when it throws, when it completes fewer tasks than it
// submitted, when its per-device energies do not sum to total_energy_j
// within 1e-9 relative, or when its result is not bit-identical to the first
// execution of the same config in this process. failed / attempted is the
// benchmark's failed_frac.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "campaign.hpp"

namespace perfbench {

/// FNV-1a over the canonical binary encoding of a result (every field but
/// the observability payload, doubles by bit pattern).
[[nodiscard]] std::uint64_t result_digest(const ExperimentResult& result);

/// Totals of simulated statistics; identical for any host-speed change.
struct SimTotals {
  std::uint64_t experiments = 0;
  std::uint64_t tasks = 0;
  std::uint64_t cpu_tasks = 0;
  double makespan_s = 0.0;
  double energy_j = 0.0;
  double gpu_energy_j = 0.0;
  /// FNV-1a over time, per-device energy bits and task counts, folded in
  /// campaign order.
  std::uint64_t digest = 0xcbf29ce484222325ULL;

  void add(const ExperimentResult& result);
};

class Gate {
 public:
  /// Checks one completed experiment. The first execution of each config
  /// is remembered (and folded into sim()); later ones must match it bit
  /// for bit. Returns whether the experiment passed.
  bool check(const ExperimentResult& result);

  /// Records an experiment that threw.
  void fail(const ExperimentConfig& config, const std::string& why);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::string& first_failure() const { return first_failure_; }
  [[nodiscard]] const SimTotals& sim() const { return sim_; }

  /// Digest of the first execution of `config`, or 0 if it never ran.
  [[nodiscard]] std::uint64_t first_digest(const ExperimentConfig& config) const;

 private:
  void record_failure(const ExperimentConfig& config, const std::string& why);

  std::unordered_map<std::string, std::uint64_t> first_;  ///< config bytes -> digest
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::string first_failure_;
  SimTotals sim_;
};

}  // namespace perfbench
