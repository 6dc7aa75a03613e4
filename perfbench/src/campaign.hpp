// Seeded workload generation for the repository benchmark.
//
// Every ExperimentConfig the benchmark hands to the library is generated
// here from the workload name and the --seed argument; the library never
// sees the seed in any other form. README.md explains why each workload
// exists and which layers it loads.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace perfbench {

using greencap::core::ExperimentConfig;
using greencap::core::ExperimentResult;

enum class Workload { kPaperLadder, kAdvisorBurst, kInstrumentedFaults };

[[nodiscard]] std::optional<Workload> parse_workload(const std::string& name);
[[nodiscard]] const char* to_string(Workload workload);

struct Campaign {
  /// One pass of the workload: the ladder, one burst, or one fault cycle.
  std::vector<ExperimentConfig> configs;
  /// Campaign-engine worker threads (1 = the serial engine path).
  int jobs = 1;
  /// True when runs go through CampaignEngine (shared CalibrationCache);
  /// false for checkpointed runs, which the engine cannot host.
  bool engine = true;
};

[[nodiscard]] Campaign make_campaign(Workload workload, std::uint64_t seed);

/// Virtual-time period of mid-run checkpoints in instrumented runs.
inline constexpr double kCheckpointEveryMs = 1000.0;

/// The instrumented treatment of one config: every capture on (trace,
/// metrics, decision log, 10 ms telemetry, profile) plus a seeded fault plan
/// (cap-write failures, drift, a straggler window, one dropout) with
/// degradation and cap reconciliation enabled.
[[nodiscard]] ExperimentConfig instrument(ExperimentConfig config, std::uint64_t seed);

/// `config` with every capture switched off and no fault plan.
[[nodiscard]] ExperimentConfig plain(ExperimentConfig config);

/// GEMM runs on 32-AMD-4-A100 at Table II sizes whose efficiency gains the
/// paper publishes: HHHH, BBBB, HHBB in double, then HHHH, BBBB in single.
[[nodiscard]] std::vector<ExperimentConfig> anchor_configs();

/// Mean absolute gap, in percentage points, between simulated and published
/// paper numbers: Table I best cap (% TDP) and saving per GPU/precision, and
/// the GEMM configuration anchors. `anchors` holds the results of
/// anchor_configs(), in order.
[[nodiscard]] double paper_gap_pp(const std::vector<ExperimentResult>& anchors);

}  // namespace perfbench
