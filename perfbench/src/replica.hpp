// Execution paths of the benchmark.
//
// run_instrumented() is what one instrumented_faults experiment costs a
// user: the run under a CheckpointSession with mid-run checkpoints, every
// artifact exported through the obs/prof writers, then the boundary commit.
//
// run_replica() rebuilds core::run_experiment's fresh-run protocol from the
// library's public calls (RunContext, apply_caps, calibrate or replay,
// la::submit_*, finish) so the traced pass can open a span around each
// call. The traced pass compares every replica result with the library's
// own run_experiment, bit for bit; a mismatch means the spans would time a
// different program, and fails the pass.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "campaign.hpp"
#include "core/calibration_cache.hpp"
#include "core/checkpoint.hpp"
#include "spans.hpp"

namespace perfbench {

/// Counts gathered by the traced pass at the same call boundaries as the
/// spans.
struct LayerCounts {
  std::uint64_t tasks = 0;
  std::uint64_t dependency_edges = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t cap_retries = 0;
  std::uint64_t faults_fired = 0;
  std::uint64_t degraded_gpus = 0;
  std::uint64_t ckpt_writes = 0;
  std::uint64_t ckpt_probe_bytes = 0;
  std::uint64_t ckpt_probes = 0;
  std::uint64_t trace_bytes = 0;
  std::uint64_t decisions_bytes = 0;
  std::uint64_t profile_json_bytes = 0;
  std::uint64_t telemetry_samples = 0;
  std::uint64_t exports = 0;
};

/// Spans and counts of a traced pass; both null/absent in untraced passes.
struct Tracing {
  Spans* spans = nullptr;
  LayerCounts* counts = nullptr;
};

/// Executes one experiment inside a CheckpointSession.
using SessionRunner =
    std::function<ExperimentResult(const ExperimentConfig&, greencap::core::CheckpointSession&)>;

/// One instrumented experiment: checkpointed run, artifact export into
/// `dir`, boundary commit. `runner` executes the run itself.
ExperimentResult run_instrumented(const ExperimentConfig& config, const std::string& dir,
                                  const SessionRunner& runner, const Tracing& tracing);

/// The replica of run_experiment(config, services-with-cache) (or, with a
/// session, of run_experiment(config, session)), with spans and counts.
/// `ckpt_dir` receives the probe checkpoint written when `session` is set.
ExperimentResult run_replica(const ExperimentConfig& config,
                             greencap::core::CalibrationCache* cache,
                             greencap::core::CheckpointSession* session,
                             const std::string& ckpt_dir, const Tracing& tracing);

}  // namespace perfbench
