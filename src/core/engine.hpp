// Deterministic parallel campaign engine.
//
// A campaign is an ordered list of ExperimentConfigs. Runs are completely
// independent by construction (each one owns a private RunContext), so the
// engine executes them on a fixed-size worker pool and still reproduces the
// serial campaign bit for bit:
//
//   * every run gets an isolated context — no shared mutable state;
//   * the only cross-run sharing is the CalibrationCache, whose snapshots
//     are immutable and whose cached warmups are bit-identical to local
//     computation (see core/calibration_cache.hpp);
//   * results are collected by input index, and the on_result hook fires on
//     the calling thread in strict index order as each prefix completes —
//     artifact and stdout emission therefore order identically at any
//     --jobs value.
//
// With EngineOptions::checkpoint active the engine also runs the campaign's
// checkpoint protocol (docs/CHECKPOINTING.md) through a CheckpointSession
// it owns: replay the resume file's completed prefix, run the rest, fire
// on_result (where drivers export artifacts), THEN commit the boundary
// checkpoint, and honour the interrupt latch after the last run. That
// protocol is inherently serial, so the constructor rejects checkpointing
// at jobs != 1 rather than silently degrading.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/calibration_cache.hpp"
#include "core/checkpoint.hpp"
#include "core/experiment.hpp"
#include "sim/log.hpp"

namespace greencap::core {

struct EngineOptions {
  /// Worker threads: 1 = serial (default), 0 = hardware concurrency.
  int jobs = 1;
  /// Level and sink for every run's private logger. A shared sink must be
  /// thread-safe at jobs > 1; the default stderr sink is.
  sim::LogLevel log_level = sim::LogLevel::kWarn;
  sim::Logger::Sink log_sink;
  /// Checkpoint/restart of the whole campaign; requires jobs == 1 when
  /// active(). Signal handlers are the driver's business, not the engine's.
  CheckpointOptions checkpoint;
};

/// --jobs semantics: 0 → hardware concurrency (at least 1), n → n.
[[nodiscard]] int resolve_jobs(int jobs);

class CampaignEngine {
 public:
  /// Throws std::invalid_argument for checkpointing at jobs != 1, and
  /// ckpt::CheckpointError for an unreadable resume file.
  explicit CampaignEngine(EngineOptions options = {});

  CampaignEngine(const CampaignEngine&) = delete;
  CampaignEngine& operator=(const CampaignEngine&) = delete;

  /// Called on the engine's calling thread, in strict index order, once per
  /// completed run. The result reference stays valid until run() returns.
  using ResultHook = std::function<void(std::size_t index, ExperimentResult& result)>;

  /// Executes every config and returns the results in input order. If any
  /// run throws, workers stop claiming new indices, in-flight runs drain,
  /// and the lowest-index exception is rethrown (matching which failure a
  /// serial campaign would have surfaced first). With checkpointing, a
  /// latched SIGINT/SIGTERM surfaces as ckpt::InterruptedError.
  std::vector<ExperimentResult> run(const std::vector<ExperimentConfig>& configs,
                                    const ResultHook& on_result = {});

  /// Deterministic fan-out for index-addressable work that is not an
  /// ExperimentConfig (cap sweeps, custom simulation streams). `fn(i)` must
  /// touch only state owned by index i; exceptions surface as in run().
  void for_each_index(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// The campaign-shared warmup cache, for inspection in tests.
  [[nodiscard]] CalibrationCache& cache() { return cache_; }
  [[nodiscard]] int jobs() const { return jobs_; }

 private:
  EngineOptions options_;
  int jobs_;
  CalibrationCache cache_;
  std::unique_ptr<CheckpointSession> session_;  ///< null unless checkpointing
};

}  // namespace greencap::core
