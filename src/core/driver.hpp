// Campaign-driver plumbing shared by the greencap CLI and the bench binaries.
//
// Every driver runs its experiments through CampaignEngine, which owns the
// checkpoint protocol, and exposes the same campaign flags: --jobs, the
// fault-injection/resilience knobs, the checkpoint/restart knobs and the
// trace/metrics/profile outputs. DriverFlags registers and validates that
// set once, derives the capture switches it implies, builds the engine and
// exports the artifacts; a driver adds only the flags no other driver has.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>

#include "core/checkpoint.hpp"
#include "core/cli_flags.hpp"
#include "core/engine.hpp"
#include "core/experiment.hpp"

namespace greencap::core {

struct DriverFlags {
  /// Campaign worker threads (1 = serial, 0 = hardware concurrency).
  int jobs = 1;
  ResilienceConfig resilience;
  CheckpointOptions checkpoint;
  std::string trace_json;
  std::string metrics_json;
  std::string profile_json;
  std::string profile_html;
  /// 0 = the default period when a requested output needs telemetry.
  double telemetry_period_ms = 0.0;

  /// Registers the shared flags on `parser`, writing into this object.
  void register_on(FlagParser& parser);

  /// Empty when the parsed values are consistent, otherwise the error line
  /// a driver prints before exiting 2.
  [[nodiscard]] std::string validate() const;

  /// Capture switches for the requested outputs. A trace, a profile, or a
  /// driver's own telemetry output (`telemetry_output`) samples telemetry
  /// every 10 virtual ms unless --telemetry-period-ms says otherwise.
  [[nodiscard]] ObservabilityOptions observability(bool telemetry_output = false) const;

  /// The campaign engine for --jobs and the checkpoint flags. Installs the
  /// SIGINT/SIGTERM latch when checkpointing is requested; throws
  /// ckpt::CheckpointError for an unreadable --resume file.
  [[nodiscard]] std::unique_ptr<CampaignEngine> make_engine() const;

  /// Writes the requested trace, metrics and profile artifacts of one run.
  void export_artifacts(const ObservabilityData& data) const;
};

/// Checked artifact write (obs::write_artifact): exits 1 on failure,
/// otherwise reports "wrote <what>: <path>" on stderr, so stdout stays the
/// same whether or not a resume replayed the exporting run.
void export_artifact(const std::string& path, const char* what,
                     const std::function<void(std::ostream&)>& writer);

}  // namespace greencap::core
