// Encoding/decoding of experiment state for checkpoint payloads.
//
// Three kinds of blob live inside a checkpoint file (docs/CHECKPOINTING.md):
//
//  * an ExperimentConfig encoding — the campaign's identity. A resume
//    re-derives its experiment sequence from the same binary+flags and
//    verifies each config byte-for-byte against the checkpoint, so a
//    checkpoint can never silently continue a *different* campaign;
//
//  * an ExperimentResult encoding — a completed experiment, replayed on
//    resume instead of re-run. Every double is stored by bit pattern, so
//    replayed results reproduce the original artifact bytes exactly;
//
//  * a RunState — the complete mid-flight state of one experiment:
//    runtime snapshot (DAG progress, workers, perf models, RNG),
//    device/meter states, monotonic energy trackers, power-manager and
//    fault-injector state, observability series, and the pending
//    simulator events in their original scheduling order. It is written,
//    never decoded: a resume re-runs the in-flight experiment from its
//    start and checks the re-run's own encoding at the same virtual
//    instant against these bytes (the determinism witness).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/serial.hpp"
#include "core/experiment.hpp"
#include "power/manager.hpp"

namespace greencap::core::ckpt_io {

/// Pending simulator events are captured sorted by their original event
/// sequence number, the order in which equal-time events fire.
enum class EventKind : std::uint8_t {
  kWorkerBegin = 1,  ///< index = worker id
  kWorkerEnd = 2,    ///< index = worker id
  kReconcile = 3,    ///< power-manager reconciliation tick
  kTelemetry = 4,    ///< telemetry sampling tick
  kFault = 5,        ///< index = fault-plan event index
  kWatchdog = 6,     ///< hang-watchdog probe
  kCkptTick = 7,     ///< periodic checkpoint tick
};

struct EventRecord {
  EventKind kind = EventKind::kWorkerBegin;
  std::int32_t index = -1;
  double when_s = 0.0;
};

struct GpuState {
  double cap_w = 0.0;
  bool busy = false;
  bool failed = false;
  double meter_power_w = 0.0;
  double meter_joules = 0.0;
  double meter_last_update_s = 0.0;
};

struct CpuState {
  double cap_w = 0.0;
  std::int32_t active_cores = 0;
  double meter_power_w = 0.0;
  double meter_joules = 0.0;
  double meter_last_update_s = 0.0;
};

struct TrackerState {
  double offset_j = 0.0;
  double last_raw_j = 0.0;
  std::int32_t resets = 0;
};

struct HistogramState {
  std::string name;
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Complete state of one in-flight experiment.
struct RunState {
  double t_virtual_s = 0.0;
  double t_begin_s = 0.0;
  std::uint64_t watchdog_progress = 0;
  hw::EnergyReading start_energy;
  rt::RuntimeSnapshot runtime;
  std::vector<GpuState> gpus;
  std::vector<CpuState> cpus;
  std::vector<TrackerState> trackers;
  power::PowerManager::Snapshot power;
  bool has_injector = false;
  fault::FaultInjector::Snapshot injector;
  std::vector<sim::Span> trace_spans;
  std::vector<sim::Marker> trace_markers;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramState> histograms;
  /// View of the run's live decision log (null when the log is off),
  /// not a copy: it is valid while the capturing RunContext lives, and
  /// encode_run_state must run before the simulation advances, since the
  /// log keeps growing and realizing decisions.
  const obs::DecisionLog* decisions = nullptr;
  std::vector<obs::TelemetrySample> telemetry;
  std::vector<fault::DegradationEvent> degradation;
  std::vector<EventRecord> events;
};

void encode_config(ckpt::Writer& w, const ExperimentConfig& config);
[[nodiscard]] ExperimentConfig decode_config(ckpt::Reader& r);
/// The config's canonical encoding, used for campaign-identity matching.
[[nodiscard]] std::string config_bytes(const ExperimentConfig& config);

/// Result encodings carry `had_observability` so a resume knows the killed
/// process already exported that experiment's artifacts.
void encode_result(ckpt::Writer& w, const ExperimentResult& result);
struct DecodedResult {
  ExperimentResult result;
  bool had_observability = false;
};
[[nodiscard]] DecodedResult decode_result(ckpt::Reader& r);

void encode_run_state(ckpt::Writer& w, const RunState& state);

}  // namespace greencap::core::ckpt_io
