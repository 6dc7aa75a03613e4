#include "core/driver.hpp"

#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <utility>

#include "ckpt/signal.hpp"
#include "fault/fault_plan.hpp"
#include "obs/artifact.hpp"
#include "obs/trace_export.hpp"
#include "prof/html_report.hpp"
#include "prof/profile.hpp"

namespace greencap::core {

void DriverFlags::register_on(FlagParser& parser) {
  parser.i32("--jobs", &jobs);
  parser.str("--trace-json", &trace_json);
  parser.str("--metrics-json", &metrics_json);
  parser.str("--profile-json", &profile_json);
  parser.str("--profile-html", &profile_html);
  parser.f64("--telemetry-period-ms", &telemetry_period_ms);
  parser.value("--faults", "SPEC", [this](const std::string& spec) -> std::string {
    if (!spec.empty()) {
      try {
        (void)fault::FaultPlan::parse(spec);
      } catch (const std::exception& e) {
        return std::string{"expects a fault plan (kind@gpuN:key=val,... or @FILE): "} + e.what();
      }
    }
    resilience.faults = spec;
    return {};
  });
  parser.u64("--fault-seed", &resilience.fault_seed);
  parser.f64("--reconcile-ms", &resilience.reconcile_ms);
  parser.flag("--degrade", &resilience.degrade);
  parser.i32("--cap-retries", &resilience.max_cap_retries);
  parser.str("--checkpoint", &checkpoint.path);
  parser.f64("--checkpoint-every-ms", &checkpoint.every_ms);
  parser.f64("--watchdog-ms", &checkpoint.watchdog_ms);
  parser.str("--resume", &checkpoint.resume_path);
  parser.i32("--ckpt-kill-after", &checkpoint.kill_after);
}

const char* DriverFlags::usage() {
  return "campaign and capture:\n"
         "  --jobs N                 worker threads for multi-run campaigns\n"
         "                           (default 1 = serial; 0 = hardware concurrency)\n"
         "  --trace-json FILE        Chrome/Perfetto trace-event export\n"
         "  --metrics-json FILE      metrics registry snapshot\n"
         "  --profile-json FILE      energy-attribution profile (docs/PROFILING.md)\n"
         "  --profile-html FILE      self-contained HTML run report\n"
         "  --telemetry-period-ms N  sample power/occupancy every N virtual ms\n"
         "fault injection / resilience (docs/ROBUSTNESS.md):\n"
         "  --faults SPEC            fault plan: kind@gpuN:key=val,... (';'-separated)\n"
         "                           or @FILE for a JSON plan\n"
         "  --fault-seed N           injector RNG seed (default: derived from the run's seed)\n"
         "  --reconcile-ms N         verify/re-assert cap drift every N virtual ms\n"
         "  --degrade                fall back to H on cap failure instead of aborting\n"
         "  --cap-retries N          retry budget per cap write (default 3)\n"
         "checkpoint/restart (docs/CHECKPOINTING.md):\n"
         "  --checkpoint FILE        write crash-consistent checkpoints to FILE\n"
         "  --checkpoint-every-ms N  also checkpoint mid-run every N virtual ms\n"
         "  --watchdog-ms N          abort with a checkpoint if no task completes\n"
         "                           for N virtual ms\n"
         "  --resume FILE            resume a killed/interrupted run from FILE\n"
         "  --ckpt-kill-after N      test hook: _Exit(137) after the Nth checkpoint write\n";
}

std::string DriverFlags::validate() const {
  if (jobs < 0) {
    return "--jobs expects a non-negative value, got " + std::to_string(jobs);
  }
  if (checkpoint.active() && jobs != 1) {
    return "--checkpoint/--resume/--checkpoint-every-ms/--watchdog-ms require --jobs 1 "
           "(checkpoint sessions are serial); drop --jobs or the checkpoint flags";
  }
  return {};
}

ObservabilityOptions DriverFlags::observability(bool telemetry_output) const {
  ObservabilityOptions obs;
  obs.trace = !trace_json.empty();
  obs.metrics = !metrics_json.empty();
  obs.profile = !profile_json.empty() || !profile_html.empty();
  if (telemetry_period_ms > 0.0) {
    obs.telemetry_period_ms = telemetry_period_ms;
  } else if (obs.trace || obs.profile || telemetry_output) {
    obs.telemetry_period_ms = 10.0;
  }
  return obs;
}

std::unique_ptr<CampaignEngine> DriverFlags::make_engine() const {
  if (checkpoint.active()) {
    ckpt::install_signal_handlers();
  }
  EngineOptions options;
  options.jobs = jobs;
  options.checkpoint = checkpoint;
  return std::make_unique<CampaignEngine>(std::move(options));
}

void DriverFlags::export_artifacts(const ObservabilityData& data) const {
  if (!trace_json.empty()) {
    export_artifact(trace_json, "trace", [&](std::ostream& os) {
      obs::ChromeTraceOptions opts;
      opts.telemetry = &data.telemetry;
      opts.worker_names = data.worker_names;
      obs::write_chrome_trace(os, data.trace, opts);
    });
  }
  if (!metrics_json.empty()) {
    export_artifact(metrics_json, "metrics",
                    [&](std::ostream& os) { data.metrics.write_json(os); });
  }
  if (!profile_json.empty() || !profile_html.empty()) {
    prof::AnalyzeOptions popts;
    popts.decisions = &data.decisions;
    popts.telemetry = &data.telemetry;
    const prof::Profile profile = prof::analyze(data.capture, popts);
    if (!profile_json.empty()) {
      export_artifact(profile_json, "profile", [&](std::ostream& os) { profile.write_json(os); });
    }
    if (!profile_html.empty()) {
      export_artifact(profile_html, "report",
                      [&](std::ostream& os) { prof::write_html_report(os, profile); });
    }
  }
}

void export_artifact(const std::string& path, const char* what,
                     const std::function<void(std::ostream&)>& writer) {
  if (!obs::write_artifact(path, what, writer)) {
    std::exit(1);
  }
  std::fprintf(stderr, "wrote %s: %s\n", what, path.c_str());
}

}  // namespace greencap::core
