#include "replica.hpp"

#include <filesystem>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>

#include "ckpt/file.hpp"
#include "ckpt/serial.hpp"
#include "core/checkpoint_io.hpp"
#include "core/run_context.hpp"
#include "la/calibration_sets.hpp"
#include "la/lq.hpp"
#include "la/lu.hpp"
#include "la/operations.hpp"
#include "la/qr.hpp"
#include "obs/artifact.hpp"
#include "obs/trace_export.hpp"
#include "prof/html_report.hpp"
#include "prof/profile.hpp"
#include "rt/calibration.hpp"

namespace perfbench {

namespace core = greencap::core;
namespace la = greencap::la;
namespace rt = greencap::rt;

namespace {

/// Runs `fn` inside a span named `name` when tracing.
template <typename F>
decltype(auto) timed(const Tracing& tracing, const char* name, F&& fn) {
  if (tracing.spans == nullptr) {
    return fn();
  }
  const Spans::Scope scope{*tracing.spans, name};
  return fn();
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

template <typename Writer>
void export_file(const Tracing& tracing, const char* span, const std::string& path,
                 const char* what, Writer&& writer) {
  const bool ok = timed(tracing, span, [&] {
    return greencap::obs::write_artifact(path, what, std::forward<Writer>(writer));
  });
  if (!ok) {
    throw std::runtime_error(std::string{"cannot export "} + what + " to " + path);
  }
}

// The two helpers below restate core/experiment.cpp's private calibration
// sharing rule and cache key; the replica must share calibrations exactly
// when the library does.
bool calibration_shareable(const ExperimentConfig& config) {
  return config.resilience.faults.empty() && !config.resilience.degrade;
}

std::string calibration_key(const ExperimentConfig& config) {
  std::ostringstream oss;
  oss << "cal|" << config.platform << '|' << greencap::hw::to_string(config.precision) << '|'
      << config.nb << '|' << core::to_string(config.op) << '|'
      << (config.gpu_config.size() ? config.gpu_config.to_string() : "H*");
  if (config.cpu_cap) {
    oss << "|cpu" << config.cpu_cap->package << '@' << config.cpu_cap->fraction_of_tdp;
  }
  oss << "|stale=" << (config.stale_models ? 1 : 0);
  return oss.str();
}

/// Mirrors core/experiment.cpp's finalize_metrics.
void finalize(ExperimentResult& result) {
  const ExperimentConfig& config = result.config;
  result.time_s = result.stats.makespan.sec();
  const double flops = core::operation_flops(config.op, static_cast<double>(config.n));
  result.gflops = result.time_s > 0 ? flops / result.time_s / 1e9 : 0.0;
  result.total_energy_j = result.energy.total();
  result.efficiency_gflops_per_w =
      result.total_energy_j > 0 ? flops / result.total_energy_j / 1e9 : 0.0;
  for (const auto& w : result.stats.per_worker) {
    if (w.arch == rt::WorkerArch::kCuda) {
      result.gpu_tasks += w.tasks;
    } else {
      result.cpu_tasks += w.tasks;
    }
  }
  if (result.observability != nullptr && config.obs.metrics) {
    greencap::obs::MetricsRegistry& reg = result.observability->metrics;
    reg.gauge("exp.time_s").set(result.time_s);
    reg.gauge("exp.gflops").set(result.gflops);
    reg.gauge("exp.energy_j").set(result.total_energy_j);
    reg.gauge("exp.efficiency_gflops_per_w").set(result.efficiency_gflops_per_w);
  }
}

/// A probe checkpoint taken after submission: the same capture, encoding
/// and durable write a mid-run checkpoint performs, timed at the call
/// boundary. capture_run_state() is a pure read, so the run is unchanged.
void probe_checkpoint(core::RunContext& ctx, const std::string& dir, const Tracing& tracing) {
  const core::ckpt_io::RunState state =
      timed(tracing, "ckpt.capture", [&] { return ctx.capture_run_state(); });
  std::string payload = timed(tracing, "ckpt.encode", [&] {
    greencap::ckpt::Writer w;
    core::ckpt_io::encode_run_state(w, state);
    return w.take();
  });
  greencap::ckpt::Manifest manifest;
  manifest.kind = "run";
  manifest.reason = "periodic";
  manifest.t_virtual_s = state.t_virtual_s;
  const std::string path = dir + "/tracing.gckp";
  timed(tracing, "ckpt.write",
        [&] { greencap::ckpt::write_checkpoint_file(path, manifest, payload); });
  if (tracing.counts != nullptr) {
    ++tracing.counts->ckpt_probes;
    tracing.counts->ckpt_probe_bytes += file_bytes(path);
  }
}

template <typename T>
ExperimentResult run_typed(const ExperimentConfig& config, core::CalibrationCache* cache,
                           core::CheckpointSession* session, const std::string& ckpt_dir,
                           const Tracing& tracing) {
  if (config.execute_kernels) {
    throw std::invalid_argument("run_replica: numeric execution is not replicated");
  }
  core::RunServices services;
  services.calibration = cache;
  std::optional<core::RunContext> ctx;
  timed(tracing, "core.context_build", [&] { ctx.emplace(config, services); });
  rt::Runtime& runtime = ctx->runtime();

  la::Codelets<T> codelets;
  la::LuCodelets<T> lu_codelets;
  la::QrCodelets<T> qr_codelets;
  la::LqCodelets<T> lq_codelets;
  rt::Calibrator calibrator{runtime};
  auto calibrate_all = [&] {
    timed(tracing, "rt.calibrate", [&] {
      la::calibrate_codelets<T>(calibrator, codelets, {config.nb});
      if (config.op == core::Operation::kGetrf) {
        la::calibrate_lu_codelets<T>(calibrator, lu_codelets, {config.nb});
      } else if (config.op == core::Operation::kGeqrf) {
        la::calibrate_qr_codelets<T>(calibrator, qr_codelets, {config.nb});
      } else if (config.op == core::Operation::kGelqf) {
        la::calibrate_lq_codelets<T>(calibrator, lq_codelets, {config.nb});
      }
    });
  };
  auto warm_models = [&] {
    if (cache == nullptr || !calibration_shareable(config)) {
      calibrate_all();
      return;
    }
    bool computed_here = false;
    const rt::CalibrationRecord& record = timed(tracing, "core.calibration_lookup", [&]()
                                                    -> const rt::CalibrationRecord& {
      return cache->calibration(calibration_key(config), [&] {
        rt::CalibrationRecord fresh;
        calibrator.set_record_sink(&fresh);
        calibrate_all();
        calibrator.set_record_sink(nullptr);
        computed_here = true;
        return fresh;
      });
    });
    if (!computed_here) {
      timed(tracing, "rt.calibration_replay", [&] { rt::replay_calibration(runtime, record); });
    }
  };
  auto apply_caps = [&] { timed(tracing, "power.apply", [&] { ctx->apply_caps(); }); };
  if (config.stale_models) {
    warm_models();
    apply_caps();
  } else {
    apply_caps();
    if (config.recalibrate) {
      warm_models();
    }
  }

  ctx->start_resilience(false);

  std::optional<la::TileMatrix<T>> a;
  std::optional<la::TileMatrix<T>> b;
  std::optional<la::TileMatrix<T>> c;
  std::optional<la::QrWorkspace<T>> workspace;
  timed(tracing, "la.build", [&] {
    a.emplace(config.n, config.nb, false, "A");
    a->register_with(runtime);
    switch (config.op) {
      case core::Operation::kGemm:
        b.emplace(config.n, config.nb, false, "B");
        c.emplace(config.n, config.nb, false, "C");
        b->register_with(runtime);
        c->register_with(runtime);
        break;
      case core::Operation::kPotrf:
      case core::Operation::kGetrf:
        break;
      case core::Operation::kGeqrf:
      case core::Operation::kGelqf:
        workspace.emplace(runtime, *a);
        break;
    }
  });

  ctx->begin_measurement();

  timed(tracing, "la.submit", [&] {
    switch (config.op) {
      case core::Operation::kGemm: la::submit_gemm<T>(runtime, codelets, *a, *b, *c); break;
      case core::Operation::kPotrf: la::submit_potrf<T>(runtime, codelets, *a); break;
      case core::Operation::kGetrf: la::submit_getrf<T>(runtime, lu_codelets, *a); break;
      case core::Operation::kGeqrf:
        la::submit_geqrf<T>(runtime, qr_codelets, *a, *workspace);
        break;
      case core::Operation::kGelqf:
        la::submit_gelqf<T>(runtime, lq_codelets, *a, *workspace);
        break;
    }
  });

  if (session != nullptr && (session->options().every_ms > 0.0 ||
                             session->options().watchdog_ms > 0.0)) {
    ctx->attach_checkpointer(*session);
  }
  ctx->arm_checkpointer();
  if (session != nullptr) {
    probe_checkpoint(*ctx, ckpt_dir, tracing);
  }

  ExperimentResult result = timed(tracing, "rt.execute", [&] { return ctx->finish(); });
  if (tracing.counts != nullptr) {
    tracing.counts->sim_events += ctx->simulator().executed_events();
  }
  // Typed data first, then the context (runtime, platform, simulator): the
  // same order in which run_experiment's scope releases them.
  timed(tracing, "core.teardown", [&] {
    workspace.reset();
    c.reset();
    b.reset();
    a.reset();
    ctx.reset();
  });
  return result;
}

}  // namespace

ExperimentResult run_replica(const ExperimentConfig& config, core::CalibrationCache* cache,
                             core::CheckpointSession* session, const std::string& ckpt_dir,
                             const Tracing& tracing) {
  if (config.n <= 0 || config.nb <= 0 || config.n % config.nb != 0) {
    throw std::invalid_argument("run_replica: n must be a positive multiple of nb");
  }
  ExperimentResult result =
      config.precision == greencap::hw::Precision::kDouble
          ? run_typed<double>(config, cache, session, ckpt_dir, tracing)
          : run_typed<float>(config, cache, session, ckpt_dir, tracing);
  timed(tracing, "core.finalize", [&] { finalize(result); });
  if (LayerCounts* counts = tracing.counts) {
    counts->tasks += result.stats.tasks_completed;
    counts->dependency_edges += result.stats.dependency_edges;
    const auto& fc = result.fault_counts;
    counts->faults_fired += fc.cap_write_failures + fc.drifts + fc.energy_resets + fc.dropouts;
    std::set<std::string> degraded;
    for (const auto& e : result.degradation.events()) {
      degraded.insert(e.detail);
    }
    counts->degraded_gpus += degraded.size();
    if (result.observability != nullptr && config.obs.metrics) {
      const auto& counters = result.observability->metrics.counters();
      if (const auto it = counters.find("power.cap_write_retries"); it != counters.end()) {
        counts->cap_retries += it->second.value();
      }
    }
  }
  return result;
}

ExperimentResult run_instrumented(const ExperimentConfig& config, const std::string& dir,
                                  const SessionRunner& runner, const Tracing& tracing) {
  core::CheckpointOptions options;
  options.path = dir + "/campaign.gckp";
  options.every_ms = kCheckpointEveryMs;
  core::CheckpointSession session{options};
  ExperimentResult result = runner(config, session);

  if (result.observability != nullptr) {
    const core::ObservabilityData& data = *result.observability;
    const std::string trace = dir + "/trace.json";
    const std::string decisions = dir + "/decisions.json";
    const std::string profile_json = dir + "/profile.json";
    export_file(tracing, "obs.trace_export", trace, "trace", [&](std::ostream& os) {
      greencap::obs::ChromeTraceOptions opts;
      opts.telemetry = &data.telemetry;
      opts.worker_names = data.worker_names;
      greencap::obs::write_chrome_trace(os, data.trace, opts);
    });
    export_file(tracing, "obs.metrics_export", dir + "/metrics.json", "metrics",
                [&](std::ostream& os) { data.metrics.write_json(os); });
    export_file(tracing, "obs.telemetry_export", dir + "/telemetry.json", "telemetry",
                [&](std::ostream& os) { data.telemetry.write_json(os); });
    export_file(tracing, "obs.decisions_export", decisions, "decisions",
                [&](std::ostream& os) { data.decisions.write_json(os); });
    export_file(tracing, "fault.report_export", dir + "/degradation.json", "degradation",
                [&](std::ostream& os) { result.degradation.write_json(os); });
    if (config.obs.profile) {
      greencap::prof::AnalyzeOptions popts;
      popts.decisions = &data.decisions;
      popts.telemetry = &data.telemetry;
      const greencap::prof::Profile profile = timed(
          tracing, "prof.analyze", [&] { return greencap::prof::analyze(data.capture, popts); });
      export_file(tracing, "prof.json", profile_json, "profile",
                  [&](std::ostream& os) { profile.write_json(os); });
      export_file(tracing, "prof.html", dir + "/report.html", "report",
                  [&](std::ostream& os) { greencap::prof::write_html_report(os, profile); });
    }
    if (LayerCounts* counts = tracing.counts) {
      ++counts->exports;
      counts->trace_bytes += file_bytes(trace);
      counts->decisions_bytes += file_bytes(decisions);
      counts->profile_json_bytes += file_bytes(profile_json);
      counts->telemetry_samples += data.telemetry.samples().size();
    }
  }
  timed(tracing, "ckpt.commit", [&] { session.commit(config, result); });
  if (tracing.counts != nullptr) {
    tracing.counts->ckpt_writes += static_cast<std::uint64_t>(session.writes());
  }
  return result;
}

}  // namespace perfbench
