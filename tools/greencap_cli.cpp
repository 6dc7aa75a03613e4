// greencap — command-line experiment runner.
//
// Runs one capping experiment end-to-end and prints the metrics; the
// scriptable entry point for users who want the paper's protocol without
// writing C++.
//
//   greencap --platform 32-AMD-4-A100 --op gemm --precision double
//            --n 74880 --nb 5760 --config HHBB [--cpu-cap 1:0.48]
//            [--scheduler dmdas] [--baseline] [--stale-models]
//            [--trace-json FILE] [--metrics-json FILE]
//            [--telemetry-period-ms N] [--telemetry-csv FILE]
//            [--decisions-json FILE] [--model-report]
//
// With --baseline the default (all-H) run executes too and the deltas are
// reported, like the paper's figures. The observability flags capture the
// run as a Perfetto-loadable trace, a metrics snapshot, a power/occupancy
// time-series, or a scheduler decision log (all =VALUE or space-separated).
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/signal.hpp"
#include "core/driver.hpp"
#include "core/paper_params.hpp"
#include "hw/presets.hpp"
#include "power/config.hpp"

using namespace greencap;

namespace {

[[noreturn]] void usage(const char* argv0, int code) {
  std::printf(
      "usage: %s [options]\n"
      "  --platform NAME     24-Intel-2-V100 | 64-AMD-2-A100 | 32-AMD-4-A100\n"
      "  --op NAME           gemm | potrf | getrf | geqrf | gelqf (default gemm)\n"
      "  --precision P       single | double        (default double)\n"
      "  --n N               matrix order           (default: paper's Table II)\n"
      "  --nb NB             tile order             (default: paper's Table II)\n"
      "  --config CFG        H/B/L letters, one per GPU (default all H)\n"
      "  --cpu-cap PKG:FRAC  RAPL-cap package PKG to FRAC of TDP\n"
      "  --scheduler S       eager|random|ws|dm|dmda|dmdas|dmdae (default dmdas)\n"
      "  --baseline          also run all-H and print deltas\n"
      "  --stale-models      maladaptation ablation (no recalibration)\n"
      "  --seed N            RNG seed (default 42)\n"
      "  --jobs N            worker threads for multi-run campaigns\n"
      "                      (default 1 = serial; 0 = hardware concurrency)\n"
      "observability:\n"
      "  --trace-json FILE        Chrome/Perfetto trace-event export\n"
      "  --metrics-json FILE      metrics registry snapshot\n"
      "  --telemetry-period-ms N  sample power/occupancy every N virtual ms\n"
      "  --telemetry-json FILE    telemetry series as JSON\n"
      "  --telemetry-csv FILE     telemetry series as CSV\n"
      "  --decisions-json FILE    scheduler decision log\n"
      "  --model-report           print perf-model accuracy per codelet/arch\n"
      "  --profile-json FILE      energy-attribution profile (docs/PROFILING.md)\n"
      "  --profile-html FILE      self-contained HTML run report\n"
      "fault injection / resilience (docs/ROBUSTNESS.md):\n"
      "  --faults SPEC            fault plan: kind@gpuN:key=val,... (';'-separated)\n"
      "                           or @FILE for a JSON plan\n"
      "  --fault-seed N           injector RNG seed (default: derived from --seed)\n"
      "  --reconcile-ms N         verify/re-assert cap drift every N virtual ms\n"
      "  --degrade                fall back to H on cap failure instead of aborting\n"
      "  --cap-retries N          retry budget per cap write (default 3)\n"
      "  --degradation-json FILE  degradation report export\n"
      "checkpoint/restart (docs/CHECKPOINTING.md):\n"
      "  --checkpoint FILE        write crash-consistent checkpoints to FILE\n"
      "  --checkpoint-every-ms N  also checkpoint mid-run every N virtual ms\n"
      "  --watchdog-ms N          abort-with-checkpoint if no task completes\n"
      "                           for N virtual ms\n"
      "  --resume FILE            resume a killed/interrupted run from FILE\n"
      "  --ckpt-kill-after N      test hook: _Exit(137) after the Nth write\n",
      argv0);
  std::exit(code);
}

void print_result(const char* title, const core::ExperimentResult& r) {
  std::printf("%s  [%s]\n", title, r.config.describe().c_str());
  std::printf("  time        : %.3f s\n", r.time_s);
  std::printf("  performance : %.1f Gflop/s\n", r.gflops);
  std::printf("  energy      : %.1f J (GPU %.1f, CPU %.1f)\n", r.total_energy_j,
              r.energy.gpu_total(), r.energy.cpu_total());
  std::printf("  efficiency  : %.2f Gflop/s/W\n", r.efficiency_gflops_per_w);
  std::printf("  tasks       : %llu GPU / %llu CPU\n",
              static_cast<unsigned long long>(r.gpu_tasks),
              static_cast<unsigned long long>(r.cpu_tasks));
}

}  // namespace

int main(int argc, char** argv) {
  core::ExperimentConfig cfg;
  cfg.platform = "32-AMD-4-A100";
  bool baseline = false;
  std::int64_t n_value = 0;   // 0 = use the paper's Table II default
  int nb_value = 0;           // 0 = use the paper's Table II default
  std::optional<power::GpuConfig> gpu_config;  // unset or empty: all H
  std::string telemetry_json, telemetry_csv, decisions_json, degradation_json;
  bool model_report = false;
  core::DriverFlags flags;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") usage(argv[0], 0);
  }

  core::FlagParser parser;
  parser.value("--platform", "NAME", [&cfg](const std::string& name) -> std::string {
    try {
      (void)hw::presets::platform_by_name(name);
    } catch (const std::invalid_argument&) {
      return "expects 24-Intel-2-V100|64-AMD-2-A100|32-AMD-4-A100, got '" + name + "'";
    }
    cfg.platform = name;
    return {};
  });
  parser.value("--op", "NAME", [&cfg](const std::string& op) -> std::string {
    if (op == "gemm") cfg.op = core::Operation::kGemm;
    else if (op == "potrf") cfg.op = core::Operation::kPotrf;
    else if (op == "getrf") cfg.op = core::Operation::kGetrf;
    else if (op == "geqrf") cfg.op = core::Operation::kGeqrf;
    else if (op == "gelqf") cfg.op = core::Operation::kGelqf;
    else return "expects gemm|potrf|getrf|geqrf|gelqf, got '" + op + "'";
    return {};
  });
  parser.value("--precision", "P", [&cfg](const std::string& p) -> std::string {
    if (p == "single") cfg.precision = hw::Precision::kSingle;
    else if (p == "double") cfg.precision = hw::Precision::kDouble;
    else return "expects single|double, got '" + p + "'";
    return {};
  });
  parser.i64("--n", &n_value);
  parser.i32("--nb", &nb_value);
  parser.value("--config", "CFG", [&gpu_config](const std::string& text) -> std::string {
    if (text.empty()) {
      gpu_config.reset();
      return {};
    }
    try {
      gpu_config = power::GpuConfig::parse(text);
    } catch (const std::invalid_argument&) {
      return "expects H/B/L letters, one per GPU, got '" + text + "'";
    }
    return {};
  });
  parser.value("--cpu-cap", "PKG:FRAC", [&cfg](const std::string& spec) -> std::string {
    const auto colon = spec.find(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= spec.size()) {
      return "expects PKG:FRAC, got '" + spec + "'";
    }
    char* end = nullptr;
    const long pkg = std::strtol(spec.c_str(), &end, 10);
    if (end != spec.c_str() + colon || pkg < 0) {
      return "package index must be a non-negative integer, got '" + spec + "'";
    }
    const double frac = std::strtod(spec.c_str() + colon + 1, &end);
    if (*end != '\0' || !(frac > 0.0) || frac > 1.0) {
      return "TDP fraction must be in (0, 1], got '" + spec + "'";
    }
    cfg.cpu_cap = core::CpuCap{static_cast<std::size_t>(pkg), frac};
    return {};
  });
  parser.str("--scheduler", &cfg.scheduler);
  parser.flag("--baseline", &baseline);
  parser.flag("--stale-models", &cfg.stale_models);
  parser.u64("--seed", &cfg.seed);
  parser.str("--telemetry-json", &telemetry_json);
  parser.str("--telemetry-csv", &telemetry_csv);
  parser.str("--decisions-json", &decisions_json);
  parser.flag("--model-report", &model_report);
  parser.str("--degradation-json", &degradation_json);
  flags.register_on(parser);
  std::string err = parser.parse(argc, argv);
  if (err.empty()) err = flags.validate();
  if (!err.empty()) {
    std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
    return 2;
  }

  // Default N/Nt from the paper's Table II for the chosen platform/op;
  // the extension operations (LU/QR/LQ) are not in Table II and default to
  // the extension-study geometry (40x40 tiles of 2880).
  try {
    const auto row = core::paper::table_ii_row(cfg.platform, cfg.op, cfg.precision);
    cfg.n = n_value > 0 ? n_value : row.n;
    cfg.nb = nb_value > 0 ? nb_value : row.nb;
  } catch (const std::exception&) {
    if (cfg.op == core::Operation::kGetrf || cfg.op == core::Operation::kGeqrf ||
        cfg.op == core::Operation::kGelqf) {
      cfg.nb = nb_value > 0 ? nb_value : 2880;
      cfg.n = n_value > 0 ? n_value : static_cast<std::int64_t>(cfg.nb) * 40;
    } else if (n_value > 0 && nb_value > 0) {
      cfg.n = n_value;
      cfg.nb = nb_value;
    } else {
      std::fprintf(stderr, "no Table II defaults for this platform; pass --n and --nb\n");
      return 2;
    }
  }

  const std::size_t gpus = hw::presets::platform_by_name(cfg.platform).gpus.size();
  cfg.gpu_config = gpu_config ? *gpu_config : power::GpuConfig::uniform(gpus, power::Level::kHigh);

  cfg.resilience = flags.resilience;
  // Derive the observability switches from the requested outputs.
  cfg.obs = flags.observability(!telemetry_json.empty() || !telemetry_csv.empty());
  cfg.obs.decision_log = !decisions_json.empty() || model_report;

  try {
    // With --baseline the all-H run joins the campaign (parallel under
    // --jobs, replayed/committed like any run under --checkpoint); it is
    // compared, not captured.
    const bool want_baseline = baseline && !cfg.gpu_config.is_default();
    std::vector<core::ExperimentConfig> configs{cfg};
    if (want_baseline) {
      core::ExperimentConfig base_cfg = cfg;
      base_cfg.gpu_config = power::GpuConfig::uniform(gpus, power::Level::kHigh);
      base_cfg.cpu_cap.reset();
      base_cfg.obs = {};
      configs.push_back(std::move(base_cfg));
    }

    // The experiment reports and exports as soon as it completes, before
    // the engine commits it to the checkpoint.
    auto report = [&](const core::ExperimentResult& result) {
      print_result("experiment", result);
      if (cfg.resilience.any()) {
        const auto& fc = result.fault_counts;
        std::printf("  faults      : %llu capfail, %llu drift, %llu energy-reset, "
                    "%llu dropout (%d counter reset(s) reconstructed)\n",
                    static_cast<unsigned long long>(fc.cap_write_failures),
                    static_cast<unsigned long long>(fc.drifts),
                    static_cast<unsigned long long>(fc.energy_resets),
                    static_cast<unsigned long long>(fc.dropouts),
                    result.energy_counter_resets);
        if (!result.degradation.empty()) {
          std::printf("degradations:\n%s", result.degradation.to_string().c_str());
        }
      }
      if (!degradation_json.empty()) {
        core::export_artifact(degradation_json, "degradation",
                              [&](std::ostream& os) { result.degradation.write_json(os); });
      }
      if (result.observability == nullptr) {
        return;
      }
      const core::ObservabilityData& data = *result.observability;
      flags.export_artifacts(data);
      if (!telemetry_json.empty()) {
        core::export_artifact(telemetry_json, "telemetry",
                              [&](std::ostream& os) { data.telemetry.write_json(os); });
      }
      if (!telemetry_csv.empty()) {
        core::export_artifact(telemetry_csv, "telemetry",
                              [&](std::ostream& os) { data.telemetry.write_csv(os); });
      }
      if (!decisions_json.empty()) {
        core::export_artifact(decisions_json, "decisions",
                              [&](std::ostream& os) { data.decisions.write_json(os); });
      }
      if (model_report) {
        std::printf("perf-model accuracy (expected vs realized exec time):\n");
        data.decisions.print_accuracy(std::cout);
      }
    };

    const auto engine = flags.make_engine();
    const std::vector<core::ExperimentResult> results =
        engine->run(configs, [&](std::size_t i, core::ExperimentResult& r) {
          if (i == 0) report(r);
        });
    if (want_baseline) {
      const core::ExperimentResult& result = results[0];
      const core::ExperimentResult& base = results[1];
      print_result("baseline", base);
      std::printf("deltas vs baseline: perf %+.2f %%, energy saving %+.2f %%, "
                  "efficiency %+.2f %%\n",
                  result.perf_delta_pct(base), result.energy_saving_pct(base),
                  result.efficiency_gain_pct(base));
    }
  } catch (const ckpt::InterruptedError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return ckpt::kInterruptExitCode;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
