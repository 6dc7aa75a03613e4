// Shared helpers for the benchmark binaries.
//
// Each binary regenerates one table or figure of the paper: it runs the
// full protocol through the library, prints the rows/series the paper
// reports as an aligned text table, and (with --csv) additionally emits
// machine-readable CSV to stdout.
#pragma once

#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/signal.hpp"
#include "core/driver.hpp"
#include "core/paper_params.hpp"
#include "core/report.hpp"
#include "obs/artifact.hpp"
#include "obs/json.hpp"

namespace greencap::bench {

/// Wraps a bench main: SIGINT/SIGTERM checkpoints exit with the
/// conventional interrupt code, everything else with an error line.
template <typename Fn>
int run_guarded(Fn&& fn) {
  try {
    return fn();
  } catch (const ckpt::InterruptedError& err) {
    std::cerr << err.what() << "\n";
    return ckpt::kInterruptExitCode;
  } catch (const std::exception& err) {
    std::cerr << "error: " << err.what() << "\n";
    return 1;
  }
}

struct Cli {
  bool csv = false;
  bool quick = false;  ///< coarser sweeps for smoke runs
  /// Machine-readable per-figure summary (every table the binary emits).
  std::string summary_json;
  /// The campaign flags every driver shares. Fault injection applies to
  /// every experiment; the trace/metrics/profile capture to the *first*
  /// one only (the figures loop over dozens of configs; one representative
  /// profile is what you want for a Perfetto look at the schedule).
  core::DriverFlags flags;

  static Cli parse(int argc, char** argv) {
    Cli cli;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        std::cout << "usage: " << argv[0] << " [options]\n"
                  << "  --csv                    also emit CSV after each table\n"
                  << "  --quick                  coarser sweeps (CI smoke mode)\n"
                  << "  --summary-json FILE      machine-readable summary of every table\n"
                  << "  (trace, metrics and profile outputs capture the first experiment)\n"
                  << core::DriverFlags::usage();
        std::exit(0);
      }
    }
    core::FlagParser parser;
    parser.flag("--csv", &cli.csv);
    parser.flag("--quick", &cli.quick);
    parser.str("--summary-json", &cli.summary_json);
    cli.flags.register_on(parser);
    std::string err = parser.parse(argc, argv);
    if (err.empty()) err = cli.flags.validate();
    if (!err.empty()) {
      std::cerr << argv[0] << ": " << err << "\n";
      std::exit(2);
    }
    cli.engine_ = cli.flags.make_engine();
    return cli;
  }

  /// Runs a whole campaign through the engine. `on_result` fires on this
  /// thread in strict config order at every --jobs value, so tables,
  /// artifacts and stdout bytes are identical to a serial run; under
  /// --checkpoint the engine commits each run only after this returns.
  void run_all(const std::vector<core::ExperimentConfig>& configs,
               const std::function<void(std::size_t, const core::ExperimentResult&)>& on_result)
      const {
    (void)engine_->run(configs, [&](std::size_t i, core::ExperimentResult& r) {
      // Only the captured config carries observability, and a replayed
      // result never does: its artifacts were exported before the kill.
      if (r.observability != nullptr) {
        flags.export_artifacts(*r.observability);
      }
      on_result(i, r);
    });
  }

  /// The engine driving run_all (exposed for sweeps that parallelize via
  /// for_each_index rather than config lists).
  [[nodiscard]] core::CampaignEngine& engine() const { return *engine_; }

  /// Copies the resilience knobs onto `cfg` (no-op with default knobs).
  void apply_resilience(core::ExperimentConfig& cfg) const { cfg.resilience = flags.resilience; }

  /// Enables the requested capture on `cfg` if no earlier call has: build
  /// every config before running, and exactly one carries the capture.
  void apply_observability(core::ExperimentConfig& cfg) const {
    if (obs_assigned_) {
      return;
    }
    obs_assigned_ = true;
    cfg.obs = flags.observability();
  }

  /// Records one emitted table for the --summary-json export.
  void record_figure(const core::Table& table, const std::string& title) const {
    if (summary_json.empty()) {
      return;
    }
    SummaryFigure fig;
    fig.title = title;
    fig.columns = table.headers();
    fig.rows = table.row_cells();
    figures_.push_back(std::move(fig));
  }

  /// Writes BENCH_summary.json-style output: every table the binary
  /// emitted, verbatim cells under their column names. Call at the end of
  /// main; exits nonzero if the write fails.
  void write_summary(const char* argv0) const {
    if (summary_json.empty()) {
      return;
    }
    std::string binary{argv0 != nullptr ? argv0 : "bench"};
    const auto slash = binary.find_last_of('/');
    if (slash != std::string::npos) {
      binary = binary.substr(slash + 1);
    }
    const bool ok = greencap::obs::write_artifact(
        summary_json, "summary", [&](std::ostream& os) {
          os << "{\"schema_version\":1,\"binary\":" << obs::json_string(binary)
             << ",\"figures\":[";
          for (std::size_t f = 0; f < figures_.size(); ++f) {
            const SummaryFigure& fig = figures_[f];
            os << (f ? ",\n" : "\n") << "{\"title\":" << obs::json_string(fig.title)
               << ",\"columns\":[";
            for (std::size_t c = 0; c < fig.columns.size(); ++c) {
              os << (c ? "," : "") << obs::json_string(fig.columns[c]);
            }
            os << "],\"rows\":[";
            for (std::size_t r = 0; r < fig.rows.size(); ++r) {
              os << (r ? "," : "") << "[";
              for (std::size_t c = 0; c < fig.rows[r].size(); ++c) {
                os << (c ? "," : "") << obs::json_string(fig.rows[r][c]);
              }
              os << "]";
            }
            os << "]}";
          }
          os << "\n]}\n";
        });
    if (!ok) {
      std::exit(1);
    }
    std::cerr << "wrote summary: " << summary_json << "\n";
  }

 private:
  struct SummaryFigure {
    std::string title;
    std::vector<std::string> columns;
    std::vector<std::vector<std::string>> rows;
  };

  mutable bool obs_assigned_ = false;
  mutable std::vector<SummaryFigure> figures_;
  std::shared_ptr<core::CampaignEngine> engine_;
};

/// Ordered batched campaign builder.
///
/// A bench queues every experiment up front, pairing each config with a
/// continuation, plus plain actions (table emission) slotted between them.
/// run() executes the whole batch through Cli::run_all — parallel under
/// --jobs N — and invokes continuations and actions on the calling thread
/// in exactly the order they were added, so a bench's stdout and artifacts
/// are byte-identical to the old run-one-print-one loop at any job count.
class Campaign {
 public:
  explicit Campaign(const Cli& cli) : cli_{cli} {}

  /// Queues one experiment; `use` runs (in add order) once its result and
  /// every earlier step are done.
  void add(core::ExperimentConfig cfg,
           std::function<void(const core::ExperimentResult&)> use) {
    configs_.push_back(std::move(cfg));
    uses_.push_back(std::move(use));
  }

  /// Queues an action ordered after everything added so far.
  void then(std::function<void()> action) {
    after_[configs_.size()].push_back(std::move(action));
  }

  void run() {
    auto run_after = [&](std::size_t done) {
      const auto it = after_.find(done);
      if (it == after_.end()) {
        return;
      }
      for (const auto& action : it->second) {
        action();
      }
    };
    run_after(0);  // actions queued before any experiment
    cli_.run_all(configs_, [&](std::size_t i, const core::ExperimentResult& r) {
      uses_[i](r);
      run_after(i + 1);
    });
  }

 private:
  const Cli& cli_;
  std::vector<core::ExperimentConfig> configs_;
  std::vector<std::function<void(const core::ExperimentResult&)>> uses_;
  std::map<std::size_t, std::vector<std::function<void()>>> after_;
};

inline void emit(const core::Table& table, const Cli& cli, const std::string& title) {
  core::print_banner(std::cout, title);
  table.print(std::cout);
  if (cli.csv) {
    std::cout << "--- csv ---\n";
    table.write_csv(std::cout);
  }
  cli.record_figure(table, title);
  std::cout.flush();
}

/// Builds the experiment config for one Table II row under a GPU config.
inline core::ExperimentConfig experiment_for(const core::paper::TableIIRow& row,
                                             const std::string& gpu_cfg) {
  core::ExperimentConfig cfg;
  cfg.platform = row.platform;
  cfg.op = row.op;
  cfg.precision = row.precision;
  cfg.n = row.n;
  cfg.nb = row.nb;
  cfg.gpu_config = power::GpuConfig::parse(gpu_cfg);
  return cfg;
}

/// Same, with the CLI's fault-injection/resilience knobs applied.
inline core::ExperimentConfig experiment_for(const core::paper::TableIIRow& row,
                                             const std::string& gpu_cfg, const Cli& cli) {
  core::ExperimentConfig cfg = experiment_for(row, gpu_cfg);
  cli.apply_resilience(cfg);
  return cfg;
}

}  // namespace greencap::bench
