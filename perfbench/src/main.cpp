// The repository benchmark's C++ program; run.py builds and invokes it (README.md).
//
//   perfbench --workload NAME --seed N --seconds S --mode MODE --scratch DIR
//
// MODE is one of
//   setup    run the workload's first experiment from a cold start, print
//            "first_result" the moment its result arrives, then exit;
//   measure  untraced passes for S seconds: end-to-end metrics;
//   trace    one untraced pass, then the traced replica pass: per-layer
//            metrics, span self times and tracing overhead.
// The last stdout line is one JSON object.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "campaign.hpp"
#include "core/engine.hpp"
#include "gate.hpp"
#include "hw/platform.hpp"
#include "hw/presets.hpp"
#include "power/sweep.hpp"
#include "replica.hpp"
#include "spans.hpp"

namespace core = greencap::core;
namespace hw = greencap::hw;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  Workload workload = Workload::kPaperLadder;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string mode;
  std::string scratch;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      const auto w = parse_workload(value);
      if (!w) {
        return std::nullopt;
      }
      a.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--mode") {
      a.mode = value;
    } else if (flag == "--scratch") {
      a.scratch = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload || a.scratch.empty() || a.seconds <= 0.0 ||
      (a.mode != "setup" && a.mode != "measure" && a.mode != "trace")) {
    return std::nullopt;
  }
  return a;
}

/// Nearest-rank percentile of `v` (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) {
    return 0.0;
  }
  double log_sum = 0.0;
  for (const double x : v) {
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) {
    s += x;
  }
  return s;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Runs one instrumented experiment through the library's own entry point.
ExperimentResult library_session_run(const ExperimentConfig& config,
                                     core::CheckpointSession& session) {
  return core::run_experiment(config, &session);
}

/// One pass of `configs` through a fresh CampaignEngine (cold cache).
struct EnginePass {
  double wall_ms = 0.0;
  /// Caller time between consecutive in-order results, gate work excluded.
  /// At jobs = 1 each gap is exactly one experiment's host time.
  std::vector<double> gaps_ms;
  std::uint64_t tasks = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

EnginePass engine_pass(const std::vector<ExperimentConfig>& configs, int jobs, Gate& gate) {
  core::EngineOptions options;
  options.jobs = jobs;
  core::CampaignEngine engine{options};
  EnginePass pass;
  pass.gaps_ms.reserve(configs.size());
  const Clock::time_point start = Clock::now();
  Clock::time_point mark = start;
  try {
    engine.run(configs, [&](std::size_t, ExperimentResult& result) {
      pass.gaps_ms.push_back(ms_between(mark, Clock::now()));
      pass.tasks += result.stats.tasks_completed;
      gate.check(result);
      mark = Clock::now();
    });
  } catch (const std::exception& e) {
    gate.fail(configs.at(pass.gaps_ms.size()), e.what());
  }
  pass.wall_ms = ms_between(start, Clock::now());
  pass.cache_hits = engine.cache().hits();
  pass.cache_misses = engine.cache().misses();
  return pass;
}

/// One pass of instrumented experiments, serially; returns per-run host ms.
std::vector<double> instrumented_pass(const std::vector<ExperimentConfig>& configs,
                                      const std::string& dir, Gate& gate, std::uint64_t& tasks) {
  std::vector<double> run_ms;
  for (const ExperimentConfig& config : configs) {
    const Clock::time_point t0 = Clock::now();
    try {
      ExperimentResult r = run_instrumented(config, dir, library_session_run, Tracing{});
      run_ms.push_back(ms_between(t0, Clock::now()));
      tasks += r.stats.tasks_completed;
      gate.check(r);
    } catch (const std::exception& e) {
      gate.fail(config, e.what());
    }
  }
  return run_ms;
}

void print_json_string(const char* key, const std::string& value) {
  std::printf("\"%s\":\"", key);
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      std::printf("\\%c", c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::printf(" ");
    } else {
      std::putchar(c);
    }
  }
  std::printf("\"");
}

void print_common(const Args& a, const Gate& gate, const SimTotals& sim) {
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"attempted\":%llu,\"failed\":%llu,",
              to_string(a.workload), static_cast<unsigned long long>(a.seed),
              static_cast<unsigned long long>(gate.attempted()),
              static_cast<unsigned long long>(gate.failed()));
  print_json_string("first_failure", gate.first_failure());
  std::printf(",\"digest\":\"%016llx\",\"digest_experiments\":%llu,\"sim_tasks\":%llu,"
              "\"sim_makespan_s\":%.17g,\"sim_energy_j\":%.17g",
              static_cast<unsigned long long>(sim.digest),
              static_cast<unsigned long long>(sim.experiments),
              static_cast<unsigned long long>(sim.tasks), sim.makespan_s, sim.energy_j);
}

void print_metrics(const std::vector<std::pair<std::string, double>>& metrics) {
  std::printf(",\"metrics\":{");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\":%.17g", i == 0 ? "" : ",", metrics[i].first.c_str(),
                metrics[i].second);
  }
  std::printf("}");
}

// ---------------------------------------------------------------------------

int run_setup(const Args& a) {
  const Campaign c = make_campaign(a.workload, a.seed);
  Gate gate;
  bool announced = false;
  auto first_result = [&](const ExperimentResult& r) {
    if (!announced) {
      announced = true;
      std::printf("first_result\n");
      std::fflush(stdout);
    }
    gate.check(r);
  };
  try {
    if (c.engine) {
      core::EngineOptions options;
      options.jobs = c.jobs;
      core::CampaignEngine engine{options};
      engine.run({c.configs.front()},
                 [&](std::size_t, ExperimentResult& r) { first_result(r); });
    } else {
      first_result(run_instrumented(c.configs.front(), a.scratch, library_session_run, Tracing{}));
    }
  } catch (const std::exception& e) {
    gate.fail(c.configs.front(), e.what());
  }
  print_common(a, gate, gate.sim());
  std::printf("}\n");
  return 0;
}

// ---------------------------------------------------------------------------

/// One pass of a workload inside the measured window.
struct PassStats {
  std::uint64_t runs = 0;   ///< experiments the throughput counts
  std::uint64_t tasks = 0;  ///< their simulated tasks
  double host_ms = 0.0;     ///< host time those experiments took
  std::vector<double> run_ms;  ///< per-experiment host time samples
};

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// paper_ladder runs one whole pass per this many seconds of --seconds.
constexpr double kLadderPassSeconds = 15.0;

int run_measure(const Args& a) {
  const Campaign c = make_campaign(a.workload, a.seed);
  Gate gate;
  std::vector<PassStats> passes;
  std::optional<SimTotals> first_pass;

  // Whole passes only, so every pass measures the same mix. A pass of
  // paper_ladder takes 13-16 s, so a deadline would give it one pass on a
  // slow spell and two otherwise; it runs a fixed number of passes instead.
  // Elsewhere a pass starts only if the previous one's duration still fits
  // in the window.
  const std::size_t fixed_passes =
      a.workload == Workload::kPaperLadder
          ? static_cast<std::size_t>(std::max(1L, std::lround(a.seconds / kLadderPassSeconds)))
          : 0;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(a.seconds));
  Clock::duration last_pass{};
  do {
    const Clock::time_point pass_start = Clock::now();
    PassStats& p = passes.emplace_back();
    switch (a.workload) {
      case Workload::kPaperLadder: {
        EnginePass serial = engine_pass(c.configs, 1, gate);
        p.runs = serial.gaps_ms.size();
        p.tasks = serial.tasks;
        p.host_ms = sum(serial.gaps_ms);
        p.run_ms = std::move(serial.gaps_ms);
        break;
      }
      case Workload::kAdvisorBurst: {
        // Service time per query from the serial engine; capacity from the
        // parallel one. The serial pass is also the jobs = 1 reference
        // every parallel result must match.
        EnginePass serial = engine_pass(c.configs, 1, gate);
        const EnginePass par = engine_pass(c.configs, c.jobs, gate);
        p.runs = par.gaps_ms.size();
        p.tasks = par.tasks;
        p.host_ms = par.wall_ms;
        p.run_ms = std::move(serial.gaps_ms);
        break;
      }
      case Workload::kInstrumentedFaults: {
        p.run_ms = instrumented_pass(c.configs, a.scratch, gate, p.tasks);
        p.runs = p.run_ms.size();
        p.host_ms = sum(p.run_ms);
        break;
      }
    }
    if (!first_pass) {
      first_pass = gate.sim();
    }
    last_pass = Clock::now() - pass_start;
  } while (fixed_passes > 0 ? passes.size() < fixed_passes
                             : Clock::now() + last_pass < deadline);
  const double window_s = ms_between(start, Clock::now()) / 1000.0;

  // Throughput is the median over passes, which damps short bursts of
  // interference from other processes. Run times are pooled over the
  // window; p90 is resolved only with at least 100 samples (so at least 10
  // lie beyond it), which run.py checks. paper_ladder's run times form
  // clusters from about 10 ms (GEMM) to about 450 ms (GETRF/GEQRF), so an
  // order statistic near the middle hops between neighbours far apart; its
  // typical run time is the geometric mean, which every run moves smoothly.
  std::vector<double> runs_per_s;
  std::vector<double> tasks_per_s;
  std::vector<double> all_ms;
  for (const PassStats& p : passes) {
    if (p.host_ms > 0.0) {
      runs_per_s.push_back(static_cast<double>(p.runs) / p.host_ms * 1000.0);
      tasks_per_s.push_back(static_cast<double>(p.tasks) / p.host_ms * 1000.0);
    }
    all_ms.insert(all_ms.end(), p.run_ms.begin(), p.run_ms.end());
  }

  // Paper fidelity, outside the timed window. On paper_ladder the anchors
  // are configs of the ladder itself, so rerunning them also checks that a
  // repeated execution reproduces the first bit for bit.
  std::vector<ExperimentConfig> anchors = anchor_configs();
  if (a.workload == Workload::kPaperLadder) {
    for (ExperimentConfig& anchor : anchors) {
      for (const ExperimentConfig& cfg : c.configs) {
        if (!cfg.cpu_cap && cfg.describe() == anchor.describe()) {
          anchor = cfg;
        }
      }
    }
  }
  std::vector<ExperimentResult> anchor_results;
  for (const ExperimentConfig& cfg : anchors) {
    try {
      ExperimentResult r = core::run_experiment(cfg);
      if (gate.check(r)) {
        anchor_results.push_back(std::move(r));
      }
    } catch (const std::exception& e) {
      gate.fail(cfg, e.what());
    }
  }
  const double gap =
      anchor_results.size() == anchors.size() ? paper_gap_pp(anchor_results) : -1.0;

  print_common(a, gate, *first_pass);
  std::printf(",\"window_s\":%.17g,\"passes\":%zu,\"run_ms_samples\":%zu", window_s,
              passes.size(), all_ms.size());
  print_metrics({
      {"runs_per_s", median(runs_per_s)},
      {"sim_tasks_per_s", median(tasks_per_s)},
      {"run_ms_p50", a.workload == Workload::kPaperLadder ? geomean(all_ms)
                                                           : percentile(all_ms, 0.5)},
      {"run_ms_p90", percentile(all_ms, 0.9)},
      {"peak_rss_mb", peak_rss_mb()},
      {"paper_gap_pp", gap},
  });
  std::printf("}\n");
  return 0;
}

// ---------------------------------------------------------------------------

int run_trace(const Args& a) {
  const Campaign c = make_campaign(a.workload, a.seed);
  const std::vector<ExperimentConfig>& configs = c.configs;
  Gate gate;

  // 1. Untraced pass through the library: the reference results. Engine
  //    workloads use the serial engine.
  double busy_ms = 0.0;     // sum of per-run host times
  double emit_wait_ms = 0.0;
  double engine_wall_ms = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t serial_hits = 0;
  std::uint64_t serial_misses = 0;
  if (c.engine) {
    const EnginePass serial = engine_pass(configs, 1, gate);
    busy_ms = sum(serial.gaps_ms);
    serial_hits = serial.cache_hits;
    serial_misses = serial.cache_misses;
    // The engine at the workload's job count: caller wait on the in-order
    // prefix, worker busy share, cache traffic.
    const EnginePass par = c.jobs > 1 ? engine_pass(configs, c.jobs, gate) : serial;
    emit_wait_ms = sum(par.gaps_ms);
    engine_wall_ms = par.wall_ms;
    cache_hits = par.cache_hits;
    cache_lookups = par.cache_hits + par.cache_misses;
  } else {
    const Clock::time_point t0 = Clock::now();
    std::uint64_t tasks = 0;
    const std::vector<double> ms = instrumented_pass(configs, a.scratch, gate, tasks);
    busy_ms = sum(ms);
    emit_wait_ms = busy_ms;
    engine_wall_ms = ms_between(t0, Clock::now());
  }
  const SimTotals sim = gate.sim();

  // 2. Traced pass: the replica over the same configs, spans at every
  //    public call, results checked against the untraced pass.
  Spans spans;
  LayerCounts counts;
  const Tracing tracing{&spans, &counts};
  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;
  std::string first_mismatch;
  core::CalibrationCache cache;
  std::uint32_t request = 0;
  auto traced = [&](const ExperimentConfig& config, bool instrumented,
                    core::CalibrationCache* cache_or_null) {
    spans.set_request(++request);
    try {
      ExperimentResult r;
      {
        const Spans::Scope root{spans, "core.run"};
        if (instrumented) {
          r = run_instrumented(
              config, a.scratch,
              [&](const ExperimentConfig& cfg, core::CheckpointSession& session) {
                return run_replica(cfg, nullptr, &session, a.scratch, tracing);
              },
              tracing);
        } else {
          r = run_replica(config, cache_or_null, nullptr, a.scratch, tracing);
        }
      }
      ++checked;
      const std::uint64_t want = gate.first_digest(config);
      if (want == 0 || result_digest(r) != want) {
        ++mismatches;
        if (first_mismatch.empty()) {
          first_mismatch = config.describe();
        }
      }
      gate.check(r);
    } catch (const std::exception& e) {
      ++mismatches;
      gate.fail(config, e.what());
    }
    return request;
  };
  // Reference execution through the library for configs outside the pass.
  auto reference = [&](const ExperimentConfig& config, bool instrumented) {
    try {
      ExperimentResult r =
          instrumented ? run_instrumented(config, a.scratch, library_session_run, Tracing{})
                       : core::run_experiment(config);
      gate.check(r);
    } catch (const std::exception& e) {
      gate.fail(config, e.what());
    }
  };

  // hw / power set-up calls, timed on their own: platform construction
  // per platform and one cold best-cap sweep per (arch, precision, nb).
  {
    std::set<std::string> platforms;
    std::set<std::string> sweeps;
    for (const ExperimentConfig& cfg : configs) {
      if (platforms.insert(cfg.platform).second) {
        const Spans::Scope s{spans, "hw.platform_build"};
        const hw::Platform platform{hw::presets::platform_by_name(cfg.platform)};
        (void)platform;
      }
      for (const hw::GpuArchSpec& arch : hw::presets::platform_by_name(cfg.platform).gpus) {
        const std::string key =
            arch.name + '|' + hw::to_string(cfg.precision) + '|' + std::to_string(cfg.nb);
        if (sweeps.insert(key).second) {
          const Spans::Scope s{spans, "power.best_cap_sweep"};
          (void)greencap::power::find_best_cap_w(arch, cfg.precision, cfg.nb);
        }
      }
    }
  }

  const Clock::time_point traced_start = Clock::now();
  for (const ExperimentConfig& cfg : configs) {
    traced(cfg, !c.engine, &cache);
  }
  double traced_ms = ms_between(traced_start, Clock::now());
  // The probe checkpoints of checkpointed replica runs are work the
  // untraced pass does not do; they do not count as tracing cost.
  {
    const auto so_far = spans.by_name();
    for (const char* name : {"ckpt.capture", "ckpt.encode", "ckpt.write"}) {
      if (const auto it = so_far.find(name); it != so_far.end()) {
        traced_ms -= it->second.total_ms;
      }
    }
  }
  // The replica restates the library's calibration sharing rule and key, so
  // its cache must see the same hits and misses as the library's serial
  // pass; otherwise rt.calibrate and rt.calibration_replay would time a
  // different mix of misses and replays.
  if (c.engine && (cache.hits() != serial_hits || cache.misses() != serial_misses)) {
    ++mismatches;
    char what[160];
    std::snprintf(what, sizeof what,
                  "calibration cache: replica %llu hits / %llu misses, library %llu / %llu",
                  static_cast<unsigned long long>(cache.hits()),
                  static_cast<unsigned long long>(cache.misses()),
                  static_cast<unsigned long long>(serial_hits),
                  static_cast<unsigned long long>(serial_misses));
    if (first_mismatch.empty()) {
      first_mismatch = what;
    }
  }

  // The overhead baseline is a second untraced pass, run after the traced
  // one: the first pass also pays the process's warm-up.
  const Clock::time_point rerun_start = Clock::now();
  if (c.engine) {
    (void)engine_pass(configs, 1, gate);
  } else {
    std::uint64_t tasks = 0;
    (void)instrumented_pass(configs, a.scratch, gate, tasks);
  }
  const double untraced_ms = ms_between(rerun_start, Clock::now());

  // 3. Probes on the workload's first config, so every layer is measured
  //    on every workload: a calibration miss then a replay, and the
  //    instrumented treatment with and without capture.
  const ExperimentConfig first_plain = plain(configs.front());
  const ExperimentConfig with_capture =
      a.workload == Workload::kInstrumentedFaults ? configs.front()
                                                  : instrument(first_plain, a.seed ^ 0x5eed);
  ExperimentConfig without_capture = with_capture;
  without_capture.obs = core::ObservabilityOptions{};
  reference(first_plain, false);
  reference(with_capture, true);
  reference(without_capture, true);
  core::CalibrationCache probe_cache;
  traced(first_plain, false, &probe_cache);
  traced(first_plain, false, &probe_cache);
  const std::uint32_t captured = traced(with_capture, true, nullptr);
  const std::uint32_t uncaptured = traced(without_capture, true, nullptr);
  const double exec_captured = spans.request_ms("rt.execute", captured);
  const double exec_uncaptured = spans.request_ms("rt.execute", uncaptured);

  if (!spans.write_jsonl(a.scratch + "/spans.jsonl")) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", a.scratch.c_str());
    return 1;
  }
  if (mismatches != 0) {
    std::fprintf(stderr,
                 "perfbench: REPLICA MISMATCH in %llu checks over %llu traced configs "
                 "(first: %s); the traced pass does not time the library's program\n",
                 static_cast<unsigned long long>(mismatches),
                 static_cast<unsigned long long>(checked), first_mismatch.c_str());
  }

  const auto stats = spans.by_name();
  auto mean_us = [&](const char* name) {
    const auto it = stats.find(name);
    return it == stats.end() || it->second.count == 0
               ? 0.0
               : it->second.total_ms * 1000.0 / static_cast<double>(it->second.count);
  };
  auto total_ms = [&](const char* name) {
    const auto it = stats.find(name);
    return it == stats.end() ? 0.0 : it->second.total_ms;
  };
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const double tasks = static_cast<double>(counts.tasks);
  const double events = static_cast<double>(counts.sim_events);
  const double exports = static_cast<double>(counts.exports);
  const double mb = 1.0 / (1024.0 * 1024.0);

  std::vector<std::pair<std::string, double>> m = {
      {"core.context_build_us", mean_us("core.context_build")},
      {"core.cache_hit_ratio", ratio(static_cast<double>(cache_hits),
                                     static_cast<double>(cache_lookups))},
      {"core.cache_lookups", static_cast<double>(cache_lookups)},
      {"core.worker_busy_frac", ratio(busy_ms, c.jobs * engine_wall_ms)},
      {"core.emit_wait_ms", emit_wait_ms},
      {"hw.platform_build_us", mean_us("hw.platform_build")},
      {"power.best_cap_sweep_us", mean_us("power.best_cap_sweep")},
      {"power.apply_us", mean_us("power.apply")},
      {"power.cap_retries", static_cast<double>(counts.cap_retries)},
      {"rt.calibrate_us", mean_us("rt.calibrate")},
      {"rt.calibration_replay_us", mean_us("rt.calibration_replay")},
      {"la.submit_us_per_task", ratio(total_ms("la.submit") * 1000.0, tasks)},
      {"rt.tasks", tasks},
      {"rt.dependency_edges", static_cast<double>(counts.dependency_edges)},
      {"rt.execute_us_per_task", ratio(total_ms("rt.execute") * 1000.0, tasks)},
      {"sim.events", events},
      {"sim.events_per_task", ratio(events, tasks)},
      {"sim.ns_per_event", ratio(total_ms("rt.execute") * 1e6, events)},
      {"obs.capture_overhead_frac", ratio(exec_captured, exec_uncaptured) - 1.0},
      {"obs.trace_export_ms", ratio(total_ms("obs.trace_export"), exports)},
      {"obs.trace_mb", ratio(static_cast<double>(counts.trace_bytes) * mb, exports)},
      {"obs.decisions_mb", ratio(static_cast<double>(counts.decisions_bytes) * mb, exports)},
      {"obs.telemetry_samples", ratio(static_cast<double>(counts.telemetry_samples), exports)},
      {"prof.analyze_ms", ratio(total_ms("prof.analyze"), exports)},
      {"prof.html_ms", ratio(total_ms("prof.html"), exports)},
      {"prof.json_mb", ratio(static_cast<double>(counts.profile_json_bytes) * mb, exports)},
      {"ckpt.writes", static_cast<double>(counts.ckpt_writes)},
      {"ckpt.capture_us", mean_us("ckpt.capture")},
      {"ckpt.encode_us", mean_us("ckpt.encode")},
      {"ckpt.write_ms", mean_us("ckpt.write") / 1000.0},
      {"ckpt.mb", ratio(static_cast<double>(counts.ckpt_probe_bytes) * mb,
                        static_cast<double>(counts.ckpt_probes))},
      {"fault.fired", static_cast<double>(counts.faults_fired)},
      {"fault.degraded_gpus", static_cast<double>(counts.degraded_gpus)},
      {"rt.cpu_task_share", ratio(static_cast<double>(sim.cpu_tasks),
                                  static_cast<double>(sim.tasks))},
      {"hw.gpu_energy_share", ratio(sim.gpu_energy_j, sim.energy_j)},
      {"sim.makespan_s", sim.makespan_s},
      {"trace.overhead_frac", ratio(traced_ms - untraced_ms, untraced_ms)},
      {"trace.replica_checked", static_cast<double>(checked)},
      {"trace.replica_mismatches", static_cast<double>(mismatches)},
  };
  const auto layers = spans.self_ms_by_layer();
  for (const char* layer : {"core", "hw", "power", "rt", "la", "obs", "prof", "ckpt", "fault"}) {
    const auto it = layers.find(layer);
    m.emplace_back(std::string{"self_ms."} + layer, it == layers.end() ? 0.0 : it->second);
  }

  print_common(a, gate, sim);
  std::printf(",\"untraced_ms\":%.17g,\"traced_ms\":%.17g,\"spans\":[", untraced_ms, traced_ms);
  bool first = true;
  for (const auto& [name, st] : stats) {
    std::printf("%s{\"name\":\"%s\",\"count\":%llu,\"total_ms\":%.17g,\"self_ms\":%.17g}",
                first ? "" : ",", name.c_str(), static_cast<unsigned long long>(st.count),
                st.total_ms, st.self_ms);
    first = false;
  }
  std::printf("]");
  print_metrics(m);
  std::printf("}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: %s --workload paper_ladder|advisor_burst|instrumented_faults "
                 "--seed N --seconds S --mode setup|measure|trace --scratch DIR\n",
                 argv[0]);
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args->scratch, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", args->scratch.c_str());
    return 1;
  }
  if (args->mode == "setup") {
    return run_setup(*args);
  }
  if (args->mode == "measure") {
    return run_measure(*args);
  }
  return run_trace(*args);
}
