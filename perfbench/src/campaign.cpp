#include "campaign.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "core/engine.hpp"
#include "core/paper_params.hpp"
#include "hw/presets.hpp"
#include "power/config.hpp"
#include "power/sweep.hpp"
#include "sim/rng.hpp"

namespace perfbench {

namespace core = greencap::core;
namespace hw = greencap::hw;
namespace power = greencap::power;
using greencap::sim::Xoshiro256;

namespace {

/// Independent sub-seed for item `index` of a stream derived from `seed`.
std::uint64_t mix(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::size_t pick(Xoshiro256& rng, std::size_t n) { return static_cast<std::size_t>(rng() % n); }

template <typename T>
void shuffle(std::vector<T>& items, Xoshiro256& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[pick(rng, i)]);
  }
}

struct PlatformShape {
  std::string name;
  std::size_t gpus;
  std::size_t cpus;
};

std::vector<PlatformShape> platforms() {
  std::vector<PlatformShape> out;
  for (const char* name : {"24-Intel-2-V100", "64-AMD-2-A100", "32-AMD-4-A100"}) {
    const hw::PlatformSpec spec = hw::presets::platform_by_name(name);
    out.push_back({name, spec.gpus.size(), spec.cpus.size()});
  }
  return out;
}

constexpr core::Operation kAllOps[] = {core::Operation::kGemm, core::Operation::kPotrf,
                                       core::Operation::kGetrf, core::Operation::kGeqrf,
                                       core::Operation::kGelqf};
constexpr hw::Precision kPrecisions[] = {hw::Precision::kDouble, hw::Precision::kSingle};

ExperimentConfig make_config(const std::string& platform, core::Operation op, hw::Precision p,
                             std::int64_t n, int nb, power::GpuConfig gpu_config) {
  ExperimentConfig cfg;
  cfg.platform = platform;
  cfg.op = op;
  cfg.precision = p;
  cfg.n = n;
  cfg.nb = nb;
  cfg.gpu_config = std::move(gpu_config);
  return cfg;
}

/// The paper's campaign at Table II sizes: every platform x {GEMM, POTRF} x
/// {double, single} over the standard ladder, the section V-C CPU-capped
/// rerun on 24-Intel-2-V100, and the LU/QR extensions on 32-AMD-4-A100.
/// The seed sets each run's RNG stream and shuffles the order after the
/// first run (the paper's first, so the set-up cost is the same for every
/// seed). Shuffling spreads slow spells of a shared machine over random
/// configs instead of one block of similar ones, which keeps the run-time
/// percentiles steady.
std::vector<ExperimentConfig> paper_ladder(std::uint64_t seed) {
  std::vector<ExperimentConfig> out;
  const std::vector<core::paper::TableIIRow> rows = core::paper::table_ii();
  auto ladder_of = [](const std::string& platform) {
    return power::standard_ladder(hw::presets::platform_by_name(platform).gpus.size());
  };
  for (const core::paper::TableIIRow& row : rows) {
    for (const power::GpuConfig& g : ladder_of(row.platform)) {
      out.push_back(make_config(row.platform, row.op, row.precision, row.n, row.nb, g));
    }
  }
  for (const core::paper::TableIIRow& row : rows) {
    if (row.platform != "24-Intel-2-V100") {
      continue;
    }
    for (const power::GpuConfig& g : ladder_of(row.platform)) {
      ExperimentConfig cfg = make_config(row.platform, row.op, row.precision, row.n, row.nb, g);
      cfg.cpu_cap = core::CpuCap{core::paper::kCpuCapPackage, core::paper::kCpuCapFraction};
      out.push_back(std::move(cfg));
    }
  }
  const core::paper::TableIIRow potrf =
      core::paper::table_ii_row("32-AMD-4-A100", core::Operation::kPotrf, hw::Precision::kDouble);
  for (const core::Operation op : {core::Operation::kGetrf, core::Operation::kGeqrf}) {
    for (const power::GpuConfig& g : ladder_of(potrf.platform)) {
      out.push_back(make_config(potrf.platform, op, potrf.precision, potrf.n, potrf.nb, g));
    }
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].seed = mix(seed, i);
  }
  Xoshiro256 rng{mix(seed, 0x1add)};
  for (std::size_t i = out.size(); i > 2; --i) {
    std::swap(out[i - 1], out[1 + pick(rng, i - 1)]);
  }
  return out;
}

/// Advisor-service traffic: many 4-8 tile queries. The burst is stratified
/// so every seed gets the same mix of platform x operation x precision x
/// tile count x scheduler (which fixes its host cost); the seed draws each
/// query's cap configuration uniformly from power::all_configs and sets the
/// order. One query in eight also carries the paper's section V-C CPU cap.
/// No measured advisor traffic exists to copy, so this mix is a guess.
std::vector<ExperimentConfig> advisor_burst(std::uint64_t seed) {
  constexpr int kTileCounts[] = {4, 5, 6, 7, 8};
  const char* const kSchedulers[] = {"dmdas", "dmda", "ws", "eager"};
  constexpr int kRepsPerStratum = 40;  // 2 x (5 tile counts x 4 schedulers)

  Xoshiro256 rng{mix(seed, 0xad)};
  std::vector<ExperimentConfig> out;
  for (const PlatformShape& plat : platforms()) {
    const int nb = core::paper::table_ii_row(plat.name, core::Operation::kPotrf,
                                             hw::Precision::kDouble)
                       .nb;
    const std::vector<power::GpuConfig> catalog = power::all_configs(plat.gpus);
    for (const core::Operation op : kAllOps) {
      for (const hw::Precision p : kPrecisions) {
        std::vector<int> slots(kRepsPerStratum);
        for (int r = 0; r < kRepsPerStratum; ++r) {
          slots[static_cast<std::size_t>(r)] = r;
        }
        shuffle(slots, rng);
        for (int r = 0; r < kRepsPerStratum; ++r) {
          const int slot = slots[static_cast<std::size_t>(r)];
          const int nt = kTileCounts[slot % 5];
          ExperimentConfig cfg = make_config(plat.name, op, p, static_cast<std::int64_t>(nt) * nb,
                                             nb, catalog[pick(rng, catalog.size())]);
          cfg.scheduler = kSchedulers[(slot / 5) % 4];
          if (r % 8 == 0) {
            cfg.cpu_cap = core::CpuCap{std::min(core::paper::kCpuCapPackage, plat.cpus - 1),
                                       core::paper::kCpuCapFraction};
          }
          out.push_back(std::move(cfg));
        }
      }
    }
  }
  shuffle(out, rng);
  // The burst opens with a query of one fixed shape, so the cold-start cost
  // (set-up probe) does not depend on which query the shuffle put first.
  const auto canonical = std::find_if(out.begin(), out.end(), [](const ExperimentConfig& c) {
    return c.platform == "32-AMD-4-A100" && c.op == core::Operation::kPotrf &&
           c.precision == hw::Precision::kDouble && c.n == 6 * c.nb && c.scheduler == "dmdas" &&
           !c.cpu_cap;
  });
  if (canonical != out.end()) {
    std::iter_swap(out.begin(), canonical);
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].seed = mix(seed, 0x10000 + i);
  }
  return out;
}

/// Mid-size POTRF/GETRF with every capture, a fault plan and mid-run
/// checkpoints. Tile counts give both operations about 500 tasks (POTRF
/// 14 tiles, GETRF 11), so run costs form one cluster and the median run
/// does not hop between clusters from one measurement to the next. Fixed
/// order (platform x operation x precision, two runs each); the seed deals
/// each platform's runs a shuffled, evenly repeated ladder of cap
/// configurations and picks every run's fault plan and fault seed.
std::vector<ExperimentConfig> instrumented_faults(std::uint64_t seed) {
  constexpr int kNb = 2880;
  constexpr int kRepsPerStratum = 2;
  constexpr std::pair<core::Operation, int> kShapes[] = {{core::Operation::kPotrf, 14},
                                                         {core::Operation::kGetrf, 11}};
  Xoshiro256 rng{mix(seed, 0xf1)};
  std::vector<ExperimentConfig> out;
  for (const PlatformShape& plat : platforms()) {
    const std::vector<power::GpuConfig> ladder = power::standard_ladder(plat.gpus);
    std::vector<std::size_t> deal;
    for (std::size_t i = 0; i < 4 * kRepsPerStratum; ++i) {
      deal.push_back(i % ladder.size());
    }
    shuffle(deal, rng);
    std::size_t dealt = 0;
    for (const auto& [op, nt] : kShapes) {
      for (const hw::Precision p : kPrecisions) {
        for (int r = 0; r < kRepsPerStratum; ++r) {
          out.push_back(make_config(plat.name, op, p, std::int64_t{nt} * kNb, kNb,
                                    ladder[deal[dealt++]]));
        }
      }
    }
  }
  // The cycle opens with one run of fixed caps and fault plan, so the
  // set-up probe's cost does not depend on the seed.
  out.front().gpu_config = power::standard_ladder(platforms().front().gpus).back();
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::uint64_t s = i == 0 ? 0 : seed;
    out[i].seed = mix(s, 0x20000 + i);
    out[i] = instrument(std::move(out[i]), mix(s, 0x30000 + i));
  }
  return out;
}

}  // namespace

std::optional<Workload> parse_workload(const std::string& name) {
  for (const Workload w :
       {Workload::kPaperLadder, Workload::kAdvisorBurst, Workload::kInstrumentedFaults}) {
    if (name == to_string(w)) {
      return w;
    }
  }
  return std::nullopt;
}

const char* to_string(Workload workload) {
  switch (workload) {
    case Workload::kPaperLadder: return "paper_ladder";
    case Workload::kAdvisorBurst: return "advisor_burst";
    case Workload::kInstrumentedFaults: return "instrumented_faults";
  }
  return "?";
}

Campaign make_campaign(Workload workload, std::uint64_t seed) {
  Campaign c;
  switch (workload) {
    case Workload::kPaperLadder:
      c.configs = paper_ladder(seed);
      break;
    case Workload::kAdvisorBurst:
      c.configs = advisor_burst(seed);
      c.jobs = std::min(4, core::resolve_jobs(0));
      break;
    case Workload::kInstrumentedFaults:
      c.configs = instrumented_faults(seed);
      c.engine = false;
      break;
  }
  return c;
}

ExperimentConfig instrument(ExperimentConfig config, std::uint64_t seed) {
  config.obs.trace = true;
  config.obs.metrics = true;
  config.obs.decision_log = true;
  config.obs.telemetry_period_ms = 10.0;
  config.obs.profile = true;

  Xoshiro256 rng{seed};
  const std::size_t gpus = hw::presets::platform_by_name(config.platform).gpus.size();
  const double drift_t = rng.uniform(0.1, 0.4);
  const double straggle_t = rng.uniform(0.05, 0.2);
  char plan[512];
  std::snprintf(plan, sizeof plan,
                "capfail@gpu%zu:count=%zu;drift@gpu%zu:t=%.3f,factor=%.3f;"
                "straggler@gpu%zu:t=%.3f,until=%.3f,factor=%.3f;dropout@gpu%zu:t=%.3f",
                pick(rng, gpus), 1 + pick(rng, 2), pick(rng, gpus), drift_t,
                rng.uniform(0.75, 0.9), pick(rng, gpus), straggle_t,
                straggle_t + rng.uniform(0.2, 0.5), rng.uniform(1.5, 2.5), pick(rng, gpus),
                rng.uniform(0.2, 0.5));
  config.resilience.faults = plan;
  config.resilience.fault_seed = rng() | 1;
  config.resilience.degrade = true;
  config.resilience.reconcile_ms = 100.0;
  return config;
}

ExperimentConfig plain(ExperimentConfig config) {
  config.obs = core::ObservabilityOptions{};
  config.resilience = core::ResilienceConfig{};
  return config;
}

std::vector<ExperimentConfig> anchor_configs() {
  std::vector<ExperimentConfig> out;
  for (const auto& [p, cfgs] :
       {std::pair{hw::Precision::kDouble, std::vector<const char*>{"HHHH", "BBBB", "HHBB"}},
        std::pair{hw::Precision::kSingle, std::vector<const char*>{"HHHH", "BBBB"}}}) {
    const core::paper::TableIIRow row =
        core::paper::table_ii_row("32-AMD-4-A100", core::Operation::kGemm, p);
    for (const char* letters : cfgs) {
      out.push_back(make_config(row.platform, row.op, row.precision, row.n, row.nb,
                                power::GpuConfig::parse(letters)));
    }
  }
  return out;
}

double paper_gap_pp(const std::vector<ExperimentResult>& anchors) {
  if (anchors.size() != 5) {
    throw std::invalid_argument("paper_gap_pp: expected the five anchor results");
  }
  std::vector<double> gaps;
  for (const core::paper::TableIRow& row : core::paper::table_i()) {
    const power::SweepResult sweep =
        power::sweep_gemm_caps(hw::presets::gpu_by_name(row.gpu), row.precision, row.matrix_size);
    gaps.push_back(std::abs(sweep.best().cap_pct_tdp - row.published_best_pct_tdp));
    gaps.push_back(std::abs(sweep.efficiency_saving_pct() - row.published_saving_pct));
  }
  const ExperimentResult& hhhh_d = anchors[0];
  const ExperimentResult& bbbb_d = anchors[1];
  const ExperimentResult& hhbb_d = anchors[2];
  const ExperimentResult& hhhh_s = anchors[3];
  const ExperimentResult& bbbb_s = anchors[4];
  // Published: BBBB +24.3 % efficiency at 26.41 % slowdown, HHBB +9.28 % at
  // 12.32 % (double); BBBB +33.78 % efficiency (single).
  gaps.push_back(std::abs(bbbb_d.efficiency_gain_pct(hhhh_d) - 24.3));
  gaps.push_back(std::abs(-bbbb_d.perf_delta_pct(hhhh_d) - 26.41));
  gaps.push_back(std::abs(hhbb_d.efficiency_gain_pct(hhhh_d) - 9.28));
  gaps.push_back(std::abs(-hhbb_d.perf_delta_pct(hhhh_d) - 12.32));
  gaps.push_back(std::abs(bbbb_s.efficiency_gain_pct(hhhh_s) - 33.78));
  double sum = 0.0;
  for (const double g : gaps) {
    sum += g;
  }
  return sum / static_cast<double>(gaps.size());
}

}  // namespace perfbench
