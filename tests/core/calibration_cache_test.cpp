// The campaign-shared warmup cache: exactly-once compute per key, address-
// stable snapshots under thread contention, throw-and-retry semantics, and
// the load-bearing guarantee that a cached warmup leaves the perf models in
// a state bit-identical to a run that computed everything locally.
#include "core/calibration_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/run_context.hpp"
#include "la/calibration_sets.hpp"
#include "la/lq.hpp"
#include "la/lu.hpp"
#include "la/qr.hpp"
#include "rt/calibration.hpp"

namespace greencap::core {
namespace {

TEST(CalibrationCache, BestCapComputesOncePerKey) {
  CalibrationCache cache;
  int computes = 0;
  const auto compute = [&computes] {
    ++computes;
    return 165.0;
  };
  EXPECT_DOUBLE_EQ(cache.best_cap_w("a100|double|5760", compute), 165.0);
  EXPECT_DOUBLE_EQ(cache.best_cap_w("a100|double|5760", compute), 165.0);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(CalibrationCache, DistinctKeysComputeIndependently) {
  CalibrationCache cache;
  EXPECT_DOUBLE_EQ(cache.best_cap_w("k1", [] { return 1.0; }), 1.0);
  EXPECT_DOUBLE_EQ(cache.best_cap_w("k2", [] { return 2.0; }), 2.0);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(CalibrationCache, ThrowingComputeIsRetriedNotCached) {
  CalibrationCache cache;
  bool first = true;
  const auto compute = [&first]() -> double {
    if (first) {
      first = false;
      throw std::runtime_error{"transient"};
    }
    return 7.0;
  };
  EXPECT_THROW((void)cache.best_cap_w("k", compute), std::runtime_error);
  EXPECT_DOUBLE_EQ(cache.best_cap_w("k", compute), 7.0);
}

TEST(CalibrationCache, ThrowWhileOthersWaitLetsAWaiterRetry) {
  CalibrationCache cache;
  std::atomic<int> computes{0};
  const auto compute = [&computes]() -> double {
    // The first compute holds the entry long enough for the others to
    // queue behind it, then fails; exactly one waiter must recompute.
    if (computes.fetch_add(1) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      throw std::runtime_error{"transient"};
    }
    return 7.0;
  };
  constexpr int kThreads = 4;
  std::atomic<int> threw{0};
  std::vector<double> got(kThreads, 0.0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        got[static_cast<std::size_t>(t)] = cache.best_cap_w("k", compute);
      } catch (const std::runtime_error&) {
        ++threw;
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  EXPECT_EQ(threw.load(), 1);
  EXPECT_EQ(computes.load(), 2);
  int sevens = 0;
  for (const double v : got) {
    sevens += v == 7.0 ? 1 : 0;
  }
  EXPECT_EQ(sevens, kThreads - 1);
}

TEST(CalibrationCache, SameKeyAcrossThreadsSharesOneSnapshot) {
  CalibrationCache cache;
  std::atomic<int> computes{0};
  const auto compute = [&computes] {
    ++computes;
    // Widen the race window so late arrivals block on the entry mutex
    // rather than finding a finished entry.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    rt::CalibrationRecord record;
    record.model.record("dgemm", 3, hw::KernelWork{}, sim::SimTime::seconds(0.125));
    return record;
  };
  constexpr int kThreads = 8;
  std::vector<const rt::CalibrationRecord*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { seen[static_cast<std::size_t>(t)] = &cache.calibration("key", compute); });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  EXPECT_EQ(computes.load(), 1);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]) << "thread " << t;
  }
  ASSERT_EQ(seen[0]->model.entry_count(), 1u);
  const auto t = seen[0]->model.expected("dgemm", 3, hw::KernelWork{});
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->sec(), 0.125);
}

TEST(CalibrationCache, GraphComputesOncePerKeyAcrossThreads) {
  CalibrationCache cache;
  std::atomic<int> computes{0};
  const auto compute = [&computes] {
    ++computes;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return std::make_shared<const rt::TaskGraph>();
  };
  constexpr int kThreads = 8;
  std::vector<const rt::TaskGraph*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      seen[static_cast<std::size_t>(t)] = cache.graph("graph|POTRF|17280|2880|double", compute).get();
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  EXPECT_EQ(computes.load(), 1);
  ASSERT_NE(seen[0], nullptr);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]) << "thread " << t;
  }
  EXPECT_EQ(cache.graph_misses(), 1u);
  EXPECT_EQ(cache.graph_hits(), static_cast<std::uint64_t>(kThreads - 1));
}

TEST(CalibrationCache, GraphLookupsLeaveWarmupCountersAlone) {
  CalibrationCache cache;
  const auto graph = [] { return std::make_shared<const rt::TaskGraph>(); };
  (void)cache.graph("g1", graph);
  (void)cache.graph("g1", graph);
  (void)cache.graph("g2", graph);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  (void)cache.best_cap_w("cap", [] { return 1.0; });
  (void)cache.best_cap_w("cap", [] { return 1.0; });
  (void)cache.graph("g2", graph);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.graph_misses(), 2u);
  EXPECT_EQ(cache.graph_hits(), 2u);
}

ExperimentConfig small_gemm(const std::string& ladder) {
  ExperimentConfig cfg;
  cfg.platform = "32-AMD-4-A100";
  cfg.op = Operation::kGemm;
  cfg.precision = hw::Precision::kDouble;
  cfg.n = 74880;
  cfg.nb = 5760;
  cfg.gpu_config = power::GpuConfig::parse(ladder);
  return cfg;
}

void expect_bit_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_DOUBLE_EQ(a.time_s, b.time_s);
  EXPECT_DOUBLE_EQ(a.gflops, b.gflops);
  EXPECT_DOUBLE_EQ(a.total_energy_j, b.total_energy_j);
  EXPECT_DOUBLE_EQ(a.efficiency_gflops_per_w, b.efficiency_gflops_per_w);
  ASSERT_EQ(a.energy.gpu_joules.size(), b.energy.gpu_joules.size());
  for (std::size_t g = 0; g < a.energy.gpu_joules.size(); ++g) {
    EXPECT_DOUBLE_EQ(a.energy.gpu_joules[g], b.energy.gpu_joules[g]) << "gpu " << g;
  }
  ASSERT_EQ(a.energy.cpu_joules.size(), b.energy.cpu_joules.size());
  for (std::size_t c = 0; c < a.energy.cpu_joules.size(); ++c) {
    EXPECT_DOUBLE_EQ(a.energy.cpu_joules[c], b.energy.cpu_joules[c]) << "cpu " << c;
  }
  EXPECT_EQ(a.cpu_tasks, b.cpu_tasks);
  EXPECT_EQ(a.gpu_tasks, b.gpu_tasks);
  EXPECT_EQ(a.stats.tasks_completed, b.stats.tasks_completed);
  EXPECT_DOUBLE_EQ(a.stats.makespan.sec(), b.stats.makespan.sec());
}

TEST(CalibrationCache, CachedWarmupIsBitIdenticalToUncached) {
  // Reference runs: no services, every run computes its own sweep and
  // calibration. Cached runs: the second run replays the first's record.
  const ExperimentResult plain_hhbb = run_experiment(small_gemm("HHBB"));

  CalibrationCache cache;
  RunServices services;
  services.calibration = &cache;
  const ExperimentResult warm = run_experiment(small_gemm("HHBB"), services);
  const ExperimentResult replayed = run_experiment(small_gemm("HHBB"), services);

  expect_bit_identical(plain_hhbb, warm);
  expect_bit_identical(plain_hhbb, replayed);
  EXPECT_GT(cache.hits(), 0u) << "second run should have reused the cached warmup";
}

TEST(CalibrationCache, DifferentLaddersDoNotShareCalibrations) {
  // HHHH and BBBB calibrate under different applied caps, so their records
  // must live under different keys and reproduce the uncached results.
  CalibrationCache cache;
  RunServices services;
  services.calibration = &cache;
  const ExperimentResult hhhh = run_experiment(small_gemm("HHHH"), services);
  const ExperimentResult bbbb = run_experiment(small_gemm("BBBB"), services);
  expect_bit_identical(hhhh, run_experiment(small_gemm("HHHH")));
  expect_bit_identical(bbbb, run_experiment(small_gemm("BBBB")));
  EXPECT_NE(hhhh.time_s, bbbb.time_s);
}

TEST(CalibrationCache, FaultInjectingRunsBypassTheCache) {
  // A faulty run's measurements depend on the injected events; it must
  // neither poison the cache nor consume a clean run's record.
  CalibrationCache cache;
  RunServices services;
  services.calibration = &cache;
  ExperimentConfig faulty = small_gemm("HHBB");
  faulty.resilience.faults = "capfail@gpu2:count=1";
  faulty.resilience.degrade = true;
  const ExperimentResult with_cache = run_experiment(faulty, services);
  const ExperimentResult without_cache = run_experiment(faulty);
  expect_bit_identical(with_cache, without_cache);
}

// A cache hit copies the recorded model into the fresh run's empty one; it
// must leave exactly the state a fresh calibration leaves, for every
// operation's codelet set and both precisions.
template <typename T>
struct OperationCalibration {
  la::Codelets<T> codelets;
  la::LuCodelets<T> lu;
  la::QrCodelets<T> qr;
  la::LqCodelets<T> lq;

  void run(rt::Calibrator& calibrator, Operation op, int nb) {
    la::calibrate_codelets<T>(calibrator, codelets, {nb});
    if (op == Operation::kGetrf) la::calibrate_lu_codelets<T>(calibrator, lu, {nb});
    if (op == Operation::kGeqrf) la::calibrate_qr_codelets<T>(calibrator, qr, {nb});
    if (op == Operation::kGelqf) la::calibrate_lq_codelets<T>(calibrator, lq, {nb});
  }
};

template <typename T>
void expect_hit_matches_fresh_calibration(const ExperimentConfig& cfg) {
  SCOPED_TRACE(std::string{to_string(cfg.op)} + " " + hw::to_string(cfg.precision));
  CalibrationCache cache;
  const auto measure = [&cfg](RunContext& ctx) {
    OperationCalibration<T> sets;
    rt::Calibrator calibrator{ctx.runtime()};
    rt::CalibrationRecord record;
    calibrator.set_record_sink(&record);
    sets.run(calibrator, cfg.op, cfg.nb);
    calibrator.set_record_sink(nullptr);
    return record;
  };

  RunContext fresh{cfg, RunServices{}};
  fresh.apply_caps();
  (void)cache.calibration("key", [&] { return measure(fresh); });

  RunContext hit{cfg, RunServices{}};
  hit.apply_caps();
  const rt::CalibrationRecord& record = cache.calibration("key", [&]() -> rt::CalibrationRecord {
    ADD_FAILURE() << "second lookup must hit";
    return {};
  });
  rt::replay_calibration(hit.runtime(), record);
  EXPECT_EQ(cache.hits(), 1u);

  const rt::HistoryPerfModel& a = fresh.runtime().perf_model();
  const rt::HistoryPerfModel& b = hit.runtime().perf_model();
  ASSERT_GT(a.entry_count(), 0u);
  EXPECT_EQ(a.entry_count(), b.entry_count());
  const auto ah = a.export_history();
  const auto bh = b.export_history();
  ASSERT_EQ(ah.size(), bh.size());
  for (std::size_t i = 0; i < ah.size(); ++i) {
    EXPECT_EQ(ah[i].codelet, bh[i].codelet);
    EXPECT_EQ(ah[i].worker, bh[i].worker);
    EXPECT_EQ(ah[i].precision, bh[i].precision);
    EXPECT_EQ(ah[i].size_key, bh[i].size_key);
    EXPECT_EQ(ah[i].samples, bh[i].samples);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ah[i].mean_s), std::bit_cast<std::uint64_t>(bh[i].mean_s));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ah[i].m2), std::bit_cast<std::uint64_t>(bh[i].m2));
  }
  const auto ar = a.export_regression();
  const auto br = b.export_regression();
  ASSERT_EQ(ar.size(), br.size());
  for (std::size_t i = 0; i < ar.size(); ++i) {
    EXPECT_EQ(ar[i].codelet, br[i].codelet);
    EXPECT_EQ(ar[i].worker, br[i].worker);
    EXPECT_EQ(ar[i].precision, br[i].precision);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ar[i].sum_xt), std::bit_cast<std::uint64_t>(br[i].sum_xt));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ar[i].sum_xx), std::bit_cast<std::uint64_t>(br[i].sum_xx));
    EXPECT_EQ(ar[i].samples, br[i].samples);
  }

  // Replaying into a model that already holds statistics is refused.
  EXPECT_THROW(rt::replay_calibration(hit.runtime(), record), std::logic_error);
}

TEST(CalibrationCache, HitLeavesTheFreshCalibrationStateForEveryOperation) {
  for (const Operation op : {Operation::kGemm, Operation::kPotrf, Operation::kGetrf,
                             Operation::kGeqrf, Operation::kGelqf}) {
    for (const hw::Precision precision : {hw::Precision::kDouble, hw::Precision::kSingle}) {
      ExperimentConfig cfg = small_gemm("HBLB");
      cfg.op = op;
      cfg.precision = precision;
      cfg.nb = 2880;
      cfg.n = 4 * 2880;
      if (precision == hw::Precision::kDouble) {
        expect_hit_matches_fresh_calibration<double>(cfg);
      } else {
        expect_hit_matches_fresh_calibration<float>(cfg);
      }
      // End to end: a cached run reproduces an uncached one bit for bit.
      CalibrationCache cache;
      RunServices services;
      services.calibration = &cache;
      const ExperimentResult plain = run_experiment(cfg);
      const ExperimentResult warm = run_experiment(cfg, services);
      const ExperimentResult replayed = run_experiment(cfg, services);
      expect_bit_identical(plain, warm);
      expect_bit_identical(plain, replayed);
      EXPECT_GT(cache.hits(), 0u);
    }
  }
}

}  // namespace
}  // namespace greencap::core
