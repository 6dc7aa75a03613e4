#include "rt/perf_model.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "sim/rng.hpp"

namespace greencap::rt {
namespace {

using sim::SimTime;

hw::KernelWork work_of(double dim, double flops = 0.0) {
  return hw::KernelWork{hw::KernelClass::kGemm, hw::Precision::kDouble,
                        flops > 0 ? flops : 2.0 * dim * dim * dim, dim};
}

TEST(PerfStats, WelfordMeanAndVariance) {
  PerfStats stats;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    stats.record(x);
  }
  EXPECT_EQ(stats.samples, 5u);
  EXPECT_DOUBLE_EQ(stats.mean_s, 3.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 2.5);
}

TEST(PerfStats, SingleSampleHasZeroVariance) {
  PerfStats stats;
  stats.record(7.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(HistoryPerfModel, UnknownReturnsNullopt) {
  HistoryPerfModel model;
  EXPECT_FALSE(model.expected("gemm", 0, work_of(512)).has_value());
  EXPECT_FALSE(model.calibrated("gemm", 0, work_of(512)));
}

TEST(HistoryPerfModel, ExactSizeHit) {
  HistoryPerfModel model;
  model.record("gemm", 0, work_of(512), SimTime::seconds(0.5));
  model.record("gemm", 0, work_of(512), SimTime::seconds(1.5));
  const auto t = model.expected("gemm", 0, work_of(512));
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->sec(), 1.0);
  EXPECT_TRUE(model.calibrated("gemm", 0, work_of(512)));
}

TEST(HistoryPerfModel, KeyedPerWorker) {
  HistoryPerfModel model;
  model.record("gemm", 0, work_of(512), SimTime::seconds(1.0));
  EXPECT_FALSE(model.calibrated("gemm", 1, work_of(512)));
}

TEST(HistoryPerfModel, KeyedPerCodelet) {
  HistoryPerfModel model;
  model.record("gemm", 0, work_of(512), SimTime::seconds(1.0));
  EXPECT_FALSE(model.calibrated("trsm", 0, work_of(512)));
}

TEST(HistoryPerfModel, KeyedPerPrecision) {
  HistoryPerfModel model;
  model.record("gemm", 0, work_of(512), SimTime::seconds(1.0));
  hw::KernelWork single = work_of(512);
  single.precision = hw::Precision::kSingle;
  EXPECT_FALSE(model.calibrated("gemm", 0, single));
}

TEST(HistoryPerfModel, RegressionExtrapolatesUnseenSizes) {
  HistoryPerfModel model;
  // time = 1e-12 * flops exactly.
  for (double dim : {256.0, 512.0, 1024.0}) {
    const double flops = 2.0 * dim * dim * dim;
    model.record("gemm", 0, work_of(dim), SimTime::seconds(flops * 1e-12));
  }
  const hw::KernelWork unseen = work_of(768);
  EXPECT_FALSE(model.calibrated("gemm", 0, unseen));
  const auto t = model.expected("gemm", 0, unseen);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(t->sec(), unseen.flops * 1e-12, unseen.flops * 1e-12 * 0.05);
}

TEST(HistoryPerfModel, ExactHistoryBeatsRegression) {
  HistoryPerfModel model;
  model.record("gemm", 0, work_of(256), SimTime::seconds(10.0));  // outlier history point
  model.record("gemm", 0, work_of(1024), SimTime::seconds(1.0));
  const auto t = model.expected("gemm", 0, work_of(256));
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->sec(), 10.0);  // history entry wins over the fit
}

TEST(HistoryPerfModel, InvalidateForgetsEverything) {
  HistoryPerfModel model;
  model.record("gemm", 0, work_of(512), SimTime::seconds(1.0));
  model.invalidate();
  EXPECT_FALSE(model.expected("gemm", 0, work_of(512)).has_value());
  EXPECT_EQ(model.entry_count(), 0u);
}

TEST(HistoryPerfModel, EntryCountTracksDistinctKeys) {
  HistoryPerfModel model;
  model.record("gemm", 0, work_of(512), SimTime::seconds(1.0));
  model.record("gemm", 0, work_of(512), SimTime::seconds(1.0));
  model.record("gemm", 1, work_of(512), SimTime::seconds(1.0));
  model.record("trsm", 0, work_of(512), SimTime::seconds(1.0));
  EXPECT_EQ(model.entry_count(), 3u);
}

// ---------------------------------------------------------------------------
// Equivalence with the ordered-map model the flat layout replaced
// ---------------------------------------------------------------------------

/// The former implementation: two std::maps keyed by (codelet, worker,
/// precision[, size]). Kept as the specification the flat model must match
/// bit for bit, export order included.
class MapModel {
 public:
  void record(const std::string& codelet, WorkerId worker, const hw::KernelWork& work,
              SimTime duration) {
    history_[hist_key(codelet, worker, work)].record(duration.sec());
    Regression& reg = regression_[reg_key(codelet, worker, work)];
    reg.sum_xt += work.flops * duration.sec();
    reg.sum_xx += work.flops * work.flops;
    ++reg.samples;
  }
  std::optional<SimTime> expected(const std::string& codelet, WorkerId worker,
                                  const hw::KernelWork& work) const {
    if (const auto it = history_.find(hist_key(codelet, worker, work)); it != history_.end()) {
      return SimTime::seconds(it->second.mean_s);
    }
    if (const auto it = regression_.find(reg_key(codelet, worker, work));
        it != regression_.end() && it->second.samples > 0) {
      const double slope = it->second.sum_xx > 0 ? it->second.sum_xt / it->second.sum_xx : 0.0;
      return SimTime::seconds(slope * work.flops);
    }
    return std::nullopt;
  }
  bool calibrated(const std::string& codelet, WorkerId worker, const hw::KernelWork& work) const {
    return history_.contains(hist_key(codelet, worker, work));
  }
  void invalidate() {
    history_.clear();
    regression_.clear();
  }
  void invalidate_worker(WorkerId worker) {
    std::erase_if(history_, [worker](const auto& kv) { return std::get<1>(kv.first) == worker; });
    std::erase_if(regression_,
                  [worker](const auto& kv) { return std::get<1>(kv.first) == worker; });
  }
  std::size_t entry_count() const { return history_.size(); }
  std::vector<HistoryPerfModel::HistoryEntry> export_history() const {
    std::vector<HistoryPerfModel::HistoryEntry> out;
    for (const auto& [k, st] : history_) {
      out.push_back({std::get<0>(k), std::get<1>(k), std::get<2>(k), std::get<3>(k), st.samples,
                     st.mean_s, st.m2});
    }
    return out;
  }
  std::vector<HistoryPerfModel::RegressionEntry> export_regression() const {
    std::vector<HistoryPerfModel::RegressionEntry> out;
    for (const auto& [k, r] : regression_) {
      out.push_back({std::get<0>(k), std::get<1>(k), std::get<2>(k), r.sum_xt, r.sum_xx,
                     r.samples});
    }
    return out;
  }
  void import_state(const std::vector<HistoryPerfModel::HistoryEntry>& history,
                    const std::vector<HistoryPerfModel::RegressionEntry>& regression) {
    invalidate();
    for (const auto& e : history) {
      history_[{e.codelet, e.worker, e.precision, e.size_key}] = {e.samples, e.mean_s, e.m2};
    }
    for (const auto& e : regression) {
      regression_[{e.codelet, e.worker, e.precision}] = {e.sum_xt, e.sum_xx, e.samples};
    }
  }

 private:
  using HistKey = std::tuple<std::string, WorkerId, std::uint8_t, std::int64_t>;
  using RegKey = std::tuple<std::string, WorkerId, std::uint8_t>;
  struct Regression {
    double sum_xt = 0.0;
    double sum_xx = 0.0;
    std::uint64_t samples = 0;
  };
  static HistKey hist_key(const std::string& c, WorkerId w, const hw::KernelWork& work) {
    return {c, w, static_cast<std::uint8_t>(work.precision),
            static_cast<std::int64_t>(work.work_dim)};
  }
  static RegKey reg_key(const std::string& c, WorkerId w, const hw::KernelWork& work) {
    return {c, w, static_cast<std::uint8_t>(work.precision)};
  }
  std::map<HistKey, PerfStats> history_;
  std::map<RegKey, Regression> regression_;
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_state(const HistoryPerfModel& flat, const MapModel& ref) {
  EXPECT_EQ(flat.entry_count(), ref.entry_count());
  const auto fh = flat.export_history();
  const auto rh = ref.export_history();
  ASSERT_EQ(fh.size(), rh.size());
  for (std::size_t i = 0; i < fh.size(); ++i) {
    EXPECT_EQ(fh[i].codelet, rh[i].codelet) << "history " << i;
    EXPECT_EQ(fh[i].worker, rh[i].worker) << "history " << i;
    EXPECT_EQ(fh[i].precision, rh[i].precision) << "history " << i;
    EXPECT_EQ(fh[i].size_key, rh[i].size_key) << "history " << i;
    EXPECT_EQ(fh[i].samples, rh[i].samples) << "history " << i;
    EXPECT_EQ(bits(fh[i].mean_s), bits(rh[i].mean_s)) << "history " << i;
    EXPECT_EQ(bits(fh[i].m2), bits(rh[i].m2)) << "history " << i;
  }
  const auto fr = flat.export_regression();
  const auto rr = ref.export_regression();
  ASSERT_EQ(fr.size(), rr.size());
  for (std::size_t i = 0; i < fr.size(); ++i) {
    EXPECT_EQ(fr[i].codelet, rr[i].codelet) << "regression " << i;
    EXPECT_EQ(fr[i].worker, rr[i].worker) << "regression " << i;
    EXPECT_EQ(fr[i].precision, rr[i].precision) << "regression " << i;
    EXPECT_EQ(bits(fr[i].sum_xt), bits(rr[i].sum_xt)) << "regression " << i;
    EXPECT_EQ(bits(fr[i].sum_xx), bits(rr[i].sum_xx)) << "regression " << i;
    EXPECT_EQ(fr[i].samples, rr[i].samples) << "regression " << i;
  }
}

/// Random keys over a small domain, so keys repeat and every operation
/// meets populated state. The names are listed out of sorted order so that
/// intern order and export order differ.
struct KeyGen {
  sim::Xoshiro256 rng;
  const std::vector<std::string> names{"trsm", "gemm", "potrf", "syrk", "a", "gemm_long"};
  const std::vector<double> dims{256.0, 512.0, 777.0, 1024.0};

  const std::string& name() { return names[rng.below(names.size())]; }
  WorkerId worker() { return static_cast<WorkerId>(rng.below(9)); }
  hw::KernelWork work() {
    const double dim = dims[rng.below(dims.size())];
    hw::KernelWork w = work_of(dim, rng.uniform() < 0.3 ? 1e9 * (1.0 + rng.uniform()) : 0.0);
    w.precision = rng.below(2) == 0 ? hw::Precision::kDouble : hw::Precision::kSingle;
    return w;
  }
  SimTime duration() { return SimTime::seconds(1e-3 + rng.uniform()); }
};

/// Fills both models with the same random records (the flat one through
/// the id path when `by_id`).
void fill(KeyGen& gen, int records, HistoryPerfModel& flat, MapModel& ref, bool by_id) {
  for (int i = 0; i < records; ++i) {
    const std::string name = gen.name();
    const WorkerId w = gen.worker();
    const hw::KernelWork work = gen.work();
    const SimTime d = gen.duration();
    if (by_id) {
      flat.record(flat.intern(name), w, work, d);
    } else {
      flat.record(name, w, work, d);
    }
    ref.record(name, w, work, d);
  }
}

class PerfModelEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PerfModelEquivalence, RandomOperationSequencesMatchTheMapModel) {
  KeyGen gen{sim::Xoshiro256{GetParam()}};
  HistoryPerfModel flat;
  MapModel ref;
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t op = gen.rng.below(100);
    if (op < 55) {
      fill(gen, 1, flat, ref, gen.rng.below(2) == 0);
    } else if (op < 85) {
      const std::string name = gen.name();
      const WorkerId w = gen.worker();
      const hw::KernelWork work = gen.work();
      const auto a = flat.expected(name, w, work);
      const auto b = ref.expected(name, w, work);
      ASSERT_EQ(a.has_value(), b.has_value()) << "step " << step;
      if (a) {
        ASSERT_EQ(bits(a->sec()), bits(b->sec())) << "step " << step;
        // The id path answers exactly like the by-name wrapper.
        const auto by_id = flat.expected(flat.intern(name), w, work);
        ASSERT_TRUE(by_id.has_value());
        ASSERT_EQ(bits(by_id->sec()), bits(a->sec())) << "step " << step;
      }
      ASSERT_EQ(flat.calibrated(name, w, work), ref.calibrated(name, w, work)) << "step " << step;
    } else if (op < 92) {
      const WorkerId w = gen.worker();
      flat.invalidate_worker(w);
      ref.invalidate_worker(w);
    } else if (op < 94) {
      flat.invalidate();
      ref.invalidate();
    } else if (op < 97) {
      // Checkpoint-style import of another random state, sometimes with a
      // repeated key (the last entry wins in both).
      HistoryPerfModel src_flat;
      MapModel src_ref;
      fill(gen, static_cast<int>(gen.rng.below(60)), src_flat, src_ref, false);
      auto history = src_ref.export_history();
      auto regression = src_ref.export_regression();
      if (!history.empty() && gen.rng.below(2) == 0) {
        history.push_back(history.front());
        history.back().mean_s += 1.0;
        regression.push_back(regression.front());
        regression.back().samples = 0;  // present but unusable for extrapolation
      }
      flat.import_state(history, regression);
      ref.import_state(history, regression);
    } else {
      // Calibration-cache hit: bulk copy into an emptied model. The source
      // interns names in its own order, so both the bulk path and the
      // re-keying path run.
      HistoryPerfModel src_flat;
      MapModel src_ref;
      fill(gen, static_cast<int>(gen.rng.below(80)), src_flat, src_ref, true);
      flat.invalidate();
      flat.import_model(src_flat);
      ref = src_ref;
    }
    if (step % 50 == 0) {
      expect_same_state(flat, ref);
      if (HasFatalFailure() || HasNonfatalFailure()) {
        FAIL() << "diverged by step " << step;
      }
    }
  }
  expect_same_state(flat, ref);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PerfModelEquivalence, ::testing::Values(1u, 2u, 3u, 20241u));

TEST(HistoryPerfModel, ImportModelIntoFreshModelCopiesEverything) {
  KeyGen gen{sim::Xoshiro256{9}};
  HistoryPerfModel src;
  MapModel ref;
  fill(gen, 500, src, ref, true);
  HistoryPerfModel dst;
  dst.import_model(src);
  expect_same_state(dst, ref);
  // Ids agree with the source's, so ids cached against it stay usable.
  for (const std::string& name : gen.names) {
    EXPECT_EQ(dst.intern(name), src.intern(name));
  }
}

TEST(HistoryPerfModel, ImportModelRejectsANonEmptyModel) {
  HistoryPerfModel src;
  src.record("gemm", 0, work_of(512), SimTime::seconds(1.0));
  HistoryPerfModel dst;
  dst.record("trsm", 1, work_of(512), SimTime::seconds(2.0));
  EXPECT_THROW(dst.import_model(src), std::logic_error);
}

TEST(HistoryPerfModel, IdsSurviveInvalidateAndImport) {
  HistoryPerfModel model;
  const CodeletId gemm = model.intern("gemm");
  const CodeletId trsm = model.intern("trsm");
  EXPECT_NE(gemm, trsm);
  model.invalidate();
  model.import_state({{"trsm", 0, 1, 512, 1, 2.0, 0.0}, {"zzz", 0, 1, 512, 1, 3.0, 0.0}}, {});
  EXPECT_EQ(model.intern("gemm"), gemm);
  EXPECT_EQ(model.intern("trsm"), trsm);
  const auto t = model.expected(trsm, 0, work_of(512));
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->sec(), 2.0);
}

TEST(HistoryPerfModel, ImportStateRejectsOutOfRangeKeys) {
  HistoryPerfModel model;
  model.record("gemm", 0, work_of(512), SimTime::seconds(1.0));
  EXPECT_THROW(model.import_state({{"gemm", -1, 1, 512, 1, 1.0, 0.0}}, {}), std::out_of_range);
  EXPECT_THROW(model.import_state({{"gemm", HistoryPerfModel::kMaxWorkers, 1, 512, 1, 1.0, 0.0}},
                                  {}),
               std::out_of_range);
  EXPECT_THROW(model.import_state({}, {{"gemm", 0, 2, 1.0, 1.0, 1}}), std::out_of_range);
  // A rejected import leaves the model as it was.
  EXPECT_EQ(model.entry_count(), 1u);
}

}  // namespace
}  // namespace greencap::rt
