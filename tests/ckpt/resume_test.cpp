// The headline crash-consistency property, in-process: an experiment
// killed at an arbitrary checkpoint write (the chaos kill hook fires
// _Exit(137) the instant the rename lands, like SIGKILL) and resumed from
// the surviving file produces a byte-identical result — including under
// in-flight fault injection and degradation (the ISSUE's resume-under-
// faults scenario). Kill points are exercised via gtest death tests, so
// the write-then-die happens in a forked child and the parent resumes
// from the file the child left behind.
#include "core/checkpoint.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "ckpt/file.hpp"
#include "core/checkpoint_io.hpp"
#include "core/experiment.hpp"

namespace greencap::core {
namespace {

ExperimentConfig small_run(bool with_faults) {
  ExperimentConfig cfg;
  cfg.platform = "32-AMD-4-A100";
  cfg.op = Operation::kGemm;
  cfg.precision = hw::Precision::kDouble;
  cfg.n = 23040;
  cfg.nb = 2880;
  cfg.gpu_config = power::GpuConfig::parse("HBBL");
  cfg.seed = 42;
  if (with_faults) {
    cfg.resilience.faults = "dropout@gpu1:t=0.05;capfail@gpu2:count=2";
    cfg.resilience.degrade = true;
    cfg.resilience.reconcile_ms = 25.0;
  }
  return cfg;
}

/// Canonical byte encoding of a result — the same encoding a checkpoint
/// stores, so "equal bytes" here is exactly the resume guarantee.
std::string result_bytes(const ExperimentResult& r) {
  greencap::ckpt::Writer w;
  ckpt_io::encode_result(w, r);
  return w.take();
}

class ResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "resume_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
            std::to_string(::getpid()) + ".gckp";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Death-test body: run with checkpointing armed and the chaos kill
  /// hook set — must die with _Exit(137) at the Nth checkpoint write.
  void run_and_die(const ExperimentConfig& cfg, int kill_after) {
    CheckpointOptions opts;
    opts.path = path_;
    opts.every_ms = 10.0;
    opts.kill_after = kill_after;
    CheckpointSession session{opts};
    const ExperimentResult result = run_experiment(cfg, &session);
    session.commit(cfg, result);
  }

  /// Resumes from the file the killed child left behind, to completion.
  ExperimentResult resume(const ExperimentConfig& cfg) {
    CheckpointOptions opts;
    opts.path = path_;
    opts.resume_path = path_;
    opts.every_ms = 10.0;
    CheckpointSession session{opts};
    if (auto replayed = session.try_replay(cfg)) {
      return std::move(*replayed);
    }
    ExperimentResult result = run_experiment(cfg, &session);
    session.commit(cfg, result);
    return result;
  }

  void expect_kill_resume_identical(const ExperimentConfig& cfg, int kill_after) {
    const ExperimentResult reference = run_experiment(cfg);
    EXPECT_EXIT(run_and_die(cfg, kill_after), ::testing::ExitedWithCode(137), "");
    // The child died mid-run; its last write must be a valid mid-run file.
    const greencap::ckpt::CheckpointFile file = greencap::ckpt::read_checkpoint_file(path_);
    EXPECT_EQ(file.manifest.kind, "run");
    const ExperimentResult resumed = resume(cfg);
    EXPECT_EQ(result_bytes(resumed), result_bytes(reference))
        << "resume after kill point " << kill_after << " diverged";
    EXPECT_EQ(resumed.degradation.to_string(), reference.degradation.to_string());
  }

  std::string path_;
};

TEST_F(ResumeTest, KilledAtFirstTickResumesByteIdentically) {
  expect_kill_resume_identical(small_run(false), 1);
}

TEST_F(ResumeTest, KilledAtLaterTickResumesByteIdentically) {
  expect_kill_resume_identical(small_run(false), 3);
}

TEST_F(ResumeTest, ResumeUnderFaultsReplaysPendingEventsIdentically) {
  // Kill points chosen to land before and after the dropout at t=0.05 and
  // around the capfail retries, so the resumed run carries pending fault
  // events and partially-consumed injector RNG state.
  const ExperimentConfig cfg = small_run(true);
  const ExperimentResult reference = run_experiment(cfg);
  ASSERT_FALSE(reference.degradation.empty());
  for (const int kill_after : {1, 4}) {
    std::remove(path_.c_str());
    EXPECT_EXIT(run_and_die(cfg, kill_after), ::testing::ExitedWithCode(137), "");
    const ExperimentResult resumed = resume(cfg);
    EXPECT_EQ(result_bytes(resumed), result_bytes(reference))
        << "kill point " << kill_after;
    EXPECT_EQ(resumed.degradation.to_string(), reference.degradation.to_string());
    EXPECT_EQ(resumed.fault_counts.dropouts, reference.fault_counts.dropouts);
    EXPECT_EQ(resumed.fault_counts.cap_write_failures,
              reference.fault_counts.cap_write_failures);
  }
}

TEST_F(ResumeTest, CheckpointingItselfDoesNotPerturbTheRun) {
  const ExperimentConfig cfg = small_run(true);
  const ExperimentResult plain = run_experiment(cfg);
  CheckpointOptions opts;
  opts.path = path_;
  opts.every_ms = 10.0;
  CheckpointSession session{opts};
  const ExperimentResult checkpointed = run_experiment(cfg, &session);
  EXPECT_EQ(result_bytes(checkpointed), result_bytes(plain));
  EXPECT_GT(session.writes(), 0);
}

TEST_F(ResumeTest, CompletedExperimentReplaysFromBoundaryCheckpoint) {
  const ExperimentConfig cfg = small_run(false);
  const ExperimentResult reference = run_experiment(cfg);
  {
    CheckpointOptions opts;
    opts.path = path_;
    CheckpointSession session{opts};
    const ExperimentResult result = run_experiment(cfg, &session);
    session.commit(cfg, result);
  }
  CheckpointOptions opts;
  opts.resume_path = path_;
  CheckpointSession session{opts};
  ASSERT_TRUE(session.next_is_replay());
  auto replayed = session.try_replay(cfg);
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(result_bytes(*replayed), result_bytes(reference));
}

TEST_F(ResumeTest, ReplayRejectsADifferentCampaign) {
  const ExperimentConfig cfg = small_run(false);
  {
    CheckpointOptions opts;
    opts.path = path_;
    CheckpointSession session{opts};
    const ExperimentResult result = run_experiment(cfg, &session);
    session.commit(cfg, result);
  }
  ExperimentConfig other = cfg;
  other.seed = 43;
  CheckpointOptions opts;
  opts.resume_path = path_;
  CheckpointSession session{opts};
  EXPECT_THROW((void)session.try_replay(other), greencap::ckpt::CheckpointError);
}

TEST_F(ResumeTest, CorruptResumeFileIsRejectedPrecisely) {
  const ExperimentConfig cfg = small_run(false);
  {
    CheckpointOptions opts;
    opts.path = path_;
    CheckpointSession session{opts};
    const ExperimentResult result = run_experiment(cfg, &session);
    session.commit(cfg, result);
  }
  std::string raw;
  {
    std::ifstream in{path_, std::ios::binary};
    raw.assign(std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{});
  }
  // Bit flip.
  {
    std::string bad = raw;
    bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x01);
    std::ofstream out{path_, std::ios::binary | std::ios::trunc};
    out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
  }
  CheckpointOptions opts;
  opts.resume_path = path_;
  EXPECT_THROW(CheckpointSession{opts}, greencap::ckpt::CheckpointError);
  // Truncation.
  {
    std::ofstream out{path_, std::ios::binary | std::ios::trunc};
    out.write(raw.data(), static_cast<std::streamsize>(raw.size() / 2));
  }
  EXPECT_THROW(CheckpointSession{opts}, greencap::ckpt::CheckpointError);
}

}  // namespace
}  // namespace greencap::core
