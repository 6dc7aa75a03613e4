// Seeded mutation test of the checkpoint reader: real campaign and run
// checkpoints are truncated at every length and mutated at seeded offsets,
// and reading them back through ckpt::read_checkpoint_file and a resuming
// CheckpointSession must either succeed or throw ckpt::CheckpointError —
// never another exception, a crash, or (under the sanitizer build) an
// overflow or an allocation sized by an unchecked length field.
//
// Three mutation layers reach three parsers:
//  * raw file bytes (truncation, bit flips): the container framing and
//    its CRCs, which must reject every such file;
//  * manifest bytes with the file CRC recomputed: the manifest scanner;
//  * payload bytes re-wrapped by write_checkpoint_file, so both CRCs are
//    valid: the campaign section and the result decoder behind replay.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "ckpt/file.hpp"
#include "core/checkpoint.hpp"
#include "core/experiment.hpp"
#include "sim/rng.hpp"

namespace greencap::core {
namespace {

namespace ck = greencap::ckpt;

ExperimentConfig tiny_run(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.platform = "32-AMD-4-A100";
  cfg.op = Operation::kGemm;
  cfg.precision = hw::Precision::kDouble;
  cfg.n = 5760;
  cfg.nb = 2880;
  cfg.gpu_config = power::GpuConfig::parse("HBBL");
  cfg.seed = seed;
  return cfg;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Replaces the trailing whole-file CRC so a mutation inside the file
/// reaches the parser behind the checksum.
std::string with_file_crc(std::string raw) {
  const std::uint32_t crc = ck::crc32(raw.data(), raw.size() - 4);
  for (std::size_t i = 0; i < 4; ++i) {
    raw[raw.size() - 4 + i] = static_cast<char>((crc >> (8 * i)) & 0xffU);
  }
  return raw;
}

class ReaderFuzz : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = ::testing::TempDir() + "reader_fuzz_" + std::to_string(::getpid()) + "_";
    configs_ = {tiny_run(1), tiny_run(2), tiny_run(3)};
    // A campaign file after two boundary commits.
    {
      CheckpointOptions opts;
      opts.path = dir_ + "campaign.gckp";
      CheckpointSession session{opts};
      for (std::size_t i = 0; i < 2; ++i) {
        session.commit(configs_[i], run_experiment(configs_[i], &session));
      }
    }
    // A run file: one boundary commit, then the second run's last mid-run
    // write is left on disk uncommitted.
    {
      CheckpointOptions opts;
      opts.path = dir_ + "run.gckp";
      opts.every_ms = 1.0;
      CheckpointSession session{opts};
      session.commit(configs_[0], run_experiment(configs_[0], &session));
      (void)run_experiment(configs_[1], &session);
    }
    campaign_ = read_bytes(dir_ + "campaign.gckp");
    run_ = read_bytes(dir_ + "run.gckp");
  }

  static void TearDownTestSuite() {
    std::remove((dir_ + "campaign.gckp").c_str());
    std::remove((dir_ + "run.gckp").c_str());
  }

  void TearDown() override { std::remove(path().c_str()); }

  [[nodiscard]] static std::string path() { return dir_ + "mutant.gckp"; }

  /// Reads the mutant at path() the way a resume does, driving every
  /// decoder: replay of each completed experiment, then the witness's
  /// config check. Fails the test on any exception but CheckpointError.
  /// Returns whether the file was rejected.
  static bool rejected(const std::string& what) {
    try {
      CheckpointOptions opts;
      opts.resume_path = path();
      opts.every_ms = 1.0;  // the run file's period, so its witness is checkable
      CheckpointSession session{opts};
      for (const ExperimentConfig& cfg : configs_) {
        if (!session.try_replay(cfg)) {
          session.begin_run(cfg);
          break;
        }
      }
      return false;
    } catch (const ck::CheckpointError&) {
      return true;
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": threw a non-checkpoint error: " << e.what();
      return true;
    }
  }

  static void expect_truncations_rejected(const std::string& raw) {
    for (std::size_t len = 0; len < raw.size(); ++len) {
      write_bytes(path(), raw.substr(0, len));
      ASSERT_TRUE(rejected("truncation to " + std::to_string(len)))
          << "truncation to " << len << " of " << raw.size() << " bytes was accepted";
    }
  }

  static void expect_bit_flips_rejected(const std::string& raw, std::uint64_t seed) {
    sim::Xoshiro256 rng{seed};
    for (int trial = 0; trial < 1000; ++trial) {
      std::string bad = raw;
      const std::size_t at = static_cast<std::size_t>(rng.below(raw.size()));
      bad[at] = static_cast<char>(bad[at] ^ (1U << rng.below(8)));
      write_bytes(path(), bad);
      ASSERT_TRUE(rejected("bit flip at " + std::to_string(at)))
          << "bit flip at byte " << at << " was accepted";
    }
  }

  static void mutate_manifest(const std::string& raw, std::uint64_t seed) {
    sim::Xoshiro256 rng{seed};
    // Container header: magic, version, manifest length, then the manifest.
    const std::size_t manifest_at = 16;
    std::uint64_t manifest_len = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      manifest_len |= std::uint64_t{static_cast<unsigned char>(raw[8 + i])} << (8 * i);
    }
    for (int trial = 0; trial < 500; ++trial) {
      std::string bad = raw;
      const std::size_t at = manifest_at + static_cast<std::size_t>(rng.below(manifest_len));
      bad[at] = static_cast<char>(rng.below(256));
      write_bytes(path(), with_file_crc(bad));
      (void)rejected("manifest byte " + std::to_string(at));
    }
  }

  static void mutate_payload(const std::string& source, std::uint64_t seed) {
    write_bytes(path(), source);
    const ck::CheckpointFile file = ck::read_checkpoint_file(path());
    sim::Xoshiro256 rng{seed};
    for (int trial = 0; trial < 1000; ++trial) {
      std::string payload = file.payload;
      if (trial % 4 == 3) {
        payload.resize(static_cast<std::size_t>(rng.below(payload.size())));
      } else {
        for (int flips = 1 + trial % 3; flips > 0; --flips) {
          const std::size_t at = static_cast<std::size_t>(rng.below(payload.size()));
          payload[at] = static_cast<char>(rng.below(256));
        }
      }
      ck::write_checkpoint_file(path(), file.manifest, payload);
      (void)rejected("payload mutation " + std::to_string(trial));
    }
  }

  static std::string dir_;
  static std::vector<ExperimentConfig> configs_;
  static std::string campaign_;
  static std::string run_;
};

std::string ReaderFuzz::dir_;
std::vector<ExperimentConfig> ReaderFuzz::configs_;
std::string ReaderFuzz::campaign_;
std::string ReaderFuzz::run_;

TEST_F(ReaderFuzz, SourceFilesAreACampaignAndARunCheckpoint) {
  write_bytes(path(), campaign_);
  EXPECT_EQ(ck::read_checkpoint_file(path()).manifest.kind, "campaign");
  EXPECT_FALSE(rejected("campaign file"));
  write_bytes(path(), run_);
  EXPECT_EQ(ck::read_checkpoint_file(path()).manifest.kind, "run");
  EXPECT_FALSE(rejected("run file"));
}

TEST_F(ReaderFuzz, CampaignTruncatedAtEveryLengthIsRejected) {
  expect_truncations_rejected(campaign_);
}

TEST_F(ReaderFuzz, RunTruncatedAtEveryLengthIsRejected) { expect_truncations_rejected(run_); }

TEST_F(ReaderFuzz, CampaignBitFlipsAreRejected) { expect_bit_flips_rejected(campaign_, 11); }

TEST_F(ReaderFuzz, RunBitFlipsAreRejected) { expect_bit_flips_rejected(run_, 12); }

TEST_F(ReaderFuzz, ManifestMutationsThrowOnlyCheckpointErrors) {
  mutate_manifest(campaign_, 13);
  mutate_manifest(run_, 14);
}

TEST_F(ReaderFuzz, PayloadMutationsThrowOnlyCheckpointErrors) {
  mutate_payload(campaign_, 15);
  mutate_payload(run_, 16);
}

}  // namespace
}  // namespace greencap::core
