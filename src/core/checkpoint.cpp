#include "core/checkpoint.hpp"

#include <charconv>
#include <cstdlib>
#include <utility>

#include "ckpt/serial.hpp"
#include "ckpt/signal.hpp"

namespace greencap::core {

namespace ck = greencap::ckpt;

CheckpointSession::CheckpointSession(CheckpointOptions options)
    : options_{std::move(options)} {
  if (!options_.resume_path.empty()) {
    load_resume_file();
  }
}

void CheckpointSession::load_resume_file() {
  const ck::CheckpointFile file = ck::read_checkpoint_file(options_.resume_path);
  ck::Reader r{file.payload};
  r.expect_section("CAMP");
  const std::size_t count = r.length(8 + 8 + 1);
  completed_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    CompletedBlob blob;
    blob.config_bytes = r.str();
    blob.result_bytes = r.str();
    blob.had_obs = r.boolean();
    completed_.push_back(std::move(blob));
  }
  if (r.boolean()) {
    Witness witness;
    witness.config_bytes = r.str();
    witness.state_bytes = r.str();
    witness.t_virtual_s = file.manifest.t_virtual_s;
    witness_ = std::move(witness);
  }
  if (!r.at_end()) {
    throw ck::CheckpointError{"checkpoint payload has " + std::to_string(r.remaining()) +
                              " trailing bytes after the campaign section"};
  }
  if (file.manifest.completed != completed_.size()) {
    throw ck::CheckpointError{
        "checkpoint manifest claims " + std::to_string(file.manifest.completed) +
        " completed experiments but the payload holds " + std::to_string(completed_.size())};
  }
}

std::optional<ExperimentResult> CheckpointSession::try_replay(const ExperimentConfig& config) {
  check_interrupt();
  if (cursor_ >= completed_.size()) {
    return std::nullopt;
  }
  const CompletedBlob& blob = completed_[cursor_];
  if (ckpt_io::config_bytes(config) != blob.config_bytes) {
    throw ck::CheckpointError{
        "resume mismatch at experiment #" + std::to_string(cursor_) + ": '" +
        config.describe() +
        "' differs from the checkpointed campaign — resume with the identical command line"};
  }
  ck::Reader r{blob.result_bytes};
  ckpt_io::DecodedResult decoded = ckpt_io::decode_result(r);
  ++cursor_;
  return std::move(decoded.result);
}

void CheckpointSession::commit(const ExperimentConfig& config, const ExperimentResult& result) {
  if (witness_) {
    throw witness_error();
  }
  CompletedBlob blob;
  blob.config_bytes = ckpt_io::config_bytes(config);
  ck::Writer w;
  ckpt_io::encode_result(w, result);
  blob.result_bytes = w.take();
  blob.had_obs = result.observability != nullptr;
  completed_.push_back(std::move(blob));
  cursor_ = completed_.size();
  if (writes_enabled()) {
    write_campaign("boundary");
  }
}

void CheckpointSession::check_interrupt() {
  if (!ck::interrupted()) {
    return;
  }
  if (writes_enabled()) {
    write_campaign("signal");
  }
  throw ck::InterruptedError{
      "interrupted (SIGINT/SIGTERM): campaign checkpoint written at the experiment boundary"};
}

void CheckpointSession::begin_run(const ExperimentConfig& config) {
  if (!witness_) {
    return;
  }
  if (ckpt_io::config_bytes(config) != witness_->config_bytes) {
    throw ck::CheckpointError{
        "resume mismatch: the checkpoint's mid-run state belongs to a different experiment "
        "than '" +
        config.describe() + "' — resume with the identical command line"};
  }
  if (options_.every_ms <= 0.0 && options_.watchdog_ms <= 0.0) {
    throw witness_error();
  }
}

void CheckpointSession::on_run_state(const char* reason, const ExperimentConfig& config,
                                     const ckpt_io::RunState& state) {
  ck::Writer rs;
  ckpt_io::encode_run_state(rs, state);
  std::string state_bytes = rs.take();
  if (witness_ && state.t_virtual_s >= witness_->t_virtual_s) {
    // Several captures can share one instant (a tick and a watchdog probe),
    // so a mismatch there is final only once the clock moves past it.
    if (state.t_virtual_s > witness_->t_virtual_s) {
      throw witness_error();
    }
    if (state_bytes == witness_->state_bytes) {
      witness_.reset();
    } else {
      witness_->mismatched = true;
    }
  }
  if (!writes_enabled()) {
    return;
  }
  ck::Writer w;
  append_campaign_section(w);
  w.boolean(true);
  w.str(ckpt_io::config_bytes(config));
  w.str(state_bytes);

  ck::Manifest manifest;
  manifest.kind = "run";
  manifest.reason = reason;
  manifest.signature = signature();
  manifest.completed = completed_.size();
  manifest.t_virtual_s = state.t_virtual_s;
  write_file(std::move(manifest), w.take());
}

ck::CheckpointError CheckpointSession::witness_error() const {
  char t[32];
  const auto end = std::to_chars(t, t + sizeof t, witness_->t_virtual_s).ptr;
  const std::string at = "t=" + std::string{t, end} + " s";
  if (witness_->mismatched) {
    return ck::CheckpointError{
        "resume witness mismatch: the re-run's state at " + at +
        " differs from the checkpointed state — the run is not deterministic, or the binary "
        "changed since the checkpoint was written"};
  }
  return ck::CheckpointError{
      "resume witness unchecked: the re-run took no mid-run capture at the checkpointed " + at +
      " — resume with the same --checkpoint-every-ms and --watchdog-ms as the checkpointed run"};
}

void CheckpointSession::write_campaign(const char* reason) {
  ck::Writer w;
  append_campaign_section(w);
  w.boolean(false);

  ck::Manifest manifest;
  manifest.kind = "campaign";
  manifest.reason = reason;
  manifest.signature = signature();
  manifest.completed = completed_.size();
  write_file(std::move(manifest), w.take());
}

void CheckpointSession::append_campaign_section(ck::Writer& w) const {
  w.section("CAMP");
  w.u64(completed_.size());
  for (const CompletedBlob& blob : completed_) {
    w.str(blob.config_bytes);
    w.str(blob.result_bytes);
    w.boolean(blob.had_obs);
  }
}

void CheckpointSession::write_file(ck::Manifest manifest, const std::string& payload) {
  ck::write_checkpoint_file(options_.path, std::move(manifest), payload);
  ++writes_;
  if (options_.kill_after > 0 && writes_ >= options_.kill_after) {
    // Chaos hook: simulate a hard kill the instant the rename landed.
    // _Exit skips destructors and atexit handlers, like SIGKILL would.
    std::_Exit(137);
  }
}

std::uint64_t CheckpointSession::signature() const {
  // FNV-1a over every completed config encoding.
  std::uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](const std::string& bytes) {
    for (const char c : bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
  };
  for (const CompletedBlob& blob : completed_) {
    mix(blob.config_bytes);
  }
  return h;
}

}  // namespace greencap::core
