// Campaign-level checkpoint/restart session (docs/CHECKPOINTING.md).
//
// A CheckpointSession gives a whole campaign crash consistency. The
// campaign engine owns it whenever EngineOptions::checkpoint is active
// (core/engine.hpp); drivers never touch it directly:
//
//  * after every completed experiment it appends the result to its
//    completed list and writes a *boundary* checkpoint — kill the process
//    between experiments and a resume replays the finished ones instead
//    of re-running them, byte-identically;
//
//  * during an experiment (when --checkpoint-every-ms / --watchdog-ms are
//    set) run_experiment() calls back into on_run_state() with a full
//    ckpt_io::RunState, producing a *run* checkpoint. A resume from it
//    replays the completed prefix and re-runs the in-flight experiment
//    from its start (rework is at most one run); the saved state is the
//    determinism witness the re-run must reproduce byte for byte at the
//    same virtual instant;
//
//  * a SIGINT/SIGTERM latch is honoured between experiments (and at the
//    next periodic tick inside one): a final "signal" checkpoint is
//    written and InterruptedError unwinds through the engine to the
//    driver, which exits with ckpt::kInterruptExitCode.
//
// Campaign identity: every experiment's config is stored by its canonical
// binary encoding. On resume each replayed config must match the config
// the driver derives from its own flags, byte for byte — a checkpoint can
// never silently continue a different campaign.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/file.hpp"
#include "core/checkpoint_io.hpp"
#include "core/experiment.hpp"

namespace greencap::core {

struct CheckpointOptions {
  /// Checkpoint file to write (--checkpoint). Empty disables all writes.
  std::string path;
  /// Checkpoint file to resume from (--resume). Empty = fresh start.
  std::string resume_path;
  /// Mid-run periodic checkpoint interval in virtual ms (0 = boundaries only).
  double every_ms = 0.0;
  /// Hang-watchdog window in virtual ms (0 = no watchdog).
  double watchdog_ms = 0.0;
  /// Test hook (--ckpt-kill-after): _Exit(137) right after the Nth
  /// checkpoint file write completes. 0 = never.
  int kill_after = 0;

  /// Whether any checkpoint/restart behaviour is requested.
  [[nodiscard]] bool active() const {
    return !path.empty() || !resume_path.empty() || every_ms > 0.0 || watchdog_ms > 0.0;
  }
};

class CheckpointSession {
 public:
  /// Loads `options.resume_path` if set; throws ckpt::CheckpointError on
  /// a missing/corrupt/truncated file.
  explicit CheckpointSession(CheckpointOptions options);

  [[nodiscard]] const CheckpointOptions& options() const { return options_; }
  [[nodiscard]] bool writes_enabled() const { return !options_.path.empty(); }

  /// True while completed experiments from the resume file remain unreplayed.
  [[nodiscard]] bool next_is_replay() const { return cursor_ < completed_.size(); }

  /// If the next campaign position is a replay, verifies `config` matches
  /// the checkpointed config byte-for-byte and returns the stored result;
  /// std::nullopt once the replay prefix is exhausted. Also honours the
  /// interrupt latch.
  [[nodiscard]] std::optional<ExperimentResult> try_replay(const ExperimentConfig& config);

  /// Appends a freshly executed result and writes the boundary checkpoint.
  /// The result's artifacts must be exported BEFORE commit() (the engine
  /// commits after its on_result hook): once the boundary write lands, a
  /// resume will not re-export them. Throws ckpt::CheckpointError if the
  /// resume file's witness is still unchecked: the re-run never reproduced
  /// the checkpointed state.
  void commit(const ExperimentConfig& config, const ExperimentResult& result);

  /// Between-experiment interrupt point: if SIGINT/SIGTERM was latched,
  /// writes a "signal" campaign checkpoint and throws ckpt::InterruptedError.
  void check_interrupt();

  /// Called by run_experiment() before every fresh run. While the resume
  /// file's mid-run witness is unchecked, the run must be its experiment
  /// and must take mid-run captures; throws ckpt::CheckpointError
  /// otherwise.
  void begin_run(const ExperimentConfig& config);

  /// Whether mid-run captures have a consumer: file writes, or a pending
  /// witness.
  [[nodiscard]] bool captures_run_state() const {
    return writes_enabled() || witness_.has_value();
  }

  /// Mid-run capture point (periodic tick / watchdog / signal), called
  /// from inside run_experiment() with the captured state. Checks the
  /// pending witness at its virtual instant, then writes a "run"
  /// checkpoint if writes are enabled. Throws ckpt::CheckpointError once
  /// the re-run passes the witness instant without reproducing it.
  void on_run_state(const char* reason, const ExperimentConfig& config,
                    const ckpt_io::RunState& state);

  /// Checkpoint file writes performed so far (boundary + mid-run).
  [[nodiscard]] int writes() const { return writes_; }

 private:
  struct CompletedBlob {
    std::string config_bytes;
    std::string result_bytes;
    bool had_obs = false;
  };

  /// The resume file's in-flight run, kept as opaque bytes.
  struct Witness {
    std::string config_bytes;
    std::string state_bytes;  ///< encoded RunState at t_virtual_s
    double t_virtual_s = 0.0;
    bool mismatched = false;  ///< a capture at t_virtual_s had other bytes
  };

  void load_resume_file();
  [[nodiscard]] ckpt::CheckpointError witness_error() const;
  void write_campaign(const char* reason);
  void write_file(ckpt::Manifest manifest, const std::string& payload);
  void append_campaign_section(ckpt::Writer& w) const;
  [[nodiscard]] std::uint64_t signature() const;

  CheckpointOptions options_;
  std::vector<CompletedBlob> completed_;
  std::size_t cursor_ = 0;
  std::optional<Witness> witness_;
  int writes_ = 0;
};

/// run_experiment() with checkpoint support: arms the periodic ticker and
/// hang watchdog when the session enables them, and reports every mid-run
/// capture to the session. `session == nullptr` is exactly the plain
/// run_experiment().
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& config,
                                              CheckpointSession* session);

/// Same, with injected run-scoped services (the campaign engine's cache).
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& config,
                                              CheckpointSession* session,
                                              const RunServices& services);

}  // namespace greencap::core
