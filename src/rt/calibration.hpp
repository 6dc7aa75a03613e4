// Performance-model calibration (StarPU's calibration runs).
//
// StarPU populates its history models with a few timed executions of each
// kernel on each processing unit; the paper reruns this calibration after
// every power-cap change so that "the scheduler is implicitly informed of
// the changes". The Calibrator reproduces that protocol: it samples the
// device-model oracle for every registered (codelet, size) on every
// eligible worker and records the measurements into the runtime's history
// model. recalibrate_all() re-runs the whole campaign — call it right
// after PowerManager applies a new configuration.
//
// Record/replay: the history model's state is purely a function of the
// ordered record() calls it receives, and calibration never advances the
// virtual clock. A CalibrationRecord therefore keeps the finished model a
// calibration campaign produced; importing it into the empty model of a
// fresh runtime on the same platform under the same caps gives
// bit-identical model state without re-measuring. The campaign engine's
// warmup cache relies on this to share calibration across runs, and a
// cache hit costs one bulk copy of the flat model (HistoryPerfModel::
// import_model).
#pragma once

#include <vector>

#include "hw/kernel_work.hpp"
#include "rt/codelet.hpp"
#include "rt/perf_model.hpp"
#include "rt/runtime.hpp"

namespace greencap::rt {

/// The history model a calibration campaign left behind. Immutable once
/// built; safe to share across threads.
struct CalibrationRecord {
  HistoryPerfModel model;
};

/// Copies the recorded model into `runtime`'s history model, which must be
/// empty (std::logic_error otherwise). The target runtime should run on the
/// platform the record was measured on.
void replay_calibration(Runtime& runtime, const CalibrationRecord& record);

class Calibrator {
 public:
  explicit Calibrator(Runtime& runtime) : runtime_{runtime} {}

  /// Registers a calibration set and measures it immediately.
  void calibrate(const Codelet& codelet, const std::vector<hw::KernelWork>& works,
                 int samples_per_point = 3);

  /// Invalidates the history model and re-measures every registered set —
  /// the paper's "recalibrate after each power-cap modification" step.
  void recalibrate_all();

  [[nodiscard]] std::size_t registered_sets() const { return sets_.size(); }

  /// Attaches `record` (not owned) to receive the calibration's model:
  /// detaching it — set_record_sink(nullptr), or attaching another — copies
  /// the runtime's history model into it. Attach to a model that holds no
  /// statistics (std::logic_error otherwise), so the record holds exactly
  /// what the measurements made in between produced.
  void set_record_sink(CalibrationRecord* record);

 private:
  struct Set {
    const Codelet* codelet;
    CodeletId id;  ///< the codelet's id in the runtime's perf model
    std::vector<hw::KernelWork> works;
    int samples;
  };
  void measure(const Set& set);

  Runtime& runtime_;
  std::vector<Set> sets_;
  CalibrationRecord* record_ = nullptr;
};

}  // namespace greencap::rt
