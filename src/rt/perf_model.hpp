// Performance models (StarPU's history- and regression-based models).
//
// The history model keeps per-(codelet, worker, precision, size) execution
// statistics; the regression model fits time = a * flops per
// (codelet, worker, precision) for sizes never observed. Models are keyed
// per *worker* rather than per architecture because power capping makes
// identical boards perform differently — this is precisely the mechanism
// the paper relies on: "the performance models are calibrated following
// each modification to the power capping settings. Thus, the scheduler is
// implicitly informed of the changes."
//
// Layout: codelet names are interned once to dense ids (the runtime
// caches the id on each Task, Calibrator::calibrate on its set), and every
// (codelet id, worker, precision) owns one slot of a flat array. A slot
// holds the regression accumulators and the head of a short chain of
// per-size statistics in a shared pool, so the scheduler's expected() and
// finish_task's record() are an index computation plus a scan of one or
// two size keys. Everything but the name table is trivially copyable,
// which makes import_model() — the calibration cache's hit path — a single
// bulk copy. The string API wraps the id path for tests and checkpoint
// import; export_history()/export_regression() sort into (name, worker,
// precision, size) order, the order the checkpoint format has always used.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "hw/kernel_work.hpp"
#include "rt/types.hpp"
#include "sim/time.hpp"

namespace greencap::rt {

struct PerfStats {
  std::uint64_t samples = 0;
  double mean_s = 0.0;
  double m2 = 0.0;  ///< Welford accumulator for the variance

  void record(double seconds);
  [[nodiscard]] double variance() const;
};

class HistoryPerfModel {
 public:
  /// Largest worker id + 1 the model accepts; a larger id (a corrupted
  /// checkpoint entry, say) throws std::out_of_range instead of sizing the
  /// slot array after it.
  static constexpr WorkerId kMaxWorkers = 1 << 16;

  /// Dense id of `codelet`, assigned on first use. Ids survive
  /// invalidate()/import_state(), so ids cached on tasks stay valid.
  [[nodiscard]] CodeletId intern(const std::string& codelet);

  /// Sizes the slot rows for workers [0, workers) up front, so a runtime's
  /// first calibration does not regrow them worker by worker.
  void reserve_workers(std::size_t workers);

  // -- id path (scheduler and runtime hot path) ----------------------------

  /// Records an observed execution time.
  void record(CodeletId codelet, WorkerId worker, const hw::KernelWork& work,
              sim::SimTime duration);

  /// Expected execution time, or nullopt when the model has no information
  /// for this (codelet, worker, size) and no regression fallback yet.
  [[nodiscard]] std::optional<sim::SimTime> expected(CodeletId codelet, WorkerId worker,
                                                     const hw::KernelWork& work) const;

  /// True when an exact-size history entry exists.
  [[nodiscard]] bool calibrated(CodeletId codelet, WorkerId worker,
                                const hw::KernelWork& work) const;

  // -- by-name wrappers -----------------------------------------------------

  void record(const std::string& codelet, WorkerId worker, const hw::KernelWork& work,
              sim::SimTime duration) {
    record(intern(codelet), worker, work, duration);
  }
  [[nodiscard]] std::optional<sim::SimTime> expected(const std::string& codelet, WorkerId worker,
                                                     const hw::KernelWork& work) const;
  [[nodiscard]] bool calibrated(const std::string& codelet, WorkerId worker,
                                const hw::KernelWork& work) const;

  /// Forgets everything — the paper's protocol invalidates the models after
  /// every power-cap change, then recalibrates.
  void invalidate();

  /// Forgets one worker's history and regression state. Used when a worker
  /// is quarantined (its samples describe a device that no longer exists)
  /// or its device's effective cap changed behind the scheduler's back
  /// (stale samples would mislead dm-family placement until they wash out).
  void invalidate_worker(WorkerId worker);

  /// Number of distinct (codelet, worker, precision, size) history keys.
  [[nodiscard]] std::size_t entry_count() const { return entry_count_; }

  /// True when the model holds no statistics (interned names may exist).
  [[nodiscard]] bool empty() const { return entry_count_ == 0 && regression_count_ == 0; }

  /// Makes this model's statistics a copy of `source`'s. This model must be
  /// empty() (std::logic_error otherwise). When this model's names are a
  /// prefix of `source`'s — always so for a fresh runtime — the flat state
  /// is copied in bulk; otherwise entries are re-keyed by name.
  void import_model(const HistoryPerfModel& source);

  // -- checkpoint support -------------------------------------------------
  // Both tables flattened to plain tuples, in (name, worker, precision,
  // size) order.

  struct HistoryEntry {
    std::string codelet;
    WorkerId worker = 0;
    std::uint8_t precision = 0;
    std::int64_t size_key = 0;
    std::uint64_t samples = 0;
    double mean_s = 0.0;
    double m2 = 0.0;
  };
  struct RegressionEntry {
    std::string codelet;
    WorkerId worker = 0;
    std::uint8_t precision = 0;
    double sum_xt = 0.0;
    double sum_xx = 0.0;
    std::uint64_t samples = 0;
  };

  [[nodiscard]] std::vector<HistoryEntry> export_history() const;
  [[nodiscard]] std::vector<RegressionEntry> export_regression() const;
  /// Replaces the model statistics wholesale (worker invalidation, model
  /// import across interned-id tables). A worker
  /// outside [0, kMaxWorkers) or a precision other than single/double
  /// throws; a repeated key keeps its last entry.
  void import_state(const std::vector<HistoryEntry>& history,
                    const std::vector<RegressionEntry>& regression);

 private:
  static constexpr std::size_t kPrecisions = 2;  ///< hw::Precision values

  struct Regression {
    double sum_xt = 0.0;  ///< sum(flops * time)
    double sum_xx = 0.0;  ///< sum(flops^2)
    std::uint64_t samples = 0;
    [[nodiscard]] double slope() const { return sum_xx > 0 ? sum_xt / sum_xx : 0.0; }
  };
  /// One (codelet, worker, precision).
  struct Slot {
    std::int32_t head = -1;     ///< first SizeStats in pool_, -1 = none
    bool has_regression = false;
    Regression regression;
  };
  /// One history key's statistics, chained per slot.
  struct SizeStats {
    std::int64_t size_key = 0;
    PerfStats stats;
    std::int32_t next = -1;  ///< next SizeStats of the same slot, -1 = end
  };

  [[nodiscard]] std::optional<CodeletId> find(const std::string& codelet) const;
  /// The slot of (codelet, worker, precision), or null if never written.
  [[nodiscard]] const Slot* find_slot(CodeletId codelet, WorkerId worker,
                                      std::size_t precision) const;
  /// The slot, growing the rows/stride to hold it.
  [[nodiscard]] Slot& slot(CodeletId codelet, WorkerId worker, std::size_t precision);
  /// Pool index of `slot`'s entry for `size_key`, -1 if none.
  [[nodiscard]] std::int32_t find_size(const Slot& slot, std::int64_t size_key) const;
  /// The statistics of `slot`'s entry for `size_key`, created if missing.
  [[nodiscard]] PerfStats& size_stats(Slot& slot, std::int64_t size_key);
  void set_stride(std::size_t stride);
  /// Calls visit(name, worker, precision, slot) over every allocated slot
  /// in (name, worker, precision) order — the export order.
  template <typename Visit>
  void for_each_slot_by_name(const Visit& visit) const;

  std::vector<std::string> names_;  ///< CodeletId -> name
  std::size_t stride_ = 0;          ///< workers per codelet row
  /// [(codelet * stride_ + worker) * kPrecisions + precision]
  std::vector<Slot> slots_;
  std::vector<SizeStats> pool_;
  std::size_t entry_count_ = 0;
  std::size_t regression_count_ = 0;
};

}  // namespace greencap::rt
