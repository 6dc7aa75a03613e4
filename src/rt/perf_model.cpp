#include "rt/perf_model.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <stdexcept>

namespace greencap::rt {

namespace {

[[nodiscard]] std::size_t precision_index(const hw::KernelWork& work) {
  return static_cast<std::size_t>(work.precision);
}

[[nodiscard]] std::int64_t size_key(const hw::KernelWork& work) {
  return static_cast<std::int64_t>(work.work_dim);
}

}  // namespace

void PerfStats::record(double seconds) {
  ++samples;
  const double delta = seconds - mean_s;
  mean_s += delta / static_cast<double>(samples);
  m2 += delta * (seconds - mean_s);
}

double PerfStats::variance() const {
  return samples > 1 ? m2 / static_cast<double>(samples - 1) : 0.0;
}

CodeletId HistoryPerfModel::intern(const std::string& codelet) {
  if (const auto id = find(codelet)) {
    return *id;
  }
  names_.push_back(codelet);
  return static_cast<CodeletId>(names_.size() - 1);
}

std::optional<CodeletId> HistoryPerfModel::find(const std::string& codelet) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == codelet) {
      return static_cast<CodeletId>(i);
    }
  }
  return std::nullopt;
}

void HistoryPerfModel::reserve_workers(std::size_t workers) {
  if (workers > static_cast<std::size_t>(kMaxWorkers)) {
    throw std::out_of_range("HistoryPerfModel: " + std::to_string(workers) + " workers");
  }
  if (workers > stride_) {
    set_stride(workers);
  }
}

void HistoryPerfModel::set_stride(std::size_t stride) {
  const std::size_t rows = stride_ == 0 ? 0 : slots_.size() / (stride_ * kPrecisions);
  std::vector<Slot> grown(rows * stride * kPrecisions);
  for (std::size_t r = 0; r < rows; ++r) {
    std::copy_n(slots_.begin() + static_cast<std::ptrdiff_t>(r * stride_ * kPrecisions),
                stride_ * kPrecisions,
                grown.begin() + static_cast<std::ptrdiff_t>(r * stride * kPrecisions));
  }
  slots_.swap(grown);
  stride_ = stride;
}

const HistoryPerfModel::Slot* HistoryPerfModel::find_slot(CodeletId codelet, WorkerId worker,
                                                          std::size_t precision) const {
  if (worker < 0 || static_cast<std::size_t>(worker) >= stride_) {
    return nullptr;
  }
  const std::size_t i =
      (codelet * stride_ + static_cast<std::size_t>(worker)) * kPrecisions + precision;
  return i < slots_.size() ? &slots_[i] : nullptr;
}

HistoryPerfModel::Slot& HistoryPerfModel::slot(CodeletId codelet, WorkerId worker,
                                               std::size_t precision) {
  if (codelet >= names_.size()) {
    throw std::out_of_range("HistoryPerfModel: unknown codelet id " + std::to_string(codelet));
  }
  if (worker < 0 || worker >= kMaxWorkers) {
    throw std::out_of_range("HistoryPerfModel: worker id " + std::to_string(worker) +
                            " out of range");
  }
  const auto w = static_cast<std::size_t>(worker);
  if (w >= stride_) {
    set_stride(w + 1);
  }
  const std::size_t row_end = (codelet + 1) * stride_ * kPrecisions;
  if (slots_.size() < row_end) {
    slots_.resize(row_end);
  }
  return slots_[(codelet * stride_ + w) * kPrecisions + precision];
}

std::int32_t HistoryPerfModel::find_size(const Slot& slot, std::int64_t key) const {
  std::int32_t i = slot.head;
  while (i >= 0 && pool_[static_cast<std::size_t>(i)].size_key != key) {
    i = pool_[static_cast<std::size_t>(i)].next;
  }
  return i;
}

PerfStats& HistoryPerfModel::size_stats(Slot& slot, std::int64_t key) {
  std::int32_t i = find_size(slot, key);
  if (i < 0) {
    pool_.push_back(SizeStats{key, PerfStats{}, slot.head});
    i = static_cast<std::int32_t>(pool_.size() - 1);
    slot.head = i;
    ++entry_count_;
  }
  return pool_[static_cast<std::size_t>(i)].stats;
}

void HistoryPerfModel::record(CodeletId codelet, WorkerId worker, const hw::KernelWork& work,
                              sim::SimTime duration) {
  Slot& s = slot(codelet, worker, precision_index(work));
  size_stats(s, size_key(work)).record(duration.sec());
  if (!s.has_regression) {
    s.has_regression = true;
    ++regression_count_;
  }
  s.regression.sum_xt += work.flops * duration.sec();
  s.regression.sum_xx += work.flops * work.flops;
  ++s.regression.samples;
}

std::optional<sim::SimTime> HistoryPerfModel::expected(CodeletId codelet, WorkerId worker,
                                                       const hw::KernelWork& work) const {
  const Slot* s = find_slot(codelet, worker, precision_index(work));
  if (s == nullptr) {
    return std::nullopt;
  }
  if (const std::int32_t i = find_size(*s, size_key(work)); i >= 0) {
    return sim::SimTime::seconds(pool_[static_cast<std::size_t>(i)].stats.mean_s);
  }
  if (s->has_regression && s->regression.samples > 0) {
    return sim::SimTime::seconds(s->regression.slope() * work.flops);
  }
  return std::nullopt;
}

bool HistoryPerfModel::calibrated(CodeletId codelet, WorkerId worker,
                                  const hw::KernelWork& work) const {
  const Slot* s = find_slot(codelet, worker, precision_index(work));
  return s != nullptr && find_size(*s, size_key(work)) >= 0;
}

std::optional<sim::SimTime> HistoryPerfModel::expected(const std::string& codelet,
                                                       WorkerId worker,
                                                       const hw::KernelWork& work) const {
  const auto id = find(codelet);
  return id ? expected(*id, worker, work) : std::nullopt;
}

bool HistoryPerfModel::calibrated(const std::string& codelet, WorkerId worker,
                                  const hw::KernelWork& work) const {
  const auto id = find(codelet);
  return id && calibrated(*id, worker, work);
}

void HistoryPerfModel::invalidate() {
  std::fill(slots_.begin(), slots_.end(), Slot{});
  pool_.clear();
  entry_count_ = 0;
  regression_count_ = 0;
}

void HistoryPerfModel::invalidate_worker(WorkerId worker) {
  // Rare (quarantine, cap drift): rebuild from the other workers' entries,
  // which also drops the pool entries the worker's slots chained.
  std::vector<HistoryEntry> history = export_history();
  std::vector<RegressionEntry> regression = export_regression();
  std::erase_if(history, [worker](const HistoryEntry& e) { return e.worker == worker; });
  std::erase_if(regression, [worker](const RegressionEntry& e) { return e.worker == worker; });
  import_state(history, regression);
}

void HistoryPerfModel::import_model(const HistoryPerfModel& source) {
  if (!empty()) {
    throw std::logic_error("HistoryPerfModel::import_model: target model is not empty");
  }
  if (&source == this) {
    return;
  }
  const bool same_ids = names_.size() <= source.names_.size() &&
                        std::equal(names_.begin(), names_.end(), source.names_.begin());
  if (!same_ids) {
    import_state(source.export_history(), source.export_regression());
    return;
  }
  names_ = source.names_;
  stride_ = source.stride_;
  slots_ = source.slots_;
  pool_ = source.pool_;
  entry_count_ = source.entry_count_;
  regression_count_ = source.regression_count_;
}

template <typename Visit>
void HistoryPerfModel::for_each_slot_by_name(const Visit& visit) const {
  std::vector<CodeletId> by_name(names_.size());
  std::iota(by_name.begin(), by_name.end(), CodeletId{0});
  std::sort(by_name.begin(), by_name.end(),
            [this](CodeletId a, CodeletId b) { return names_[a] < names_[b]; });
  const std::size_t rows = stride_ == 0 ? 0 : slots_.size() / (stride_ * kPrecisions);
  for (const CodeletId c : by_name) {
    if (c >= rows) {
      continue;  // interned, never recorded
    }
    for (std::size_t w = 0; w < stride_; ++w) {
      for (std::size_t p = 0; p < kPrecisions; ++p) {
        visit(names_[c], static_cast<WorkerId>(w), static_cast<std::uint8_t>(p),
              slots_[(c * stride_ + w) * kPrecisions + p]);
      }
    }
  }
}

std::vector<HistoryPerfModel::HistoryEntry> HistoryPerfModel::export_history() const {
  std::vector<HistoryEntry> out;
  out.reserve(entry_count_);
  for_each_slot_by_name([&](const std::string& name, WorkerId w, std::uint8_t p, const Slot& s) {
    const std::size_t first = out.size();
    for (std::int32_t i = s.head; i >= 0; i = pool_[static_cast<std::size_t>(i)].next) {
      const SizeStats& e = pool_[static_cast<std::size_t>(i)];
      out.push_back({name, w, p, e.size_key, e.stats.samples, e.stats.mean_s, e.stats.m2});
    }
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
              [](const HistoryEntry& a, const HistoryEntry& b) { return a.size_key < b.size_key; });
  });
  return out;
}

std::vector<HistoryPerfModel::RegressionEntry> HistoryPerfModel::export_regression() const {
  std::vector<RegressionEntry> out;
  out.reserve(regression_count_);
  for_each_slot_by_name([&](const std::string& name, WorkerId w, std::uint8_t p, const Slot& s) {
    if (s.has_regression) {
      out.push_back(
          {name, w, p, s.regression.sum_xt, s.regression.sum_xx, s.regression.samples});
    }
  });
  return out;
}

void HistoryPerfModel::import_state(const std::vector<HistoryEntry>& history,
                                    const std::vector<RegressionEntry>& regression) {
  const auto check = [](WorkerId worker, std::uint8_t precision) {
    if (worker < 0 || worker >= kMaxWorkers) {
      throw std::out_of_range("HistoryPerfModel::import_state: worker id " +
                              std::to_string(worker) + " out of range");
    }
    if (precision >= kPrecisions) {
      throw std::out_of_range("HistoryPerfModel::import_state: precision " +
                              std::to_string(precision) + " out of range");
    }
  };
  for (const HistoryEntry& e : history) check(e.worker, e.precision);
  for (const RegressionEntry& e : regression) check(e.worker, e.precision);

  invalidate();
  for (const HistoryEntry& e : history) {
    Slot& s = slot(intern(e.codelet), e.worker, e.precision);
    size_stats(s, e.size_key) = PerfStats{e.samples, e.mean_s, e.m2};
  }
  for (const RegressionEntry& e : regression) {
    Slot& s = slot(intern(e.codelet), e.worker, e.precision);
    if (!s.has_regression) {
      s.has_regression = true;
      ++regression_count_;
    }
    s.regression = Regression{e.sum_xt, e.sum_xx, e.samples};
  }
}

}  // namespace greencap::rt
