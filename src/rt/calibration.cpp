#include "rt/calibration.hpp"

#include <stdexcept>

namespace greencap::rt {

void replay_calibration(Runtime& runtime, const CalibrationRecord& record) {
  runtime.perf_model().import_model(record.model);
}

void Calibrator::set_record_sink(CalibrationRecord* record) {
  if (record_ != nullptr) {
    record_->model = runtime_.perf_model();
  }
  if (record != nullptr && !runtime_.perf_model().empty()) {
    throw std::logic_error("Calibrator::set_record_sink: the history model is not empty");
  }
  record_ = record;
}

void Calibrator::calibrate(const Codelet& codelet, const std::vector<hw::KernelWork>& works,
                           int samples_per_point) {
  sets_.push_back(Set{&codelet, runtime_.perf_model().intern(codelet.name), works,
                      samples_per_point});
  measure(sets_.back());
}

void Calibrator::measure(const Set& set) {
  HistoryPerfModel& model = runtime_.perf_model();
  for (std::size_t wi = 0; wi < runtime_.worker_count(); ++wi) {
    const Worker& worker = runtime_.worker(wi);
    if (!set.codelet->where.can_run_on(worker.arch())) {
      continue;
    }
    for (const hw::KernelWork& work : set.works) {
      const sim::SimTime t = runtime_.oracle_exec_time(*set.codelet, work, worker);
      for (int s = 0; s < set.samples; ++s) {
        model.record(set.id, worker.id(), work, t);
      }
    }
  }
}

void Calibrator::recalibrate_all() {
  runtime_.perf_model().invalidate();
  for (const Set& set : sets_) {
    measure(set);
  }
}

}  // namespace greencap::rt
