#include "gate.hpp"

#include <cmath>
#include <cstring>

#include "ckpt/serial.hpp"
#include "core/checkpoint_io.hpp"

namespace perfbench {

namespace ckpt_io = greencap::core::ckpt_io;

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h = (h ^ p[i]) * kFnvPrime;
  }
  return h;
}

std::uint64_t fold_u64(std::uint64_t h, std::uint64_t v) { return fnv(h, &v, sizeof v); }

std::uint64_t fold_f64(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return fold_u64(h, bits);
}

}  // namespace

std::uint64_t result_digest(const ExperimentResult& result) {
  greencap::ckpt::Writer w;
  ckpt_io::encode_result(w, result);
  return fnv(0xcbf29ce484222325ULL, w.data().data(), w.data().size());
}

void SimTotals::add(const ExperimentResult& result) {
  ++experiments;
  tasks += result.stats.tasks_completed;
  cpu_tasks += result.cpu_tasks;
  makespan_s += result.time_s;
  energy_j += result.total_energy_j;
  gpu_energy_j += result.energy.gpu_total();
  digest = fold_f64(digest, result.time_s);
  for (const double j : result.energy.gpu_joules) {
    digest = fold_f64(digest, j);
  }
  for (const double j : result.energy.cpu_joules) {
    digest = fold_f64(digest, j);
  }
  digest = fold_u64(digest, result.stats.tasks_submitted);
  digest = fold_u64(digest, result.stats.tasks_completed);
  digest = fold_u64(digest, result.cpu_tasks);
  digest = fold_u64(digest, result.gpu_tasks);
}

bool Gate::check(const ExperimentResult& result) {
  ++attempted_;
  const ExperimentConfig& config = result.config;
  if (result.stats.tasks_completed != result.stats.tasks_submitted) {
    record_failure(config, "completed " + std::to_string(result.stats.tasks_completed) + " of " +
                               std::to_string(result.stats.tasks_submitted) + " tasks");
    return false;
  }
  double device_sum = 0.0;
  for (const double j : result.energy.gpu_joules) {
    device_sum += j;
  }
  for (const double j : result.energy.cpu_joules) {
    device_sum += j;
  }
  const double total = result.total_energy_j;
  if (!std::isfinite(total) || total <= 0.0 ||
      std::abs(device_sum - total) > 1e-9 * std::abs(total)) {
    record_failure(config, "per-device energies do not sum to total_energy_j");
    return false;
  }
  const std::uint64_t digest = result_digest(result);
  const auto [it, first] = first_.try_emplace(ckpt_io::config_bytes(config), digest);
  if (first) {
    sim_.add(result);
  } else if (it->second != digest) {
    record_failure(config, "result differs from the first execution of this config");
    return false;
  }
  return true;
}

void Gate::fail(const ExperimentConfig& config, const std::string& why) {
  ++attempted_;
  record_failure(config, "threw: " + why);
}

std::uint64_t Gate::first_digest(const ExperimentConfig& config) const {
  const auto it = first_.find(ckpt_io::config_bytes(config));
  return it == first_.end() ? 0 : it->second;
}

void Gate::record_failure(const ExperimentConfig& config, const std::string& why) {
  ++failed_;
  if (first_failure_.empty()) {
    first_failure_ = config.describe() + ": " + why;
  }
}

}  // namespace perfbench
