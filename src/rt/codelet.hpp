// Codelets: multi-architecture task implementations (StarPU's starpu_codelet).
//
// A codelet bundles the host function that implements a kernel with the
// cost descriptor the performance models and device models use. Every
// worker, CPU or CUDA, runs the same host function: the simulated device
// contributes timing and energy, while the host function provides the
// actual numerics when RuntimeOptions::execute_kernels is enabled.
#pragma once

#include <functional>
#include <span>
#include <string>

#include "hw/kernel_work.hpp"
#include "rt/types.hpp"

namespace greencap::rt {

class Task;
class Worker;

/// Signature of a kernel implementation: receives the task so it can reach
/// its handles' host pointers and its arguments.
using KernelFunc = std::function<void(Task&)>;

/// Optional fine-grained eligibility predicate (StarPU's
/// codelet::can_execute): invoked on top of the `where` mask, e.g. to pin
/// a kernel to one GPU generation or to a specific device index.
using CanExecuteFunc = std::function<bool(const Worker&, const Task&)>;

struct Codelet {
  std::string name;
  WhereMask where = kWhereAny;
  /// Kernel family — selects the per-device efficiency factor.
  hw::KernelClass klass = hw::KernelClass::kGeneric;
  /// Host implementation every worker runs (numerics only; the device
  /// models provide timing).
  KernelFunc cpu_func;
  /// Optional per-worker eligibility refinement; null = where-mask only.
  CanExecuteFunc can_execute;
};

/// Combined eligibility test used by every scheduling policy.
[[nodiscard]] bool worker_can_run(const Task& task, const Worker& worker);

}  // namespace greencap::rt
