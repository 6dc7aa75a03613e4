// The tile-task recipe every linear-algebra family shares, and the codelets
// of tile GEMM / tile Cholesky (one set per precision).
//
// A family is built from three helpers:
//   tile_codelet      one kernel's codelet: precision-suffixed name, class,
//                     and the host function that unpacks the argument pack;
//   calibrate_kernel  one codelet's calibration set over the tile sizes;
//   submit_tile       one task: accesses, work, expert priority, label, args.
//
// Access-order conventions (relied on by the kernel implementations):
//   gemm : A (R), B (R), C (RW)       C = alpha * A * op(B) + beta * C
//   syrk : A (R), C (RW)              C_lower += alpha * A * A^T (beta=1)
//   trsm : L (R), B (RW)              B := B * L^{-T}
//   potrf: A (RW)                     A := chol_lower(A)
//
// Every worker runs the same host function — the simulated device provides
// the timing/energy — which keeps results bit-identical regardless of where
// the scheduler places a task.
#pragma once

#include <any>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "hw/kernel_work.hpp"
#include "la/blas.hpp"
#include "la/tile_matrix.hpp"
#include "rt/calibration.hpp"
#include "rt/codelet.hpp"
#include "rt/runtime.hpp"
#include "rt/task.hpp"

namespace greencap::la {

template <typename T>
struct GemmArgs {
  int nb = 0;
  T alpha = T{1};
  T beta = T{1};
  bool trans_a = false;
  bool trans_b = false;
};

template <typename T>
struct TileArgs {
  int nb = 0;
  T alpha = T{1};
};

/// A task label "op(a,b)" or "op(a,b,c)"; c < 0 omits the third index.
struct TileLabel {
  const char* op;
  int a;
  int b;
  int c = -1;
};

namespace detail {

/// The host pointers of a task's accesses, in access order.
template <typename T>
struct Tiles {
  rt::Task& task;
  [[nodiscard]] T* operator[](std::size_t access_index) const {
    return static_cast<T*>(task.handle(access_index)->host_ptr());
  }
};

/// Kernels silently skip when handles carry no storage (metadata-only
/// timing simulations).
[[nodiscard]] inline bool has_storage(const rt::Task& task) {
  for (std::size_t i = 0; i < task.accesses().size(); ++i) {
    if (task.handle(i)->host_ptr() == nullptr) {
      return false;
    }
  }
  return true;
}

template <typename T>
[[nodiscard]] hw::KernelWork make_work(hw::KernelClass klass, double flops, int nb) {
  return hw::KernelWork{
      .klass = klass,
      .precision = scalar_traits<T>::precision,
      .flops = flops,
      .work_dim = static_cast<double>(nb),
  };
}

[[nodiscard]] inline std::string label_string(const TileLabel& label) {
  std::string out = label.op;
  out += '(' + std::to_string(label.a) + ',' + std::to_string(label.b);
  if (label.c >= 0) out += ',' + std::to_string(label.c);
  out += ')';
  return out;
}

}  // namespace detail

/// The codelet of one tile kernel for scalar type T, named `name` with the
/// precision prefix ("d"/"s"). `kernel(args, tiles)` runs the numerics on
/// the task's argument pack (an `Args`) and its tiles.
template <typename T, typename Args, typename Kernel>
[[nodiscard]] rt::Codelet tile_codelet(const char* name, hw::KernelClass klass, Kernel kernel) {
  rt::Codelet codelet;
  codelet.name = std::string{scalar_traits<T>::suffix} + name;
  codelet.klass = klass;
  codelet.where = rt::kWhereAny;
  codelet.cpu_func = [kernel](rt::Task& task) {
    if (!detail::has_storage(task)) return;
    kernel(std::any_cast<const Args&>(task.arg()), detail::Tiles<T>{task});
  };
  return codelet;
}

/// Registers (and measures) the calibration set of one codelet: one work
/// point per tile size, `flops_of(nb)` flops each.
template <typename T, typename FlopsOf>
void calibrate_kernel(rt::Calibrator& calibrator, const rt::Codelet& codelet, FlopsOf flops_of,
                      const std::vector<int>& tile_sizes, int samples_per_point) {
  std::vector<hw::KernelWork> works;
  works.reserve(tile_sizes.size());
  for (int nb : tile_sizes) {
    works.push_back(detail::make_work<T>(codelet.klass, flops_of(nb), nb));
  }
  calibrator.calibrate(codelet, works, samples_per_point);
}

/// Submits one tile task of `codelet` on nb x nb tiles.
template <typename T, typename Args>
void submit_tile(rt::Runtime& runtime, const rt::Codelet& codelet,
                 std::initializer_list<rt::TaskAccess> accesses, double flops, int nb,
                 std::int64_t priority, const TileLabel& label, Args args) {
  rt::TaskDesc desc;
  desc.codelet = &codelet;
  desc.accesses = accesses;
  desc.work = detail::make_work<T>(codelet.klass, flops, nb);
  desc.priority = priority;
  desc.label = detail::label_string(label);
  desc.arg = std::move(args);
  runtime.submit(std::move(desc));
}

/// The four kernels of tile GEMM / tile Cholesky for scalar type T.
template <typename T>
class Codelets {
 public:
  [[nodiscard]] const rt::Codelet& gemm() const { return gemm_; }
  [[nodiscard]] const rt::Codelet& syrk() const { return syrk_; }
  [[nodiscard]] const rt::Codelet& trsm() const { return trsm_; }
  [[nodiscard]] const rt::Codelet& potrf() const { return potrf_; }

 private:
  using Tiles = detail::Tiles<T>;

  rt::Codelet gemm_ = tile_codelet<T, GemmArgs<T>>(
      "gemm", hw::KernelClass::kGemm, [](const GemmArgs<T>& a, Tiles t) {
        la::gemm<T>(a.nb, a.nb, a.nb, a.alpha, t[0], a.nb, a.trans_a, t[1], a.nb, a.trans_b,
                    a.beta, t[2], a.nb);
      });
  rt::Codelet syrk_ = tile_codelet<T, TileArgs<T>>(
      "syrk", hw::KernelClass::kSyrk, [](const TileArgs<T>& a, Tiles t) {
        la::syrk_lower<T>(a.nb, a.nb, a.alpha, t[0], a.nb, T{1}, t[1], a.nb);
      });
  rt::Codelet trsm_ = tile_codelet<T, TileArgs<T>>(
      "trsm", hw::KernelClass::kTrsm, [](const TileArgs<T>& a, Tiles t) {
        la::trsm_right_lower_trans<T>(a.nb, a.nb, t[0], a.nb, t[1], a.nb);
      });
  rt::Codelet potrf_ = tile_codelet<T, TileArgs<T>>(
      "potrf", hw::KernelClass::kPotrf,
      [](const TileArgs<T>& a, Tiles t) { la::potrf_lower<T>(a.nb, t[0], a.nb); });
};

}  // namespace greencap::la
