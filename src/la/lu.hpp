// Tiled LU factorization without pivoting (GETRF) — an extension beyond
// the paper's two operations, following the same Chameleon-style recipe:
// a panel kernel that favours the CPU, triangular updates, and a GEMM bulk
// that dominates the flops. Restricted to diagonally dominant matrices
// (no pivoting), which TileMatrix::make_diagonally_dominant() produces.
//
// DAG per step k:   GETRF(A_kk)
//                   TRSM_U(A_kj) = L_kk^{-1} A_kj   for j > k
//                   TRSM_L(A_ik) = A_ik U_kk^{-1}   for i > k
//                   GEMM(A_ij) -= A_ik A_kj         for i, j > k
#pragma once

#include <cstdint>
#include <vector>

#include "la/blas.hpp"
#include "la/codelets.hpp"
#include "la/flops.hpp"
#include "la/tile_matrix.hpp"

namespace greencap::la {

namespace flops_lu {
/// LU of an n x n matrix (LAWN 41): 2n^3/3 - n^2/2 - n/6.
[[nodiscard]] constexpr double getrf(double n) {
  return 2.0 * n * n * n / 3.0 - n * n / 2.0 - n / 6.0;
}
[[nodiscard]] constexpr double lu_total(double n) { return getrf(n); }
}  // namespace flops_lu

/// Codelets of tile LU for scalar type T. Access-order conventions:
///   getrf  : A (RW)
///   trsm_u : L-panel tile (R), A_kj (RW)   -> A_kj := L_kk^{-1} A_kj
///   trsm_l : U-panel tile (R), A_ik (RW)   -> A_ik := A_ik U_kk^{-1}
///   gemm   : shared with Codelets<T> (A_ik R, A_kj R, A_ij RW)
template <typename T>
class LuCodelets {
 public:
  [[nodiscard]] const rt::Codelet& getrf() const { return getrf_; }
  [[nodiscard]] const rt::Codelet& trsm_u() const { return trsm_u_; }
  [[nodiscard]] const rt::Codelet& trsm_l() const { return trsm_l_; }
  [[nodiscard]] const rt::Codelet& gemm() const { return blas3_.gemm(); }

 private:
  using Tiles = detail::Tiles<T>;

  rt::Codelet getrf_ = tile_codelet<T, TileArgs<T>>(
      "getrf", hw::KernelClass::kGetrf,
      [](const TileArgs<T>& a, Tiles t) { la::getrf_nopiv<T>(a.nb, t[0], a.nb); });
  rt::Codelet trsm_u_ = tile_codelet<T, TileArgs<T>>(
      "trsm_llu", hw::KernelClass::kTrsm, [](const TileArgs<T>& a, Tiles t) {
        la::trsm_left_lower_unit<T>(a.nb, a.nb, t[0], a.nb, t[1], a.nb);
      });
  rt::Codelet trsm_l_ = tile_codelet<T, TileArgs<T>>(
      "trsm_run", hw::KernelClass::kTrsm, [](const TileArgs<T>& a, Tiles t) {
        la::trsm_right_upper_nonunit<T>(a.nb, a.nb, t[0], a.nb, t[1], a.nb);
      });
  Codelets<T> blas3_;
};

/// Submits the in-place tile LU (no pivoting) of A.
template <typename T>
void submit_getrf(rt::Runtime& runtime, const LuCodelets<T>& cl, TileMatrix<T>& a) {
  const int nt = a.nt();
  const int nb = a.nb();
  const auto base = [nt](int k) { return static_cast<std::int64_t>(nt - k) * 4096; };

  for (int k = 0; k < nt; ++k) {
    submit_tile<T>(runtime, cl.getrf(), {{a.handle(k, k), rt::AccessMode::kReadWrite}},
                   flops_lu::getrf(nb), nb, base(k) + 3 * 1024, {"getrf", k, k},
                   TileArgs<T>{nb, T{1}});
    for (int j = k + 1; j < nt; ++j) {
      submit_tile<T>(runtime, cl.trsm_u(),
                     {{a.handle(k, k), rt::AccessMode::kRead},
                      {a.handle(k, j), rt::AccessMode::kReadWrite}},
                     flops::trsm(nb, nb), nb, base(k) + 2 * 1024 - (j - k - 1), {"trsm_u", k, j},
                     TileArgs<T>{nb, T{1}});
    }
    for (int i = k + 1; i < nt; ++i) {
      submit_tile<T>(runtime, cl.trsm_l(),
                     {{a.handle(k, k), rt::AccessMode::kRead},
                      {a.handle(i, k), rt::AccessMode::kReadWrite}},
                     flops::trsm(nb, nb), nb, base(k) + 2 * 1024 - (i - k - 1), {"trsm_l", i, k},
                     TileArgs<T>{nb, T{1}});
    }
    for (int i = k + 1; i < nt; ++i) {
      for (int j = k + 1; j < nt; ++j) {
        submit_tile<T>(runtime, cl.gemm(),
                       {{a.handle(i, k), rt::AccessMode::kRead},
                        {a.handle(k, j), rt::AccessMode::kRead},
                        {a.handle(i, j), rt::AccessMode::kReadWrite}},
                       flops::gemm(nb), nb, base(k) + 1024 - (i - k) - (j - k),
                       {"gemm_lu", i, j, k},
                       GemmArgs<T>{nb, T{-1}, T{1}, /*trans_a=*/false, /*trans_b=*/false});
      }
    }
  }
}

/// Registers calibration sets for the LU-specific kernels (the shared gemm
/// codelet is covered by calibrate_codelets).
template <typename T>
void calibrate_lu_codelets(rt::Calibrator& calibrator, const LuCodelets<T>& cl,
                           const std::vector<int>& tile_sizes, int samples_per_point = 3) {
  calibrate_kernel<T>(calibrator, cl.getrf(), [](double nb) { return flops_lu::getrf(nb); },
                      tile_sizes, samples_per_point);
  calibrate_kernel<T>(calibrator, cl.trsm_u(), [](double nb) { return flops::trsm(nb, nb); },
                      tile_sizes, samples_per_point);
  calibrate_kernel<T>(calibrator, cl.trsm_l(), [](double nb) { return flops::trsm(nb, nb); },
                      tile_sizes, samples_per_point);
  calibrate_kernel<T>(calibrator, cl.gemm(), [](double nb) { return flops::gemm(nb); },
                      tile_sizes, samples_per_point);
}

/// Task count of the tiled LU DAG: sum over panels of
/// 1 + 2(nt-k-1) + (nt-k-1)^2 = nt(nt+1)(2nt+1)/6.
[[nodiscard]] constexpr std::int64_t getrf_task_count(std::int64_t nt) {
  return nt * (nt + 1) * (2 * nt + 1) / 6;
}

/// Dense reference LU without pivoting (for verification).
template <typename T>
void reference_getrf(std::int64_t n, std::vector<T>& a) {
  getrf_nopiv<T>(static_cast<int>(n), a.data(), static_cast<int>(n));
}

}  // namespace greencap::la
