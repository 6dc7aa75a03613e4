// Tiled QR factorization (GEQRF, flat reduction tree) — the remaining
// Chameleon routine family the paper's section III-C names (LU, Cholesky,
// QR, LQ all build on the same kernels-and-priorities recipe).
//
// DAG per step k:   GEQRT(A_kk)                      panel QR
//                   UNMQR(A_kj)  for j > k           apply panel Q^T
//                   TSQRT(A_kk, A_mk) for m > k      fold row-block m into R
//                   TSMQR(A_kj, A_mj) for m, j > k   apply the fold
//
// On exit the upper block triangle holds R; the reflector tails live in
// the strict lower triangle and the tau workspace.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "la/codelets.hpp"
#include "la/qr_kernels.hpp"
#include "la/tile_matrix.hpp"

namespace greencap::la {

namespace flops_qr {
/// QR of an n x n matrix (LAWN 41): 4n^3/3 (square case).
[[nodiscard]] constexpr double geqrf_total(double n) { return 4.0 * n * n * n / 3.0; }
/// Per-tile kernel counts (order nb).
[[nodiscard]] constexpr double geqrt(double nb) { return 4.0 * nb * nb * nb / 3.0; }
[[nodiscard]] constexpr double unmqr(double nb) { return 2.0 * nb * nb * nb; }
[[nodiscard]] constexpr double tsqrt(double nb) { return 2.0 * nb * nb * nb; }
[[nodiscard]] constexpr double tsmqr(double nb) { return 4.0 * nb * nb * nb; }
}  // namespace flops_qr

/// Scalar-factor (tau) storage for one factorization. Must outlive
/// wait_all(). Metadata-only matrices get metadata-only tau handles.
template <typename T>
class QrWorkspace {
 public:
  QrWorkspace(rt::Runtime& runtime, const TileMatrix<T>& a) : nt_{a.nt()} {
    const bool allocate = a.allocated();
    const std::size_t nb = static_cast<std::size_t>(a.nb());
    panel_tau_.resize(nt_);
    ts_tau_.resize(static_cast<std::size_t>(nt_) * nt_);
    panel_handles_.resize(nt_);
    ts_handles_.resize(ts_tau_.size());
    for (int k = 0; k < nt_; ++k) {
      if (allocate) panel_tau_[k].resize(nb);
      panel_handles_[k] = runtime.register_data(
          nb * sizeof(T), allocate ? panel_tau_[k].data() : nullptr,
          "tauP(" + std::to_string(k) + ")");
    }
    for (int k = 0; k < nt_; ++k) {
      for (int m = k + 1; m < nt_; ++m) {
        auto& buf = ts_tau_[index(m, k)];
        if (allocate) buf.resize(nb);
        ts_handles_[index(m, k)] = runtime.register_data(
            nb * sizeof(T), allocate ? buf.data() : nullptr,
            "tauT(" + std::to_string(m) + "," + std::to_string(k) + ")");
      }
    }
  }

  [[nodiscard]] rt::DataHandle* panel_tau(int k) const { return panel_handles_.at(k); }
  [[nodiscard]] rt::DataHandle* ts_tau(int m, int k) const { return ts_handles_.at(index(m, k)); }

 private:
  [[nodiscard]] std::size_t index(int m, int k) const {
    return static_cast<std::size_t>(m) + static_cast<std::size_t>(k) * nt_;
  }
  int nt_;
  std::vector<std::vector<T>> panel_tau_;
  std::vector<std::vector<T>> ts_tau_;
  std::vector<rt::DataHandle*> panel_handles_;
  std::vector<rt::DataHandle*> ts_handles_;
};

/// The four tile-QR codelets. Access orders documented per kernel below.
template <typename T>
class QrCodelets {
 public:
  [[nodiscard]] const rt::Codelet& geqrt() const { return geqrt_; }
  [[nodiscard]] const rt::Codelet& unmqr() const { return unmqr_; }
  [[nodiscard]] const rt::Codelet& tsqrt() const { return tsqrt_; }
  [[nodiscard]] const rt::Codelet& tsmqr() const { return tsmqr_; }

 private:
  using Tiles = detail::Tiles<T>;

  // geqrt: A_kk (RW), tau (W)
  rt::Codelet geqrt_ = tile_codelet<T, TileArgs<T>>(
      "geqrt", hw::KernelClass::kQrPanel,
      [](const TileArgs<T>& a, Tiles t) { geqr2<T>(a.nb, a.nb, t[0], a.nb, t[1]); });
  // unmqr: V = A_kk (R), tau (R), C = A_kj (RW)
  rt::Codelet unmqr_ = tile_codelet<T, TileArgs<T>>(
      "unmqr", hw::KernelClass::kQrApply, [](const TileArgs<T>& a, Tiles t) {
        orm2r_left_trans<T>(a.nb, a.nb, a.nb, t[0], a.nb, t[1], t[2], a.nb);
      });
  // tsqrt: R = A_kk (RW), B/V2 = A_mk (RW), tau (W)
  rt::Codelet tsqrt_ = tile_codelet<T, TileArgs<T>>(
      "tsqrt", hw::KernelClass::kQrPanel, [](const TileArgs<T>& a, Tiles t) {
        tpqrt2<T>(a.nb, a.nb, t[0], a.nb, t[1], a.nb, t[2]);
      });
  // tsmqr: V2 = A_mk (R), tau (R), C1 = A_kj (RW), C2 = A_mj (RW)
  rt::Codelet tsmqr_ = tile_codelet<T, TileArgs<T>>(
      "tsmqr", hw::KernelClass::kQrApply, [](const TileArgs<T>& a, Tiles t) {
        tpmqrt_left_trans<T>(a.nb, a.nb, a.nb, t[0], a.nb, t[1], t[2], a.nb, t[3], a.nb);
      });
};

/// Submits the flat-tree tile QR of A in place. `workspace` (tau storage)
/// must have been created against the same runtime and matrix.
template <typename T>
void submit_geqrf(rt::Runtime& runtime, const QrCodelets<T>& cl, TileMatrix<T>& a,
                  QrWorkspace<T>& workspace) {
  const int nt = a.nt();
  const int nb = a.nb();
  const auto base = [nt](int k) { return static_cast<std::int64_t>(nt - k) * 4096; };

  for (int k = 0; k < nt; ++k) {
    submit_tile<T>(runtime, cl.geqrt(),
                   {{a.handle(k, k), rt::AccessMode::kReadWrite},
                    {workspace.panel_tau(k), rt::AccessMode::kWrite}},
                   flops_qr::geqrt(nb), nb, base(k) + 3 * 1024, {"geqrt", k, k},
                   TileArgs<T>{nb, T{1}});
    for (int j = k + 1; j < nt; ++j) {
      submit_tile<T>(runtime, cl.unmqr(),
                     {{a.handle(k, k), rt::AccessMode::kRead},
                      {workspace.panel_tau(k), rt::AccessMode::kRead},
                      {a.handle(k, j), rt::AccessMode::kReadWrite}},
                     flops_qr::unmqr(nb), nb, base(k) + 2 * 1024 - (j - k - 1), {"unmqr", k, j},
                     TileArgs<T>{nb, T{1}});
    }
    for (int m = k + 1; m < nt; ++m) {
      submit_tile<T>(runtime, cl.tsqrt(),
                     {{a.handle(k, k), rt::AccessMode::kReadWrite},
                      {a.handle(m, k), rt::AccessMode::kReadWrite},
                      {workspace.ts_tau(m, k), rt::AccessMode::kWrite}},
                     flops_qr::tsqrt(nb), nb, base(k) + 2 * 1024 - (m - k - 1), {"tsqrt", m, k},
                     TileArgs<T>{nb, T{1}});
      for (int j = k + 1; j < nt; ++j) {
        submit_tile<T>(runtime, cl.tsmqr(),
                       {{a.handle(m, k), rt::AccessMode::kRead},
                        {workspace.ts_tau(m, k), rt::AccessMode::kRead},
                        {a.handle(k, j), rt::AccessMode::kReadWrite},
                        {a.handle(m, j), rt::AccessMode::kReadWrite}},
                       flops_qr::tsmqr(nb), nb, base(k) + 1024 - (m - k) - (j - k),
                       {"tsmqr", m, j, k}, TileArgs<T>{nb, T{1}});
      }
    }
  }
}

/// Registers calibration sets for the four QR kernels.
template <typename T>
void calibrate_qr_codelets(rt::Calibrator& calibrator, const QrCodelets<T>& cl,
                           const std::vector<int>& tile_sizes, int samples_per_point = 3) {
  calibrate_kernel<T>(calibrator, cl.geqrt(), [](double nb) { return flops_qr::geqrt(nb); },
                      tile_sizes, samples_per_point);
  calibrate_kernel<T>(calibrator, cl.unmqr(), [](double nb) { return flops_qr::unmqr(nb); },
                      tile_sizes, samples_per_point);
  calibrate_kernel<T>(calibrator, cl.tsqrt(), [](double nb) { return flops_qr::tsqrt(nb); },
                      tile_sizes, samples_per_point);
  calibrate_kernel<T>(calibrator, cl.tsmqr(), [](double nb) { return flops_qr::tsmqr(nb); },
                      tile_sizes, samples_per_point);
}

/// Task count of the flat-tree tile QR DAG:
/// nt panels + nt(nt-1)/2 unmqr + nt(nt-1)/2 tsqrt + sum (nt-k-1)^2 tsmqr.
[[nodiscard]] constexpr std::int64_t geqrf_task_count(std::int64_t nt) {
  return nt + nt * (nt - 1) + nt * (nt - 1) * (2 * nt - 1) / 6;
}

}  // namespace greencap::la
