// Tiled LQ factorization (GELQF) — the fourth and last Chameleon routine
// family named by the paper (section III-C: "LU, Cholesky, QR, and LQ").
//
// LQ is the row-wise dual of QR: A = L * Q with L lower-triangular and Q
// orthogonal, reflectors built from rows and applied from the right. The
// tile algorithm mirrors tile QR with the roles of rows and columns
// swapped:
//
//   GELQT(A_kk)                       panel LQ (row reflectors)
//   UNMLQ(A_mk)   for m > k           apply panel Q^T from the right
//   TSLQT(A_kk, A_kj) for j > k       fold column-block j into L
//   TSMLQ(A_mk, A_mj) for m, j > k    apply the fold from the right
//
// On exit the lower block triangle holds L; reflector tails live in the
// strict upper triangle and the tau workspace.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "la/codelets.hpp"
#include "la/qr.hpp"  // flops are transpose-symmetric; reuse flops_qr and QrWorkspace
#include "la/tile_matrix.hpp"

namespace greencap::la {

// -- row-wise Householder kernels --------------------------------------------

/// GELQ2: unblocked LQ of A (m x n, n >= m) in place. Lower triangle gets
/// L, the strict upper triangle the row-reflector tails, tau[0..m-1] the
/// scalars.
template <typename T>
void gelq2(int m, int n, T* a, int lda, T* tau) {
  if (n < m) {
    throw std::invalid_argument("gelq2: requires n >= m");
  }
  for (int i = 0; i < m; ++i) {
    // Reflector from row i, entries [i, i+1..n-1] (stride lda).
    T* row_tail = a + static_cast<std::size_t>(i) + static_cast<std::size_t>(i + 1) * lda;
    const auto refl = qr_detail::make_reflector<T>(
        a[i + static_cast<std::size_t>(i) * lda], row_tail, n - i - 1, lda);
    a[i + static_cast<std::size_t>(i) * lda] = refl.beta;
    tau[i] = refl.tau;
    if (refl.tau == T{}) continue;
    // Apply H_i from the right to the rows below.
    for (int r = i + 1; r < m; ++r) {
      T w = a[r + static_cast<std::size_t>(i) * lda];
      for (int c = i + 1; c < n; ++c) {
        w += a[i + static_cast<std::size_t>(c) * lda] * a[r + static_cast<std::size_t>(c) * lda];
      }
      w *= refl.tau;
      a[r + static_cast<std::size_t>(i) * lda] -= w;
      for (int c = i + 1; c < n; ++c) {
        a[r + static_cast<std::size_t>(c) * lda] -=
            a[i + static_cast<std::size_t>(c) * lda] * w;
      }
    }
  }
}

/// ORML2 (right, transpose): C (m x n) := C * Q^T with Q's k row-reflectors
/// in V (k x n, unit "upper": v_i = e_i + tail in row i) and tau.
/// gelq2 built L by applying H_0, H_1, ... from the right in ascending
/// order (L = A H_0 H_1 ... H_{k-1}), so C Q^T replays the same ascending
/// sequence.
template <typename T>
void orml2_right_trans(int m, int n, int k, const T* v, int ldv, const T* tau, T* c, int ldc) {
  for (int i = 0; i < k; ++i) {
    if (tau[i] == T{}) continue;
    for (int r = 0; r < m; ++r) {
      T w = c[r + static_cast<std::size_t>(i) * ldc];
      for (int col = i + 1; col < n; ++col) {
        w += v[i + static_cast<std::size_t>(col) * ldv] *
             c[r + static_cast<std::size_t>(col) * ldc];
      }
      w *= tau[i];
      c[r + static_cast<std::size_t>(i) * ldc] -= w;
      for (int col = i + 1; col < n; ++col) {
        c[r + static_cast<std::size_t>(col) * ldc] -=
            v[i + static_cast<std::size_t>(col) * ldv] * w;
      }
    }
  }
}

/// TPLQT2 (l = 0): LQ of the side-by-side pair [L (m x m, lower) | B (m x n)].
/// L updated in place, B overwritten with the reflector row-tails V2,
/// tau[0..m-1] the scalars. Reflector i touches column i of L plus all of B.
template <typename T>
void tplqt2(int m, int n, T* l, int ldl, T* b, int ldb, T* tau) {
  for (int i = 0; i < m; ++i) {
    // Row-reflector from [L[i,i] | B[i, 0..n-1]] (B row i, stride ldb).
    T* b_row = b + static_cast<std::size_t>(i);
    const auto refl = qr_detail::make_reflector<T>(
        l[i + static_cast<std::size_t>(i) * ldl], b_row, n, ldb);
    l[i + static_cast<std::size_t>(i) * ldl] = refl.beta;
    tau[i] = refl.tau;
    if (refl.tau == T{}) continue;
    for (int r = i + 1; r < m; ++r) {
      T w = l[r + static_cast<std::size_t>(i) * ldl];
      for (int c = 0; c < n; ++c) {
        w += b[i + static_cast<std::size_t>(c) * ldb] * b[r + static_cast<std::size_t>(c) * ldb];
      }
      w *= refl.tau;
      l[r + static_cast<std::size_t>(i) * ldl] -= w;
      for (int c = 0; c < n; ++c) {
        b[r + static_cast<std::size_t>(c) * ldb] -=
            b[i + static_cast<std::size_t>(c) * ldb] * w;
      }
    }
  }
}

/// TPMLQT (right, transpose, l = 0): applies the k row-reflectors from
/// tplqt2 (tails in V2, k x n) to the pair [C1 (m x k) | C2 (m x n)],
/// in the same ascending order the factorization used.
template <typename T>
void tpmlqt_right_trans(int m, int n, int k, const T* v2, int ldv, const T* tau, T* c1, int ldc1,
                        T* c2, int ldc2) {
  for (int i = 0; i < k; ++i) {
    if (tau[i] == T{}) continue;
    for (int r = 0; r < m; ++r) {
      T w = c1[r + static_cast<std::size_t>(i) * ldc1];
      for (int c = 0; c < n; ++c) {
        w += v2[i + static_cast<std::size_t>(c) * ldv] *
             c2[r + static_cast<std::size_t>(c) * ldc2];
      }
      w *= tau[i];
      c1[r + static_cast<std::size_t>(i) * ldc1] -= w;
      for (int c = 0; c < n; ++c) {
        c2[r + static_cast<std::size_t>(c) * ldc2] -=
            v2[i + static_cast<std::size_t>(c) * ldv] * w;
      }
    }
  }
}

// -- codelets & builder --------------------------------------------------------

/// The four tile-LQ codelets. Access orders documented per kernel below.
template <typename T>
class LqCodelets {
 public:
  [[nodiscard]] const rt::Codelet& gelqt() const { return gelqt_; }
  [[nodiscard]] const rt::Codelet& unmlq() const { return unmlq_; }
  [[nodiscard]] const rt::Codelet& tslqt() const { return tslqt_; }
  [[nodiscard]] const rt::Codelet& tsmlq() const { return tsmlq_; }

 private:
  using Tiles = detail::Tiles<T>;

  // gelqt: A_kk (RW), tau (W)
  rt::Codelet gelqt_ = tile_codelet<T, TileArgs<T>>(
      "gelqt", hw::KernelClass::kQrPanel,
      [](const TileArgs<T>& a, Tiles t) { gelq2<T>(a.nb, a.nb, t[0], a.nb, t[1]); });
  // unmlq: V = A_kk (R), tau (R), C = A_mk (RW)
  rt::Codelet unmlq_ = tile_codelet<T, TileArgs<T>>(
      "unmlq", hw::KernelClass::kQrApply, [](const TileArgs<T>& a, Tiles t) {
        orml2_right_trans<T>(a.nb, a.nb, a.nb, t[0], a.nb, t[1], t[2], a.nb);
      });
  // tslqt: L = A_kk (RW), B/V2 = A_kj (RW), tau (W)
  rt::Codelet tslqt_ = tile_codelet<T, TileArgs<T>>(
      "tslqt", hw::KernelClass::kQrPanel, [](const TileArgs<T>& a, Tiles t) {
        tplqt2<T>(a.nb, a.nb, t[0], a.nb, t[1], a.nb, t[2]);
      });
  // tsmlq: V2 = A_kj (R), tau (R), C1 = A_mk (RW), C2 = A_mj (RW)
  rt::Codelet tsmlq_ = tile_codelet<T, TileArgs<T>>(
      "tsmlq", hw::KernelClass::kQrApply, [](const TileArgs<T>& a, Tiles t) {
        tpmlqt_right_trans<T>(a.nb, a.nb, a.nb, t[0], a.nb, t[1], t[2], a.nb, t[3], a.nb);
      });
};

/// Submits the flat-tree tile LQ of A in place. Reuses QrWorkspace for the
/// tau buffers (identical shape; ts_tau is indexed (j, k) here).
template <typename T>
void submit_gelqf(rt::Runtime& runtime, const LqCodelets<T>& cl, TileMatrix<T>& a,
                  QrWorkspace<T>& workspace) {
  const int nt = a.nt();
  const int nb = a.nb();
  const auto base = [nt](int k) { return static_cast<std::int64_t>(nt - k) * 4096; };

  for (int k = 0; k < nt; ++k) {
    submit_tile<T>(runtime, cl.gelqt(),
                   {{a.handle(k, k), rt::AccessMode::kReadWrite},
                    {workspace.panel_tau(k), rt::AccessMode::kWrite}},
                   flops_qr::geqrt(nb), nb, base(k) + 3 * 1024, {"gelqt", k, k},
                   TileArgs<T>{nb, T{1}});
    for (int m = k + 1; m < nt; ++m) {
      submit_tile<T>(runtime, cl.unmlq(),
                     {{a.handle(k, k), rt::AccessMode::kRead},
                      {workspace.panel_tau(k), rt::AccessMode::kRead},
                      {a.handle(m, k), rt::AccessMode::kReadWrite}},
                     flops_qr::unmqr(nb), nb, base(k) + 2 * 1024 - (m - k - 1), {"unmlq", m, k},
                     TileArgs<T>{nb, T{1}});
    }
    for (int j = k + 1; j < nt; ++j) {
      submit_tile<T>(runtime, cl.tslqt(),
                     {{a.handle(k, k), rt::AccessMode::kReadWrite},
                      {a.handle(k, j), rt::AccessMode::kReadWrite},
                      {workspace.ts_tau(j, k), rt::AccessMode::kWrite}},
                     flops_qr::tsqrt(nb), nb, base(k) + 2 * 1024 - (j - k - 1), {"tslqt", k, j},
                     TileArgs<T>{nb, T{1}});
      for (int m = k + 1; m < nt; ++m) {
        submit_tile<T>(runtime, cl.tsmlq(),
                       {{a.handle(k, j), rt::AccessMode::kRead},
                        {workspace.ts_tau(j, k), rt::AccessMode::kRead},
                        {a.handle(m, k), rt::AccessMode::kReadWrite},
                        {a.handle(m, j), rt::AccessMode::kReadWrite}},
                       flops_qr::tsmqr(nb), nb, base(k) + 1024 - (m - k) - (j - k),
                       {"tsmlq", m, j, k}, TileArgs<T>{nb, T{1}});
      }
    }
  }
}

/// Task count (mirror of tile QR): nt + nt(nt-1) + nt(nt-1)(2nt-1)/6.
[[nodiscard]] constexpr std::int64_t gelqf_task_count(std::int64_t nt) {
  return geqrf_task_count(nt);
}

/// Registers calibration sets for the four LQ kernels.
template <typename T>
void calibrate_lq_codelets(rt::Calibrator& calibrator, const LqCodelets<T>& cl,
                           const std::vector<int>& tile_sizes, int samples_per_point = 3) {
  calibrate_kernel<T>(calibrator, cl.gelqt(), [](double nb) { return flops_qr::geqrt(nb); },
                      tile_sizes, samples_per_point);
  calibrate_kernel<T>(calibrator, cl.unmlq(), [](double nb) { return flops_qr::unmqr(nb); },
                      tile_sizes, samples_per_point);
  calibrate_kernel<T>(calibrator, cl.tslqt(), [](double nb) { return flops_qr::tsqrt(nb); },
                      tile_sizes, samples_per_point);
  calibrate_kernel<T>(calibrator, cl.tsmlq(), [](double nb) { return flops_qr::tsmqr(nb); },
                      tile_sizes, samples_per_point);
}

}  // namespace greencap::la
