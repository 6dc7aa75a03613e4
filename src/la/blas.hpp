// Reference dense kernels operating on column-major tiles.
//
// These are the real numerical implementations executed by the runtime's
// workers when execute_kernels is enabled (and by the verification code).
// They favour clarity and testability over raw speed — the performance
// dimension of the study comes from the device models, not from host
// wall-clock. All kernels follow (netlib) BLAS/LAPACK conventions on
// column-major storage with leading dimension ld.
#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>

namespace greencap::la {

/// C(m x n) = alpha * op(A) * op(B) + beta * C with op(X) = X or X^T.
/// A is stored (m x k), or (k x m) when trans_a; B is stored (k x n), or
/// (n x k) when trans_b. Column-major, leading dimensions lda/ldb/ldc.
template <typename T>
void gemm(int m, int n, int k, T alpha, const T* a, int lda, bool trans_a, const T* b, int ldb,
          bool trans_b, T beta, T* c, int ldc) {
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      c[i + static_cast<std::size_t>(j) * ldc] *= beta;
    }
    for (int p = 0; p < k; ++p) {
      const T bpj = trans_b ? b[j + static_cast<std::size_t>(p) * ldb]
                            : b[p + static_cast<std::size_t>(j) * ldb];
      const T scale = alpha * bpj;
      if (scale == T{}) continue;
      T* ccol = c + static_cast<std::size_t>(j) * ldc;
      if (trans_a) {
        const T* arow = a + static_cast<std::size_t>(p);  // row p of A^T = col p of op(A)
        for (int i = 0; i < m; ++i) {
          ccol[i] += scale * arow[static_cast<std::size_t>(i) * lda];
        }
      } else {
        const T* acol = a + static_cast<std::size_t>(p) * lda;
        for (int i = 0; i < m; ++i) {
          ccol[i] += scale * acol[i];
        }
      }
    }
  }
}

/// Non-transposed-A convenience overload (the common tile-update shape).
template <typename T>
void gemm(int m, int n, int k, T alpha, const T* a, int lda, const T* b, int ldb, bool trans_b,
          T beta, T* c, int ldc) {
  gemm<T>(m, n, k, alpha, a, lda, /*trans_a=*/false, b, ldb, trans_b, beta, c, ldc);
}

/// Symmetric rank-k update, lower: C(n x n) = alpha * A(n x k) * A^T + beta * C,
/// touching only the lower triangle of C.
template <typename T>
void syrk_lower(int n, int k, T alpha, const T* a, int lda, T beta, T* c, int ldc) {
  for (int j = 0; j < n; ++j) {
    for (int i = j; i < n; ++i) {
      c[i + static_cast<std::size_t>(j) * ldc] *= beta;
    }
    for (int p = 0; p < k; ++p) {
      const T scale = alpha * a[j + static_cast<std::size_t>(p) * lda];
      if (scale == T{}) continue;
      const T* acol = a + static_cast<std::size_t>(p) * lda;
      T* ccol = c + static_cast<std::size_t>(j) * ldc;
      for (int i = j; i < n; ++i) {
        ccol[i] += scale * acol[i];
      }
    }
  }
}

/// Triangular solve, right/lower/transpose/non-unit:
/// B(m x n) := B * L^{-T} with L lower-triangular (n x n).
/// This is the update applied to sub-diagonal tiles in tile Cholesky.
template <typename T>
void trsm_right_lower_trans(int m, int n, const T* l, int ldl, T* b, int ldb) {
  // Row i of B solves: sum_{p<=j} Bnew[i,p] * L[j,p] = B[i,j], forward in j.
  for (int j = 0; j < n; ++j) {
    const T ljj = l[j + static_cast<std::size_t>(j) * ldl];
    if (ljj == T{}) {
      throw std::runtime_error("trsm: singular triangular factor");
    }
    for (int p = 0; p < j; ++p) {
      const T ljp = l[j + static_cast<std::size_t>(p) * ldl];
      if (ljp == T{}) continue;
      const T* bp = b + static_cast<std::size_t>(p) * ldb;
      T* bj = b + static_cast<std::size_t>(j) * ldb;
      for (int i = 0; i < m; ++i) {
        bj[i] -= bp[i] * ljp;
      }
    }
    T* bj = b + static_cast<std::size_t>(j) * ldb;
    for (int i = 0; i < m; ++i) {
      bj[i] /= ljj;
    }
  }
}

/// Triangular solve, left/lower/unit: B(m x n) := L^{-1} * B with L
/// unit-lower-triangular (m x m) — the U-panel update of tile LU.
template <typename T>
void trsm_left_lower_unit(int m, int n, const T* l, int ldl, T* b, int ldb) {
  // Forward substitution per column of B; the unit diagonal needs no divide.
  for (int j = 0; j < n; ++j) {
    T* bj = b + static_cast<std::size_t>(j) * ldb;
    for (int i = 1; i < m; ++i) {
      T acc = bj[i];
      for (int p = 0; p < i; ++p) {
        acc -= l[i + static_cast<std::size_t>(p) * ldl] * bj[p];
      }
      bj[i] = acc;
    }
  }
}

/// Triangular solve, right/upper/non-unit: B(m x n) := B * U^{-1} with U
/// upper-triangular (n x n) — the L-panel update of tile LU.
template <typename T>
void trsm_right_upper_nonunit(int m, int n, const T* u, int ldu, T* b, int ldb) {
  for (int j = 0; j < n; ++j) {
    const T ujj = u[j + static_cast<std::size_t>(j) * ldu];
    if (ujj == T{}) {
      throw std::runtime_error("trsm: singular triangular factor");
    }
    T* bj = b + static_cast<std::size_t>(j) * ldb;
    for (int p = 0; p < j; ++p) {
      const T upj = u[p + static_cast<std::size_t>(j) * ldu];
      if (upj == T{}) continue;
      const T* bp = b + static_cast<std::size_t>(p) * ldb;
      for (int i = 0; i < m; ++i) {
        bj[i] -= bp[i] * upj;
      }
    }
    for (int i = 0; i < m; ++i) {
      bj[i] /= ujj;
    }
  }
}

/// Unblocked LU factorization WITHOUT pivoting of an n x n tile in place:
/// A = L * U with L unit-lower and U upper. Suitable for diagonally
/// dominant matrices only (no pivoting); throws std::domain_error on a
/// zero pivot.
template <typename T>
void getrf_nopiv(int n, T* a, int lda) {
  for (int k = 0; k < n; ++k) {
    const T pivot = a[k + static_cast<std::size_t>(k) * lda];
    if (pivot == T{}) {
      throw std::domain_error("getrf_nopiv: zero pivot");
    }
    for (int i = k + 1; i < n; ++i) {
      a[i + static_cast<std::size_t>(k) * lda] /= pivot;
    }
    for (int j = k + 1; j < n; ++j) {
      const T ukj = a[k + static_cast<std::size_t>(j) * lda];
      if (ukj == T{}) continue;
      T* col = a + static_cast<std::size_t>(j) * lda;
      const T* lcol = a + static_cast<std::size_t>(k) * lda;
      for (int i = k + 1; i < n; ++i) {
        col[i] -= lcol[i] * ukj;
      }
    }
  }
}

/// Unblocked Cholesky factorization (lower) of an n x n tile in place.
/// Only the lower triangle is referenced or written.
/// Throws std::domain_error if the tile is not positive definite.
template <typename T>
void potrf_lower(int n, T* a, int lda) {
  for (int j = 0; j < n; ++j) {
    T diag = a[j + static_cast<std::size_t>(j) * lda];
    for (int p = 0; p < j; ++p) {
      const T v = a[j + static_cast<std::size_t>(p) * lda];
      diag -= v * v;
    }
    if (!(diag > T{})) {
      throw std::domain_error("potrf: matrix is not positive definite");
    }
    const T ljj = std::sqrt(diag);
    a[j + static_cast<std::size_t>(j) * lda] = ljj;
    for (int i = j + 1; i < n; ++i) {
      T v = a[i + static_cast<std::size_t>(j) * lda];
      for (int p = 0; p < j; ++p) {
        v -= a[i + static_cast<std::size_t>(p) * lda] * a[j + static_cast<std::size_t>(p) * lda];
      }
      a[i + static_cast<std::size_t>(j) * lda] = v / ljj;
    }
  }
}

}  // namespace greencap::la
