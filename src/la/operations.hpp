// Task-graph builders for the paper's two operations: tiled GEMM and tiled
// Cholesky factorization (POTRF), with Chameleon-style expert priorities.
//
// DAG shapes (paper section III-C): GEMM is nt^3 identical compute-bound
// tasks with massive parallelism; POTRF has N(N+1)(N+2)/6 vertices for an
// N x N tile matrix, about half of them GEMM tasks, and a critical path
// k -> POTRF(k) -> TRSM(k+1,k) -> SYRK(k+1,k) -> POTRF(k+1) whose panel
// kernels favour the CPU. Priorities approximate the remaining critical
// path, exactly the kind of offline expert hint Chameleon ships.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "la/codelets.hpp"
#include "la/flops.hpp"
#include "la/tile_matrix.hpp"
#include "rt/runtime.hpp"

namespace greencap::la {

/// Transposition selector for submit_gemm (BLAS's CblasNoTrans/CblasTrans).
enum class Trans : bool { kNoTrans = false, kTrans = true };

/// Submits C = alpha * op(A) * op(B) + beta * C over nt x nt tiles. The
/// inner k chain of each C(i,j) is serialized by the RW access; priorities
/// favour finishing chains (higher priority for larger k) so accumulators
/// retire.
template <typename T>
void submit_gemm(rt::Runtime& runtime, const Codelets<T>& cl, TileMatrix<T>& a, TileMatrix<T>& b,
                 TileMatrix<T>& c, T alpha = T{1}, T beta = T{0},
                 Trans op_a = Trans::kNoTrans, Trans op_b = Trans::kNoTrans) {
  const int nt = c.nt();
  const int nb = c.nb();
  if (a.nt() != nt || b.nt() != nt || a.nb() != nb || b.nb() != nb) {
    throw std::invalid_argument("submit_gemm: conforming square tilings required");
  }
  const bool ta = op_a == Trans::kTrans;
  const bool tb = op_b == Trans::kTrans;
  for (int j = 0; j < nt; ++j) {
    for (int i = 0; i < nt; ++i) {
      for (int k = 0; k < nt; ++k) {
        // op(A)'s tile (i, k) lives at (k, i) when A is transposed; the
        // kernel then transposes within the tile. Likewise for B. Deeper
        // chain position = more urgent.
        submit_tile<T>(runtime, cl.gemm(),
                       {{a.handle(ta ? k : i, ta ? i : k), rt::AccessMode::kRead},
                        {b.handle(tb ? j : k, tb ? k : j), rt::AccessMode::kRead},
                        {c.handle(i, j), rt::AccessMode::kReadWrite}},
                       flops::gemm(nb), nb, k, {"gemm", i, j, k},
                       GemmArgs<T>{nb, alpha, k == 0 ? beta : T{1}, ta, tb});
      }
    }
  }
}

/// Submits the lower-Cholesky factorization of SPD matrix A in place
/// (right-looking tile algorithm).
template <typename T>
void submit_potrf(rt::Runtime& runtime, const Codelets<T>& cl, TileMatrix<T>& a) {
  const int nt = a.nt();
  const int nb = a.nb();

  // Priority = approximate remaining critical path from the task, scaled so
  // panel kernels of step k outrank every update kernel of step k, which
  // outranks everything of step k+1 (Chameleon's expert ordering).
  const auto base = [nt](int k) { return static_cast<std::int64_t>(nt - k) * 4096; };

  for (int k = 0; k < nt; ++k) {
    submit_tile<T>(runtime, cl.potrf(), {{a.handle(k, k), rt::AccessMode::kReadWrite}},
                   flops::potrf(nb), nb, base(k) + 3 * 1024, {"potrf", k, k},
                   TileArgs<T>{nb, T{1}});
    for (int m = k + 1; m < nt; ++m) {
      // The m = k+1 TRSM feeds the next panel: most urgent of its wave.
      submit_tile<T>(runtime, cl.trsm(),
                     {{a.handle(k, k), rt::AccessMode::kRead},
                      {a.handle(m, k), rt::AccessMode::kReadWrite}},
                     flops::trsm(nb, nb), nb, base(k) + 2 * 1024 - (m - k - 1), {"trsm", m, k},
                     TileArgs<T>{nb, T{1}});
    }
    for (int m = k + 1; m < nt; ++m) {
      submit_tile<T>(runtime, cl.syrk(),
                     {{a.handle(m, k), rt::AccessMode::kRead},
                      {a.handle(m, m), rt::AccessMode::kReadWrite}},
                     flops::syrk(nb, nb), nb, base(k) + 1024 - (m - k - 1), {"syrk", m, k},
                     TileArgs<T>{nb, T{-1}});
      for (int n = k + 1; n < m; ++n) {
        // A(m,n) -= A(m,k) * A(n,k)^T
        submit_tile<T>(runtime, cl.gemm(),
                       {{a.handle(m, k), rt::AccessMode::kRead},
                        {a.handle(n, k), rt::AccessMode::kRead},
                        {a.handle(m, n), rt::AccessMode::kReadWrite}},
                       flops::gemm(nb), nb, base(k) + 1024 - (m - n), {"gemm", m, n, k},
                       GemmArgs<T>{nb, T{-1}, T{1}, /*trans_a=*/false, /*trans_b=*/true});
      }
    }
  }
}

/// Expected task count of the tiled Cholesky DAG: nt(nt+1)(nt+2)/6.
[[nodiscard]] constexpr std::int64_t potrf_task_count(std::int64_t nt) {
  return nt * (nt + 1) * (nt + 2) / 6;
}

/// GEMM tasks inside a Cholesky DAG: nt(nt-1)(nt-2)/6.
[[nodiscard]] constexpr std::int64_t potrf_gemm_task_count(std::int64_t nt) {
  return nt * (nt - 1) * (nt - 2) / 6;
}

}  // namespace greencap::la
