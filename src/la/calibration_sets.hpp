// Standard calibration campaigns for the linear-algebra codelets.
#pragma once

#include <vector>

#include "la/codelets.hpp"
#include "la/flops.hpp"
#include "rt/calibration.hpp"

namespace greencap::la {

/// Registers calibration sets covering all four kernels at the given tile
/// sizes — run this once per Runtime (and recalibrate_all() after each
/// power-cap change, per the paper's protocol).
template <typename T>
void calibrate_codelets(rt::Calibrator& calibrator, const Codelets<T>& cl,
                        const std::vector<int>& tile_sizes, int samples_per_point = 3) {
  calibrate_kernel<T>(calibrator, cl.gemm(), [](double nb) { return flops::gemm(nb); },
                      tile_sizes, samples_per_point);
  calibrate_kernel<T>(calibrator, cl.syrk(), [](double nb) { return flops::syrk(nb, nb); },
                      tile_sizes, samples_per_point);
  calibrate_kernel<T>(calibrator, cl.trsm(), [](double nb) { return flops::trsm(nb, nb); },
                      tile_sizes, samples_per_point);
  calibrate_kernel<T>(calibrator, cl.potrf(), [](double nb) { return flops::potrf(nb); },
                      tile_sizes, samples_per_point);
}

}  // namespace greencap::la
