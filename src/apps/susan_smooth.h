// The SUSAN brightness-similarity smoothing kernel shared by SUSAN and
// SUSANPIPE: each output pixel is the similarity-weighted average of
// its 7x7 neighbourhood (centre excluded), with weights
// exp(-((I(p)-I(c))/t)^2), t = 20, read from a lookup table built once
// per process. Pixels whose weights sum to no more than 1e-9 keep their
// own value.
#pragma once

#include <cstdint>

namespace tflux::apps {

/// Mask radius of the smoothing neighbourhood (7x7): the row halo a
/// strip of output reads above and below itself.
inline constexpr int kSusanSmoothRadius = 3;

/// Smooths rows [row_begin, row_end) of the `width` x `height` row-major
/// plane `in` into the same rows of `out`. Reads rows up to
/// kSusanSmoothRadius outside the range (clipped to the plane), so
/// disjoint row ranges can run concurrently on one `in`. Every output
/// byte equals that of the plain per-pixel loop summing the 48 terms in
/// row-major order.
void smooth_rows(const std::uint8_t* in, std::uint8_t* out,
                 std::uint32_t width, std::uint32_t height,
                 std::uint32_t row_begin, std::uint32_t row_end);

}  // namespace tflux::apps
