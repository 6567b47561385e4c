#include "apps/susan_smooth.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace tflux::apps {
namespace {

constexpr int kRadius = kSusanSmoothRadius;
constexpr double kBrightnessThreshold = 20.0;
/// Adjacent interior pixels computed together, one accumulator each.
constexpr int kGroup = 4;

/// A pixel's running {total, weight_sum}; one tap adds weight * {v, 1}.
/// GCC/Clang generic vectors: SSE2 on x86-64, NEON on AArch64.
using Acc = double __attribute__((vector_size(16)));

struct Tables {
  double weight[511];  // exp(-(d/t)^2) at index d + 255, d in [-255, 255]
  Acc tap[256];        // {v, 1.0}
};

/// Built on first use, then shared read-only by every thread.
const Tables& tables() {
  static const Tables built = [] {
    Tables t{};
    for (int d = -255; d <= 255; ++d) {
      const double x = static_cast<double>(d) / kBrightnessThreshold;
      t.weight[d + 255] = std::exp(-x * x);
    }
    for (int v = 0; v < 256; ++v) t.tap[v] = Acc{static_cast<double>(v), 1.0};
    return t;
  }();
  return built;
}

std::uint8_t finish(double total, double weight_sum, int center) {
  if (weight_sum > 1e-9) {
    return static_cast<std::uint8_t>(total / weight_sum + 0.5);
  }
  return static_cast<std::uint8_t>(center);  // isolated pixel
}

/// One pixel with per-tap bounds checks: the border, and planes too
/// narrow for a group.
std::uint8_t smooth_pixel(const std::uint8_t* in, int w, int h, int x, int y,
                          const double* weight) {
  const int center = in[static_cast<std::size_t>(y) * w + x];
  double total = 0.0, weight_sum = 0.0;
  for (int dy = -kRadius; dy <= kRadius; ++dy) {
    const int yy = y + dy;
    if (yy < 0 || yy >= h) continue;
    for (int dx = -kRadius; dx <= kRadius; ++dx) {
      const int xx = x + dx;
      if (xx < 0 || xx >= w) continue;
      if (dx == 0 && dy == 0) continue;
      const int v = in[static_cast<std::size_t>(yy) * w + xx];
      const double wgt = weight[v - center + 255];
      total += wgt * v;
      weight_sum += wgt;
    }
  }
  return finish(total, weight_sum, center);
}

/// kGroup adjacent pixels at least kRadius from every edge, starting at
/// `p`: no bounds checks, and each pixel's taps are summed in the same
/// order as smooth_pixel's, so the results are bit-identical.
void smooth_group(const std::uint8_t* p, std::uint8_t* out,
                  std::ptrdiff_t stride, const Tables& t) {
  const double* weight[kGroup];
  Acc acc[kGroup];
  for (int k = 0; k < kGroup; ++k) {
    weight[k] = t.weight + 255 - p[k];
    acc[k] = Acc{0.0, 0.0};
  }
  for (int dy = -kRadius; dy <= kRadius; ++dy) {
    const std::uint8_t* row = p + dy * stride - kRadius;
#pragma GCC unroll 7
    for (int dx = 0; dx <= 2 * kRadius; ++dx) {
      if (dy == 0 && dx == kRadius) continue;
#pragma GCC unroll 4
      for (int k = 0; k < kGroup; ++k) {
        const std::uint8_t v = row[k + dx];
        acc[k] += weight[k][v] * t.tap[v];
      }
    }
  }
  for (int k = 0; k < kGroup; ++k) out[k] = finish(acc[k][0], acc[k][1], p[k]);
}

}  // namespace

void smooth_rows(const std::uint8_t* in, std::uint8_t* out,
                 std::uint32_t width, std::uint32_t height,
                 std::uint32_t row_begin, std::uint32_t row_end) {
  const Tables& t = tables();
  const int w = static_cast<int>(width);
  const int h = static_cast<int>(height);
  const bool grouped = w >= 2 * kRadius + kGroup;
  for (int y = static_cast<int>(row_begin); y < static_cast<int>(row_end);
       ++y) {
    const std::size_t row = static_cast<std::size_t>(y) * width;
    const bool interior = grouped && y >= kRadius && y < h - kRadius;
    const int x_end = interior ? kRadius : w;
    for (int x = 0; x < x_end; ++x) {
      out[row + x] = smooth_pixel(in, w, h, x, y, t.weight);
    }
    if (!interior) continue;
    // The last group is shifted back to end at the border; the pixels
    // it shares with the previous group are recomputed identically.
    for (int x = kRadius; x < w - kRadius; x += kGroup) {
      const int gx = std::min(x, w - kRadius - kGroup);
      smooth_group(in + row + gx, out + row + gx, w, t);
    }
    for (int x = w - kRadius; x < w; ++x) {
      out[row + x] = smooth_pixel(in, w, h, x, y, t.weight);
    }
  }
}

}  // namespace tflux::apps
