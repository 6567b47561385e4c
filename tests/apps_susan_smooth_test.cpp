// The shared SUSAN smoothing kernel against its specification: the
// plain per-pixel loop (bounds-checked taps, 48 terms summed row-major,
// centre skipped). Every output byte must match, on every plane shape
// and every split of the rows into strips.
#include "apps/susan_smooth.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/rng.h"

namespace tflux::apps {
namespace {

std::vector<std::uint8_t> spec_smooth(const std::vector<std::uint8_t>& in,
                                      int w, int h) {
  std::vector<double> lut(511);
  for (int d = -255; d <= 255; ++d) {
    const double x = static_cast<double>(d) / 20.0;
    lut[static_cast<std::size_t>(d + 255)] = std::exp(-x * x);
  }
  std::vector<std::uint8_t> out(in.size());
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const int center = in[static_cast<std::size_t>(y * w + x)];
      double total = 0.0, weight_sum = 0.0;
      for (int dy = -3; dy <= 3; ++dy) {
        const int yy = y + dy;
        if (yy < 0 || yy >= h) continue;
        for (int dx = -3; dx <= 3; ++dx) {
          const int xx = x + dx;
          if (xx < 0 || xx >= w) continue;
          if (dx == 0 && dy == 0) continue;
          const int v = in[static_cast<std::size_t>(yy * w + xx)];
          const double wgt = lut[static_cast<std::size_t>(v - center + 255)];
          total += wgt * v;
          weight_sum += wgt;
        }
      }
      out[static_cast<std::size_t>(y * w + x)] =
          weight_sum > 1e-9
              ? static_cast<std::uint8_t>(total / weight_sum + 0.5)
              : static_cast<std::uint8_t>(center);
    }
  }
  return out;
}

/// Runs the kernel over [0, h) as strips [0,1), [1,4), [4,h): the bounds
/// fall inside the top halo, so each strip reads rows another one owns.
std::vector<std::uint8_t> kernel_in_strips(const std::vector<std::uint8_t>& in,
                                           std::uint32_t w, std::uint32_t h) {
  std::vector<std::uint8_t> out(in.size(), 0xAB);
  std::uint32_t begin = 0;
  for (std::uint32_t end : {1u, 4u, h}) {
    end = std::min(end, h);
    if (end > begin) smooth_rows(in.data(), out.data(), w, h, begin, end);
    begin = std::max(begin, end);
  }
  return out;
}

/// Uniform bytes (most weights vanish) or a gentle gradient with noise
/// (most weights count), seeded per shape.
std::vector<std::uint8_t> random_plane(std::uint32_t w, std::uint32_t h,
                                       bool uniform, std::uint64_t seed) {
  sim::SplitMix64 rng(seed);
  std::vector<std::uint8_t> in(static_cast<std::size_t>(w) * h);
  for (std::uint32_t y = 0; y < h; ++y) {
    for (std::uint32_t x = 0; x < w; ++x) {
      const std::uint64_t v =
          uniform ? rng.next_below(256) : (x * 7 + y * 3 + rng.next_below(40));
      in[static_cast<std::size_t>(y) * w + x] = static_cast<std::uint8_t>(v);
    }
  }
  return in;
}

using Shape = std::pair<std::uint32_t, std::uint32_t>;  // width, height

class SusanSmoothShapeTest : public ::testing::TestWithParam<Shape> {};

TEST_P(SusanSmoothShapeTest, MatchesPerPixelSpecOnRandomPlanes) {
  const auto [w, h] = GetParam();
  for (const bool uniform : {true, false}) {
    const auto in = random_plane(w, h, uniform, 0x5005A + w * 1000u + h);
    EXPECT_EQ(kernel_in_strips(in, w, h),
              spec_smooth(in, static_cast<int>(w), static_cast<int>(h)))
        << w << "x" << h << (uniform ? " uniform" : " gradient");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SusanSmoothShapeTest,
    ::testing::Values(Shape{1, 1}, Shape{3, 64}, Shape{7, 7}, Shape{9, 5},
                      Shape{10, 10}, Shape{97, 61}, Shape{512, 576}),
    [](const auto& info) {
      return std::to_string(info.param.first) + "x" +
             std::to_string(info.param.second);
    });

TEST(SusanSmoothTest, LonePixelInZeroFieldKeepsItsValue) {
  // Every neighbour differs by 255: 48 weights of exp(-12.75^2) sum to
  // ~1e-69, below the 1e-9 cut-off, so the pixel counts as isolated.
  // One lone pixel sits in the interior, one in the corner (15 taps).
  const std::uint32_t w = 16, h = 12;
  std::vector<std::uint8_t> in(w * h, 0);
  in[6 * w + 8] = 255;
  in[0] = 255;
  const auto out = kernel_in_strips(in, w, h);
  EXPECT_EQ(out[6 * w + 8], 255);
  EXPECT_EQ(out[0], 255);
  EXPECT_EQ(out, spec_smooth(in, w, h));
}

}  // namespace
}  // namespace tflux::apps
