#include "apps/susan_pipeline.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>

#include "apps/susan_smooth.h"
#include "sim/rng.h"

namespace tflux::apps {
namespace {

constexpr int kEdgeRadius = 1;    // 3x3 gradient
constexpr int kCornerRadius = 2;  // 5x5 non-maximum suppression
constexpr int kEdgeThreshold = 60;
constexpr int kCornerThreshold = 25;

/// Deterministic synthetic frame: a gradient whose phase advances with
/// the frame number plus per-row speckle noise - every frame rewrites
/// the whole input plane, as a camera feed would.
void init_rows(SusanPipePlanes& buf, std::uint32_t frame,
               std::uint32_t row_begin, std::uint32_t row_end) {
  const std::uint32_t w = buf.width;
  for (std::uint32_t y = row_begin; y < row_end; ++y) {
    sim::SplitMix64 rng(0x5EEDu + 0x9E37u * frame + y);
    for (std::uint32_t x = 0; x < w; ++x) {
      const std::uint32_t base =
          (x * 255u / (w ? w : 1) + y * 3u + frame * 17u) & 0xFFu;
      const std::uint32_t noise =
          static_cast<std::uint32_t>(rng.next_below(24));
      buf.input[static_cast<std::size_t>(y) * w + x] =
          static_cast<std::uint8_t>((base + noise) & 0xFFu);
    }
  }
}

/// Gradient response at column m of row `mid` from the 3x3 neighbourhood
/// spanned by rows up/mid/down and columns l/m/r.
std::int16_t edge_at(const std::uint8_t* up, const std::uint8_t* mid,
                     const std::uint8_t* down, int l, int m, int r) {
  const int gx =
      (up[r] + 2 * mid[r] + down[r]) - (up[l] + 2 * mid[l] + down[l]);
  const int gy =
      (down[l] + 2 * down[m] + down[r]) - (up[l] + 2 * up[m] + up[r]);
  return static_cast<std::int16_t>(
      std::clamp(std::abs(gx) + std::abs(gy) - kEdgeThreshold, 0, 32767));
}

/// Out-of-plane neighbours read the nearest edge pixel: rows are clamped
/// once per row, columns only at the first and last pixel.
void edge_rows(SusanPipePlanes& buf, std::uint32_t row_begin,
               std::uint32_t row_end) {
  const int w = static_cast<int>(buf.width);
  const int h = static_cast<int>(buf.height);
  if (w == 0) return;
  const int last = w - 1;
  auto plane_row = [&buf](int y) {
    return buf.smoothed.data() + static_cast<std::size_t>(y) * buf.width;
  };
  for (std::uint32_t y = row_begin; y < row_end; ++y) {
    const int yi = static_cast<int>(y);
    const std::uint8_t* up = plane_row(std::max(yi - 1, 0));
    const std::uint8_t* mid = plane_row(yi);
    const std::uint8_t* down = plane_row(std::min(yi + 1, h - 1));
    std::int16_t* out =
        buf.edge.data() + static_cast<std::size_t>(y) * buf.width;
    out[0] = edge_at(up, mid, down, 0, 0, std::min(1, last));
    for (int x = 1; x < last; ++x) {
      out[x] = edge_at(up, mid, down, x - 1, x, x + 1);
    }
    if (last > 0) out[last] = edge_at(up, mid, down, last - 1, last, last);
  }
}

void corner_rows(SusanPipePlanes& buf, std::uint32_t row_begin,
                 std::uint32_t row_end) {
  const int w = static_cast<int>(buf.width);
  const int h = static_cast<int>(buf.height);
  for (std::uint32_t y = row_begin; y < row_end; ++y) {
    const int yi = static_cast<int>(y);
    for (int x = 0; x < w; ++x) {
      const int center = buf.edge[static_cast<std::size_t>(y) * buf.width +
                                  static_cast<std::uint32_t>(x)];
      bool is_corner = center > kCornerThreshold;
      for (int dy = -kCornerRadius; is_corner && dy <= kCornerRadius; ++dy) {
        const int yy = yi + dy;
        if (yy < 0 || yy >= h) continue;
        for (int dx = -kCornerRadius; dx <= kCornerRadius; ++dx) {
          const int xx = x + dx;
          if (xx < 0 || xx >= w) continue;
          if (dx == 0 && dy == 0) continue;
          // Strict maximum: plateaus yield no corner, which keeps the
          // result independent of visit order.
          if (buf.edge[static_cast<std::size_t>(yy) * buf.width +
                       static_cast<std::uint32_t>(xx)] >= center) {
            is_corner = false;
            break;
          }
        }
      }
      buf.corner[static_cast<std::size_t>(y) * buf.width +
                 static_cast<std::uint32_t>(x)] = is_corner ? 255 : 0;
    }
  }
}

/// One full frame, sequentially (the reference path).
void run_frame(SusanPipePlanes& buf, std::uint32_t frame) {
  init_rows(buf, frame, 0, buf.height);
  smooth_rows(buf.input.data(), buf.smoothed.data(), buf.width, buf.height, 0,
              buf.height);
  edge_rows(buf, 0, buf.height);
  corner_rows(buf, 0, buf.height);
}

SusanPipePlanes make_buffers(const SusanPipeInput& input) {
  SusanPipePlanes buf;
  buf.width = input.width;
  buf.height = input.height;
  buf.input.assign(input.pixels(), 0);
  buf.smoothed.assign(input.pixels(), 0);
  buf.edge.assign(input.pixels(), 0);
  buf.corner.assign(input.pixels(), 0);
  return buf;
}

/// Row range of strip `s` out of `n` over an `h`-row plane.
std::pair<std::uint32_t, std::uint32_t> strip_rows(std::uint32_t h,
                                                   std::uint32_t n,
                                                   std::uint32_t s) {
  const std::uint64_t lo = static_cast<std::uint64_t>(s) * h / n;
  const std::uint64_t hi = static_cast<std::uint64_t>(s + 1) * h / n;
  return {static_cast<std::uint32_t>(lo), static_cast<std::uint32_t>(hi)};
}

}  // namespace

SusanPipeInput susan_pipe_input(SizeClass size) {
  switch (size) {
    case SizeClass::kSmall:
      return SusanPipeInput{256, 288, 24, 3};
    case SizeClass::kMedium:
      return SusanPipeInput{512, 576, 36, 4};
    case SizeClass::kLarge:
      return SusanPipeInput{1024, 576, 48, 6};
  }
  return SusanPipeInput{256, 288, 24, 3};
}

SusanPipePlanes susan_pipe_reference(const SusanPipeInput& input) {
  // Every frame rewrites all four planes in full, so the final state
  // is that of the last frame alone.
  SusanPipePlanes buf = make_buffers(input);
  run_frame(buf, input.frames == 0 ? 0 : input.frames - 1);
  return buf;
}

std::vector<std::uint8_t> susan_pipe_sequential(const SusanPipeInput& input) {
  return susan_pipe_reference(input).corner;
}

AppRun build_susan_pipeline(const SusanPipeInput& input,
                            const DdmParams& params) {
  auto buffers = std::make_shared<SusanPipePlanes>(make_buffers(input));
  const std::uint32_t w = input.width;
  const std::uint32_t h = input.height;
  const std::uint32_t frames = input.frames == 0 ? 1 : input.frames;
  const std::uint32_t strips = std::min(input.strips == 0 ? 1 : input.strips,
                                        h / 2 == 0 ? 1 : h / 2);

  core::ProgramBuilder builder("susanpipe");
  BlockAllocator blocks(builder, params.tsu_capacity);

  // Byte range of rows [r0, r1) in a plane of `bpp` bytes per pixel.
  auto row_range = [w](core::SimAddr arena, std::uint32_t bpp,
                       std::uint32_t r0, std::uint32_t r1) {
    return std::pair<core::SimAddr, std::uint32_t>{
        arena + static_cast<core::SimAddr>(r0) * w * bpp,
        (r1 - r0) * w * bpp};
  };

  // Declare the producer->consumer data arcs between two stages: each
  // consumer strip depends on every producer strip its (halo-widened)
  // read window touches. Stages live in different DDM Blocks, so these
  // are cross-block arcs - no Ready Counts (the block barrier already
  // orders them), but they carry the data plane's forwarding and
  // affinity information.
  auto link_stages = [&builder, h](const std::vector<core::ThreadId>& prod,
                                   const std::vector<core::ThreadId>& cons,
                                   int halo) {
    const std::uint32_t pn = static_cast<std::uint32_t>(prod.size());
    const std::uint32_t cn = static_cast<std::uint32_t>(cons.size());
    for (std::uint32_t c = 0; c < cn; ++c) {
      const auto [c_lo, c_hi] = strip_rows(h, cn, c);
      const std::uint32_t r_lo = c_lo >= static_cast<std::uint32_t>(halo)
                                     ? c_lo - static_cast<std::uint32_t>(halo)
                                     : 0;
      const std::uint32_t r_hi =
          std::min(h, c_hi + static_cast<std::uint32_t>(halo));
      for (std::uint32_t p = 0; p < pn; ++p) {
        const auto [p_lo, p_hi] = strip_rows(h, pn, p);
        if (p_lo < r_hi && r_lo < p_hi) builder.add_arc(prod[p], cons[c]);
      }
    }
  };

  for (std::uint32_t frame = 0; frame < frames; ++frame) {
    const std::string tag = "f" + std::to_string(frame) + ":";
    std::vector<core::ThreadId> init_ids, smooth_ids, edge_ids, corner_ids;

    // --- Stage 0: frame acquisition (T strips) -----------------------
    blocks.fresh();
    for (std::uint32_t s = 0; s < strips; ++s) {
      const auto [r0, r1] = strip_rows(h, strips, s);
      core::Footprint fp;
      fp.compute(static_cast<core::Cycles>(r1 - r0) * w *
                 kPipeInitCyclesPerPixel);
      const auto [addr, bytes] = row_range(kArenaA, 1, r0, r1);
      fp.write(addr, bytes);
      init_ids.push_back(builder.add_thread(
          blocks.next(), tag + "init" + std::to_string(s),
          [buffers, frame, r0, r1](const core::ExecContext&) {
            init_rows(*buffers, frame, r0, r1);
          },
          std::move(fp)));
    }

    // --- Stage 1: smooth (T strips, 7x7 similarity filter) -----------
    blocks.fresh();
    for (std::uint32_t s = 0; s < strips; ++s) {
      const auto [r0, r1] = strip_rows(h, strips, s);
      const auto halo = static_cast<std::uint32_t>(kSusanSmoothRadius);
      const std::uint32_t h0 = r0 >= halo ? r0 - halo : 0;
      const std::uint32_t h1 = std::min(h, r1 + halo);
      core::Footprint fp;
      fp.compute(static_cast<core::Cycles>(r1 - r0) * w *
                 kPipeSmoothCyclesPerPixel);
      const auto [raddr, rbytes] = row_range(kArenaA, 1, h0, h1);
      fp.read(raddr, rbytes);
      const auto [waddr, wbytes] = row_range(kArenaB, 1, r0, r1);
      fp.write(waddr, wbytes);
      smooth_ids.push_back(builder.add_thread(
          blocks.next(), tag + "smooth" + std::to_string(s),
          [buffers, r0, r1](const core::ExecContext&) {
            SusanPipePlanes& buf = *buffers;
            smooth_rows(buf.input.data(), buf.smoothed.data(), buf.width,
                        buf.height, r0, r1);
          },
          std::move(fp)));
    }

    // --- Stage 2: edge response (2T strips, 3x3 gradient) ------------
    blocks.fresh();
    for (std::uint32_t s = 0; s < 2 * strips; ++s) {
      const auto [r0, r1] = strip_rows(h, 2 * strips, s);
      const auto halo = static_cast<std::uint32_t>(kEdgeRadius);
      const std::uint32_t h0 = r0 >= halo ? r0 - halo : 0;
      const std::uint32_t h1 = std::min(h, r1 + halo);
      core::Footprint fp;
      fp.compute(static_cast<core::Cycles>(r1 - r0) * w *
                 kPipeEdgeCyclesPerPixel);
      const auto [raddr, rbytes] = row_range(kArenaB, 1, h0, h1);
      fp.read(raddr, rbytes);
      const auto [waddr, wbytes] = row_range(kArenaC, 2, r0, r1);
      fp.write(waddr, wbytes);
      edge_ids.push_back(builder.add_thread(
          blocks.next(), tag + "edge" + std::to_string(s),
          [buffers, r0, r1](const core::ExecContext&) {
            edge_rows(*buffers, r0, r1);
          },
          std::move(fp)));
    }

    // --- Stage 3: corner detection (T strips, 5x5 NMS) ---------------
    blocks.fresh();
    for (std::uint32_t s = 0; s < strips; ++s) {
      const auto [r0, r1] = strip_rows(h, strips, s);
      const auto halo = static_cast<std::uint32_t>(kCornerRadius);
      const std::uint32_t h0 = r0 >= halo ? r0 - halo : 0;
      const std::uint32_t h1 = std::min(h, r1 + halo);
      core::Footprint fp;
      fp.compute(static_cast<core::Cycles>(r1 - r0) * w *
                 kPipeCornerCyclesPerPixel);
      const auto [raddr, rbytes] = row_range(kArenaC, 2, h0, h1);
      fp.read(raddr, rbytes);
      const auto [waddr, wbytes] = row_range(kArenaD, 1, r0, r1);
      fp.write(waddr, wbytes);
      corner_ids.push_back(builder.add_thread(
          blocks.next(), tag + "corner" + std::to_string(s),
          [buffers, r0, r1](const core::ExecContext&) {
            corner_rows(*buffers, r0, r1);
          },
          std::move(fp)));
    }

    link_stages(init_ids, smooth_ids, kSusanSmoothRadius);
    link_stages(smooth_ids, edge_ids, kEdgeRadius);
    link_stages(edge_ids, corner_ids, kCornerRadius);
  }

  core::BuildOptions options;
  options.num_kernels = params.num_kernels;
  options.tsu_capacity = params.tsu_capacity;

  AppRun run;
  run.name = "SUSANPIPE";
  run.program = builder.build(options);
  run.buffers = buffers;
  run.validate = [buffers, input] {
    return *buffers == susan_pipe_reference(input);
  };
  // Sequential baseline: the four loops back to back, once per frame.
  for (std::uint32_t frame = 0; frame < frames; ++frame) {
    const auto px = static_cast<std::uint32_t>(input.pixels());
    core::Footprint init;
    init.compute(input.pixels() * kPipeInitCyclesPerPixel);
    init.write(kArenaA, px);
    run.sequential_plan.push_back(std::move(init));
    core::Footprint smooth;
    smooth.compute(input.pixels() * kPipeSmoothCyclesPerPixel);
    smooth.read(kArenaA, px);
    smooth.write(kArenaB, px);
    run.sequential_plan.push_back(std::move(smooth));
    core::Footprint edge;
    edge.compute(input.pixels() * kPipeEdgeCyclesPerPixel);
    edge.read(kArenaB, px);
    edge.write(kArenaC, 2 * px);
    run.sequential_plan.push_back(std::move(edge));
    core::Footprint corner;
    corner.compute(input.pixels() * kPipeCornerCyclesPerPixel);
    corner.read(kArenaC, 2 * px);
    corner.write(kArenaD, px);
    run.sequential_plan.push_back(std::move(corner));
  }
  return run;
}

}  // namespace tflux::apps
