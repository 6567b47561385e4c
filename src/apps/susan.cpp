#include "apps/susan.h"

#include <algorithm>
#include <memory>
#include <string>

#include "apps/susan_smooth.h"
#include "core/unroll.h"
#include "sim/rng.h"

namespace tflux::apps {
namespace {

struct SusanBuffers {
  std::uint32_t width = 0, height = 0;
  std::vector<std::uint8_t> input;
  std::vector<std::uint8_t> smoothed;
  std::vector<std::uint8_t> output;  // the "large output array"
};

/// Deterministic synthetic image: smooth gradients + speckle noise -
/// exercises both the flat and edge paths of the filter.
void init_rows(SusanBuffers& buf, std::uint32_t row_begin,
               std::uint32_t row_end) {
  const std::uint32_t w = buf.width;
  for (std::uint32_t y = row_begin; y < row_end; ++y) {
    sim::SplitMix64 rng(0x1111u + y);  // per-row stream: order-free
    for (std::uint32_t x = 0; x < w; ++x) {
      const std::uint32_t base =
          (x * 255u / (w ? w : 1) + y * 3u) & 0xFFu;
      const std::uint32_t noise =
          static_cast<std::uint32_t>(rng.next_below(24));
      buf.input[static_cast<std::size_t>(y) * w + x] =
          static_cast<std::uint8_t>((base + noise) & 0xFFu);
    }
  }
}

void write_rows(SusanBuffers& buf, std::uint32_t row_begin,
                std::uint32_t row_end) {
  const std::uint32_t w = buf.width;
  for (std::uint32_t y = row_begin; y < row_end; ++y) {
    for (std::uint32_t x = 0; x < w; ++x) {
      buf.output[static_cast<std::size_t>(y) * w + x] =
          buf.smoothed[static_cast<std::size_t>(y) * w + x];
    }
  }
}

}  // namespace

SusanInput susan_input(SizeClass size) {
  switch (size) {
    case SizeClass::kSmall:
      return SusanInput{256, 288};
    case SizeClass::kMedium:
      return SusanInput{512, 576};
    case SizeClass::kLarge:
      return SusanInput{1024, 576};
  }
  return SusanInput{256, 288};
}

std::vector<std::uint8_t> susan_input_image(const SusanInput& input) {
  SusanBuffers buf;
  buf.width = input.width;
  buf.height = input.height;
  buf.input.assign(input.pixels(), 0);
  init_rows(buf, 0, input.height);
  return buf.input;
}

std::vector<std::uint8_t> susan_sequential(const SusanInput& input) {
  SusanBuffers buf;
  buf.width = input.width;
  buf.height = input.height;
  buf.input.assign(input.pixels(), 0);
  buf.smoothed.assign(input.pixels(), 0);
  buf.output.assign(input.pixels(), 0);
  init_rows(buf, 0, input.height);
  smooth_rows(buf.input.data(), buf.smoothed.data(), buf.width, buf.height,
              0, buf.height);
  write_rows(buf, 0, input.height);
  return buf.output;
}

AppRun build_susan(const SusanInput& input, const DdmParams& params) {
  auto buffers = std::make_shared<SusanBuffers>();
  buffers->width = input.width;
  buffers->height = input.height;
  buffers->input.assign(input.pixels(), 0);
  buffers->smoothed.assign(input.pixels(), 0);
  buffers->output.assign(input.pixels(), 0);

  const std::uint32_t w = input.width;
  const std::uint32_t h = input.height;

  core::ProgramBuilder builder("susan");
  BlockAllocator blocks(builder, params.tsu_capacity);
  const auto chunks = core::chunk_iterations(0, h, params.unroll);

  auto row_range = [w](core::SimAddr arena, std::int64_t r0,
                       std::int64_t r1) {
    return std::pair<core::SimAddr, std::uint32_t>{
        arena + static_cast<core::SimAddr>(r0) * w,
        static_cast<std::uint32_t>((r1 - r0) * w)};
  };

  // --- Phase 1: initialization ---------------------------------------
  blocks.fresh();
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const core::LoopChunk c = chunks[i];
    core::Footprint fp;
    fp.compute(static_cast<core::Cycles>(c.size()) * w *
               kSusanInitCyclesPerPixel);
    const auto [addr, bytes] = row_range(kArenaA, c.begin, c.end);
    fp.write(addr, bytes, /*stream=*/true);
    builder.add_thread(
        blocks.next(), "init" + std::to_string(i),
        [buffers, c](const core::ExecContext&) {
          init_rows(*buffers, static_cast<std::uint32_t>(c.begin),
                    static_cast<std::uint32_t>(c.end));
        },
        std::move(fp));
  }

  // --- Phase 2: processing (smoothing) -------------------------------
  blocks.fresh();
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const core::LoopChunk c = chunks[i];
    core::Footprint fp;
    fp.compute(static_cast<core::Cycles>(c.size()) * w *
               kSusanProcCyclesPerPixel);
    // Reads its rows plus the mask-radius halo above and below.
    const std::int64_t r0 =
        std::max<std::int64_t>(0, c.begin - kSusanSmoothRadius);
    const std::int64_t r1 =
        std::min<std::int64_t>(h, c.end + kSusanSmoothRadius);
    const auto [raddr, rbytes] = row_range(kArenaA, r0, r1);
    fp.read(raddr, rbytes);
    const auto [waddr, wbytes] = row_range(kArenaB, c.begin, c.end);
    fp.write(waddr, wbytes);
    builder.add_thread(
        blocks.next(), "proc" + std::to_string(i),
        [buffers, c](const core::ExecContext&) {
          SusanBuffers& buf = *buffers;
          smooth_rows(buf.input.data(), buf.smoothed.data(), buf.width,
                      buf.height, static_cast<std::uint32_t>(c.begin),
                      static_cast<std::uint32_t>(c.end));
        },
        std::move(fp));
  }

  // --- Phase 3: write to the large output array ----------------------
  blocks.fresh();
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const core::LoopChunk c = chunks[i];
    core::Footprint fp;
    fp.compute(static_cast<core::Cycles>(c.size()) * w *
               kSusanOutCyclesPerPixel);
    const auto [raddr, rbytes] = row_range(kArenaB, c.begin, c.end);
    fp.read(raddr, rbytes, /*stream=*/true);
    const auto [waddr, wbytes] = row_range(kArenaC, c.begin, c.end);
    fp.write(waddr, wbytes, /*stream=*/true);
    builder.add_thread(
        blocks.next(), "out" + std::to_string(i),
        [buffers, c](const core::ExecContext&) {
          write_rows(*buffers, static_cast<std::uint32_t>(c.begin),
                     static_cast<std::uint32_t>(c.end));
        },
        std::move(fp));
  }

  core::BuildOptions options;
  options.num_kernels = params.num_kernels;
  options.tsu_capacity = params.tsu_capacity;

  AppRun run;
  run.name = "SUSAN";
  run.program = builder.build(options);
  run.buffers = buffers;
  run.validate = [buffers, input] {
    return buffers->output == susan_sequential(input);
  };
  // Sequential baseline: the three loops back to back on one core.
  {
    core::Footprint seq;
    seq.compute(input.pixels() * kSusanInitCyclesPerPixel);
    seq.write(kArenaA, static_cast<std::uint32_t>(input.pixels()));
    run.sequential_plan.push_back(std::move(seq));
    core::Footprint proc;
    proc.compute(input.pixels() * kSusanProcCyclesPerPixel);
    proc.read(kArenaA, static_cast<std::uint32_t>(input.pixels()));
    proc.write(kArenaB, static_cast<std::uint32_t>(input.pixels()));
    run.sequential_plan.push_back(std::move(proc));
    core::Footprint out;
    out.compute(input.pixels() * kSusanOutCyclesPerPixel);
    out.read(kArenaB, static_cast<std::uint32_t>(input.pixels()));
    out.write(kArenaC, static_cast<std::uint32_t>(input.pixels()));
    run.sequential_plan.push_back(std::move(out));
  }
  return run;
}

}  // namespace tflux::apps
