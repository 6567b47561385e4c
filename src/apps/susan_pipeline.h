// SUSANPIPE: a DDRoom-style tiled multi-stage image pipeline built
// from the SUSAN operator family - per frame, smooth (7x7 similarity
// weighted) -> edge (3x3 gradient response) -> corner (5x5 non-maximum
// suppression), repeated over a short frame sequence with the planes
// reused in place (the video-processing shape of the DDRoom workload).
//
// Unlike SUSAN (three loops, matched strip counts), the stages tile at
// different granularities - T strips for smooth/corner, 2T for edge -
// so the per-block round-robin home assignment structurally misaligns
// producers and consumers: without data-plane affinity, a consumer
// strip lands on a kernel that holds almost none of its input bytes
// and every inter-stage read crosses the bus. The inter-stage arcs are
// declared explicitly (cross-block data arcs), which is what feeds the
// data plane's contribution tables.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/common.h"

namespace tflux::apps {

struct SusanPipeInput {
  std::uint32_t width = 256;
  std::uint32_t height = 288;
  /// Strip count T of the smooth and corner stages; edge uses 2T.
  std::uint32_t strips = 24;
  /// Frames pushed through the pipeline (planes reused in place).
  std::uint32_t frames = 3;

  std::uint64_t pixels() const {
    return static_cast<std::uint64_t>(width) * height;
  }
};

SusanPipeInput susan_pipe_input(SizeClass size);

/// The pipeline's four row-major planes, one per stage.
struct SusanPipePlanes {
  std::uint32_t width = 0, height = 0;
  std::vector<std::uint8_t> input;     // kArenaA, 1 B/px
  std::vector<std::uint8_t> smoothed;  // kArenaB, 1 B/px
  std::vector<std::int16_t> edge;      // kArenaC, 2 B/px
  std::vector<std::uint8_t> corner;    // kArenaD, 1 B/px

  bool operator==(const SusanPipePlanes&) const = default;
};

/// Sequential reference state after the last frame, every plane.
SusanPipePlanes susan_pipe_reference(const SusanPipeInput& input);

/// Sequential reference state after the last frame: the corner map
/// (the pipeline's output plane).
std::vector<std::uint8_t> susan_pipe_sequential(const SusanPipeInput& input);

AppRun build_susan_pipeline(const SusanPipeInput& input,
                            const DdmParams& params);

/// Timing-model constants (cycles per pixel). The pipeline models the
/// DDRoom port's vectorized fixed-point kernels, an order of magnitude
/// tighter than scalar MiBench SUSAN - which is exactly what makes the
/// stages memory-bound and the data plane's placement matter.
inline constexpr core::Cycles kPipeInitCyclesPerPixel = 1;
inline constexpr core::Cycles kPipeSmoothCyclesPerPixel = 4;
inline constexpr core::Cycles kPipeEdgeCyclesPerPixel = 2;
inline constexpr core::Cycles kPipeCornerCyclesPerPixel = 3;

}  // namespace tflux::apps
