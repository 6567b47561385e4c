// Managed data-plane tests on the native TFluxSoft runtime: results
// stay sequential-identical under affinity placement across apps x
// shard counts x the --no-dataplane ablation; the forwarding /
// affinity statistics reconcile EXACTLY against an offline ddmcheck
// replay of the execution trace, also on a Runtime re-run back to
// back; arc-free programs fall back to all-cold placement; and
// zero-byte footprint ranges never produce a forwarded byte
// end-to-end.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "apps/suite.h"
#include "core/builder.h"
#include "core/check.h"
#include "core/ddmtrace.h"
#include "runtime/runtime.h"

namespace tflux {
namespace {

std::uint64_t total_forwards(const runtime::RuntimeStats& st) {
  std::uint64_t n = 0;
  for (const auto& k : st.kernels) n += k.forwards;
  return n;
}

std::uint64_t total_bytes_forwarded(const runtime::RuntimeStats& st) {
  std::uint64_t n = 0;
  for (const auto& k : st.kernels) n += k.bytes_forwarded;
  return n;
}

/// The run's data-plane counters must equal ddmcheck's replay tally.
void expect_reconciles(const core::Program& program,
                       const core::ExecTrace& trace,
                       const runtime::RuntimeStats& stats) {
  const core::CheckReport report = core::check_trace(program, trace);
  EXPECT_TRUE(report.findings.empty()) << report.to_string(program);
  EXPECT_EQ(report.dataplane.forwards, total_forwards(stats));
  EXPECT_EQ(report.dataplane.bytes_forwarded, total_bytes_forwarded(stats));
  EXPECT_EQ(report.dataplane.affinity_hits, stats.emulator.affinity_hits);
  EXPECT_EQ(report.dataplane.affinity_misses,
            stats.emulator.affinity_misses);
  EXPECT_EQ(report.dataplane.affinity_cold, stats.emulator.affinity_cold);
  EXPECT_EQ(report.dataplane.cross_shard_bytes,
            stats.emulator.cross_shard_bytes);
}

// ---------------------------------------------------------------------------
// Determinism: affinity placement (and its ablation) never changes
// results, with and without sharding.
// ---------------------------------------------------------------------------

// gtest names a parameterized case by dumping its parameter's bytes.
// The `pin` bytes of SweepConfig and ReplayConfig sit where struct
// padding would otherwise be - padding whose contents are
// indeterminate and so made a case's name change from build to build
// and run to run. Each case pins them to the bytes it has always been
// listed under, so every case keeps one fixed name.
struct SweepConfig {
  apps::AppKind app;
  std::uint8_t pin_lo;
  std::uint16_t shards;
  bool dataplane;
  std::uint8_t pin_hi;
};
static_assert(sizeof(SweepConfig) == 6, "a case name must hold no padding");

SweepConfig sweep(apps::AppKind app, std::uint16_t shards, bool dataplane,
                  std::uint8_t pin_lo = 0, std::uint8_t pin_hi = 0) {
  return SweepConfig{app, pin_lo, shards, dataplane, pin_hi};
}

class DataPlaneSweepTest : public ::testing::TestWithParam<SweepConfig> {};

TEST_P(DataPlaneSweepTest, AffinityRunsValidate) {
  const SweepConfig& cfg = GetParam();
  apps::DdmParams params;
  params.num_kernels = 4;
  params.unroll = 8;
  params.tsu_capacity = 64;  // force several DDM Blocks
  apps::AppRun run = apps::build_app(cfg.app, apps::SizeClass::kSmall,
                                     apps::Platform::kSimulated, params);

  runtime::RuntimeOptions options;
  options.num_kernels = params.num_kernels;
  options.policy = core::PolicyKind::kAffinity;
  options.shards = cfg.shards;
  options.dataplane = cfg.dataplane;
  runtime::Runtime rt(run.program, options);
  const runtime::RuntimeStats stats = rt.run();

  EXPECT_TRUE(run.validate()) << run.name;
  // Every application dispatch is classified exactly once - or not at
  // all when the plane is ablated away.
  const std::uint64_t classified = stats.emulator.affinity_hits +
                                   stats.emulator.affinity_misses +
                                   stats.emulator.affinity_cold;
  if (cfg.dataplane) {
    EXPECT_EQ(classified, stats.total_app_threads_executed());
  } else {
    EXPECT_EQ(classified, 0u);
    EXPECT_EQ(total_forwards(stats), 0u);
    EXPECT_EQ(total_bytes_forwarded(stats), 0u);
    EXPECT_EQ(stats.emulator.cross_shard_bytes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AppsByShardsByPlane, DataPlaneSweepTest,
    ::testing::Values(sweep(apps::AppKind::kSusanPipe, 0, true),
                      sweep(apps::AppKind::kSusanPipe, 0, false),
                      sweep(apps::AppKind::kSusanPipe, 2, true),
                      sweep(apps::AppKind::kSusanPipe, 2, false, 0x1B),
                      sweep(apps::AppKind::kMmult, 0, true),
                      sweep(apps::AppKind::kMmult, 2, true, 0xCA),
                      sweep(apps::AppKind::kQsort, 0, true, 0, 0xDA),
                      sweep(apps::AppKind::kQsort, 2, false, 0, 0xCA),
                      sweep(apps::AppKind::kFft, 2, true)));

// ---------------------------------------------------------------------------
// The pipeline workload actually exercises the plane: payload moves,
// and warm placement finds at least some of it.
// ---------------------------------------------------------------------------

TEST(DataPlanePipelineTest, PipelineForwardsBytesAndScoresHits) {
  apps::DdmParams params;
  params.num_kernels = 4;
  apps::AppRun run =
      apps::build_app(apps::AppKind::kSusanPipe, apps::SizeClass::kSmall,
                      apps::Platform::kSimulated, params);

  runtime::RuntimeOptions options;
  options.num_kernels = params.num_kernels;
  options.policy = core::PolicyKind::kAffinity;
  runtime::Runtime rt(run.program, options);
  const runtime::RuntimeStats stats = rt.run();

  EXPECT_TRUE(run.validate());
  EXPECT_GT(total_forwards(stats), 0u);
  EXPECT_GT(total_bytes_forwarded(stats), 0u);
  EXPECT_GT(stats.emulator.affinity_hits, 0u);
}

// ---------------------------------------------------------------------------
// Reconciliation: the live counters must match an offline ddmcheck
// replay of the trace EXACTLY, for both coalesced and unit forwarding
// and under sharded topologies.
// ---------------------------------------------------------------------------

struct ReplayConfig {
  core::PolicyKind policy;
  std::uint8_t pin_lo;  // case-name bytes: see SweepConfig
  std::uint16_t shards;
  bool coalesce;
  std::uint8_t pin_hi;
};
static_assert(sizeof(ReplayConfig) == 6, "a case name must hold no padding");

ReplayConfig replay(core::PolicyKind policy, std::uint16_t shards,
                    bool coalesce, std::uint8_t pin_lo = 0,
                    std::uint8_t pin_hi = 0) {
  return ReplayConfig{policy, pin_lo, shards, coalesce, pin_hi};
}

class DataPlaneReplayTest : public ::testing::TestWithParam<ReplayConfig> {};

TEST_P(DataPlaneReplayTest, TraceReplayReconcilesExactly) {
  const ReplayConfig& cfg = GetParam();
  apps::DdmParams params;
  params.num_kernels = 4;
  apps::AppRun run =
      apps::build_app(apps::AppKind::kSusanPipe, apps::SizeClass::kSmall,
                      apps::Platform::kSimulated, params);

  core::ExecTrace trace;
  runtime::RuntimeOptions options;
  options.num_kernels = params.num_kernels;
  options.policy = cfg.policy;
  options.shards = cfg.shards;
  options.coalesce_updates = cfg.coalesce;
  options.trace = &trace;
  runtime::Runtime rt(run.program, options);
  const runtime::RuntimeStats stats = rt.run();
  EXPECT_TRUE(run.validate());
  expect_reconciles(run.program, trace, stats);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesByShardsByCoalesce, DataPlaneReplayTest,
    ::testing::Values(replay(core::PolicyKind::kAffinity, 0, true, 0xCD),
                      replay(core::PolicyKind::kAffinity, 0, false),
                      replay(core::PolicyKind::kAffinity, 2, true, 0x7F),
                      replay(core::PolicyKind::kLocality, 0, true, 0x7D),
                      replay(core::PolicyKind::kHier, 2, true, 0xEC)));

// ---------------------------------------------------------------------------
// Reuse: every run of one Runtime gets a fresh execution record (its
// run frame's). At one kernel dispatch is deterministic, so every re-run
// must report exactly a fresh Runtime's first-run counters, and each
// run's trace must replay (over a fresh record) to the same tallies.
// ---------------------------------------------------------------------------

TEST(DataPlaneReuseTest, RerunsMatchAFreshRuntimeAndReconcile) {
  apps::DdmParams params;
  params.num_kernels = 1;
  params.tsu_capacity = 64;  // several DDM Blocks: cross-block forwards
  apps::AppRun run =
      apps::build_app(apps::AppKind::kSusanPipe, apps::SizeClass::kSmall,
                      apps::Platform::kSimulated, params);

  core::ExecTrace trace;
  runtime::RuntimeOptions options;
  options.num_kernels = 1;
  options.policy = core::PolicyKind::kAffinity;
  options.trace = &trace;
  const runtime::RuntimeStats fresh = runtime::Runtime(run.program, options).run();
  EXPECT_TRUE(run.validate());
  expect_reconciles(run.program, trace, fresh);
  ASSERT_GT(fresh.emulator.affinity_hits, 0u);
  ASSERT_GT(total_forwards(fresh), 0u);

  runtime::Runtime rt(run.program, options);
  for (std::uint64_t round = 1; round <= 3; ++round) {
    if (run.reset) run.reset();
    const runtime::RuntimeStats st = rt.run();
    EXPECT_EQ(st.epoch, round);
    EXPECT_TRUE(run.validate());
    EXPECT_EQ(st.emulator.affinity_hits, fresh.emulator.affinity_hits);
    EXPECT_EQ(st.emulator.affinity_misses, fresh.emulator.affinity_misses);
    EXPECT_EQ(st.emulator.affinity_cold, fresh.emulator.affinity_cold);
    EXPECT_EQ(total_forwards(st), total_forwards(fresh));
    EXPECT_EQ(total_bytes_forwarded(st), total_bytes_forwarded(fresh));
    expect_reconciles(run.program, trace, st);
  }
}

// ---------------------------------------------------------------------------
// Forced-cold fallback: SUSAN's phases synchronize through block
// barriers alone (no arcs carry payload), so the plane records
// nothing and every placement is cold - but the run still validates
// and still classifies every dispatch.
// ---------------------------------------------------------------------------

TEST(DataPlaneColdTest, ArcFreeProgramsFallBackToColdPlacement) {
  apps::DdmParams params;
  params.num_kernels = 4;
  params.tsu_capacity = 64;
  apps::AppRun run =
      apps::build_app(apps::AppKind::kSusan, apps::SizeClass::kSmall,
                      apps::Platform::kSimulated, params);

  runtime::RuntimeOptions options;
  options.num_kernels = params.num_kernels;
  options.policy = core::PolicyKind::kAffinity;
  runtime::Runtime rt(run.program, options);
  const runtime::RuntimeStats stats = rt.run();

  EXPECT_TRUE(run.validate());
  EXPECT_EQ(stats.emulator.affinity_hits, 0u);
  EXPECT_EQ(stats.emulator.affinity_misses, 0u);
  EXPECT_EQ(stats.emulator.affinity_cold,
            stats.total_app_threads_executed());
  EXPECT_EQ(total_forwards(stats), 0u);
  EXPECT_EQ(total_bytes_forwarded(stats), 0u);
}

// ---------------------------------------------------------------------------
// Zero-byte ranges end-to-end: a producer whose footprint declares an
// empty write range forwards exactly the nonzero payload - never a
// zero-length copy - and the replay agrees.
// ---------------------------------------------------------------------------

TEST(DataPlaneZeroByteTest, EmptyRangesNeverForwardBytes) {
  core::ProgramBuilder b("zero_e2e");
  const core::BlockId blk = b.add_block();
  core::Footprint wp;
  wp.write(0x1000, 64);
  wp.write(0x9000, 0);  // declared but empty
  const core::ThreadId p = b.add_thread(blk, "p", {}, std::move(wp));
  core::Footprint r1;
  r1.read(0x1000, 64);
  const core::ThreadId c1 = b.add_thread(blk, "c1", {}, std::move(r1));
  core::Footprint r2;
  r2.read(0x9000, 0);  // consumes only the empty range
  const core::ThreadId c2 = b.add_thread(blk, "c2", {}, std::move(r2));
  b.add_arc(p, c1);
  b.add_arc(p, c2);
  core::Program program = b.build({.num_kernels = 2});

  for (const bool coalesce : {true, false}) {
    core::ExecTrace trace;
    runtime::RuntimeOptions options;
    options.num_kernels = 2;
    options.policy = core::PolicyKind::kAffinity;
    options.coalesce_updates = coalesce;
    options.trace = &trace;
    runtime::Runtime rt(program, options);
    const runtime::RuntimeStats stats = rt.run();

    // Only the 64 real bytes move; the empty range adds nothing.
    EXPECT_EQ(total_bytes_forwarded(stats), 64u) << "coalesce=" << coalesce;
    const core::CheckReport report = core::check_trace(program, trace);
    EXPECT_TRUE(report.findings.empty());
    EXPECT_EQ(report.dataplane.bytes_forwarded, 64u);
    EXPECT_EQ(report.dataplane.forwards, total_forwards(stats));
  }
}

}  // namespace
}  // namespace tflux
