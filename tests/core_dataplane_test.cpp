// SharedVariableBuffer data-plane tests: footprint overlap (including
// the zero-byte-range guarantee), forward-run construction over
// same-block and cross-block arcs, the once-per-Program table cache,
// affinity scoring, dispatch accounting and record rewind, plus a simulated-machine integration pass proving the
// TsuState counters stay internally consistent under every policy.
#include "core/dataplane.h"

#include <gtest/gtest.h>

#include <algorithm>

#include <thread>
#include <vector>

#include "apps/susan_pipeline.h"
#include "core/builder.h"
#include "core/topology.h"
#include "machine/config.h"
#include "machine/machine.h"

namespace tflux::core {
namespace {

// ---------------------------------------------------------------------------
// footprint_overlap_bytes
// ---------------------------------------------------------------------------

TEST(FootprintOverlapTest, IntersectsWriteAgainstReadRanges) {
  Footprint w;
  w.write(0x1000, 100);
  Footprint r;
  r.read(0x1000 + 40, 100);
  EXPECT_EQ(footprint_overlap_bytes(w, r), 60u);
}

TEST(FootprintOverlapTest, IgnoresDirectionMismatches) {
  Footprint w;
  w.read(0x1000, 100);  // producer *reads* here - not a contribution
  Footprint r;
  r.read(0x1000, 100);
  EXPECT_EQ(footprint_overlap_bytes(w, r), 0u);

  Footprint w2;
  w2.write(0x1000, 100);
  Footprint r2;
  r2.write(0x1000, 100);  // consumer *writes* here - not an input
  EXPECT_EQ(footprint_overlap_bytes(w2, r2), 0u);
}

TEST(FootprintOverlapTest, ZeroByteRangesContributeNothing) {
  Footprint w;
  w.write(0x1000, 0);   // legal (ddmlint warns), but no payload
  w.write(0x2000, 64);
  Footprint r;
  r.read(0x1000, 0);
  r.read(0x2000, 64);
  EXPECT_EQ(footprint_overlap_bytes(w, r), 64u);

  Footprint rz;
  rz.read(0x1000, 0);   // consumer reads only the empty range
  EXPECT_EQ(footprint_overlap_bytes(w, rz), 0u);
}

TEST(FootprintOverlapTest, SumsOverMultipleRangePairs) {
  Footprint w;
  w.write(0x1000, 50);
  w.write(0x3000, 50);
  Footprint r;
  r.read(0x1000, 200);
  r.read(0x3000 + 25, 10);
  EXPECT_EQ(footprint_overlap_bytes(w, r), 60u);
}

// ---------------------------------------------------------------------------
// Static tables: contributions and forward runs.
// ---------------------------------------------------------------------------

Program one_block_fanout() {
  // p (id 0) -> c1, c2, c3 (ids 1-3, consecutive -> one consumer run).
  ProgramBuilder b("fanout");
  const BlockId blk = b.add_block();
  Footprint wp;
  wp.write(0x1000, 300);
  const ThreadId p = b.add_thread(blk, "p", {}, std::move(wp));
  for (int i = 0; i < 3; ++i) {
    Footprint rc;
    rc.read(0x1000 + static_cast<SimAddr>(i) * 100, 100);
    const ThreadId c =
        b.add_thread(blk, "c" + std::to_string(i), {}, std::move(rc));
    b.add_arc(p, c);
  }
  return b.build({.num_kernels = 4});
}

TEST(DataPlaneTest, SameBlockRunsCoalesceConsecutiveConsumers) {
  const Program program = one_block_fanout();
  const DataPlaneTables& plane = program.dataplane_tables();

  const auto& runs = plane.forward_runs(0, /*coalesce=*/true);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0], (ForwardRun{1, 3, 300}));

  const auto& units = plane.forward_runs(0, /*coalesce=*/false);
  ASSERT_EQ(units.size(), 3u);
  for (ThreadId c = 1; c <= 3; ++c) {
    EXPECT_EQ(units[c - 1], (ForwardRun{c, c, 100}));
    const auto& contribs = plane.contributions(c);
    ASSERT_EQ(contribs.size(), 1u);
    EXPECT_EQ(contribs[0], (Contribution{0, 100}));
  }
}

TEST(DataPlaneTest, ZeroPayloadArcsAreDroppedEverywhere) {
  // The producer writes one real range and one zero-byte range; the
  // middle consumer reads only the zero-byte range, so its arc carries
  // nothing: no contribution, no unit forward, and the coalesced run
  // counts only the real payload.
  ProgramBuilder b("zero");
  const BlockId blk = b.add_block();
  Footprint wp;
  wp.write(0x1000, 100);
  wp.write(0x9000, 0);
  const ThreadId p = b.add_thread(blk, "p", {}, std::move(wp));
  Footprint r1;
  r1.read(0x1000, 50);
  const ThreadId c1 = b.add_thread(blk, "c1", {}, std::move(r1));
  Footprint r2;
  r2.read(0x9000, 0);
  const ThreadId c2 = b.add_thread(blk, "c2", {}, std::move(r2));
  b.add_arc(p, c1);
  b.add_arc(p, c2);
  const Program program = b.build({.num_kernels = 2});
  const DataPlaneTables& plane = program.dataplane_tables();

  EXPECT_TRUE(plane.contributions(c2).empty());
  const auto& units = plane.forward_runs(p, /*coalesce=*/false);
  ASSERT_EQ(units.size(), 1u);
  EXPECT_EQ(units[0], (ForwardRun{c1, c1, 50}));
  const auto& runs = plane.forward_runs(p, /*coalesce=*/true);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].bytes, 50u);
}

TEST(DataPlaneTest, CrossBlockRunsSplitAtConsumerBlockBoundaries) {
  // p in block 0; consumers ids 1,2 in block 1 and id 3 in block 2,
  // consecutive ids - a forward never spans two block activations.
  ProgramBuilder b("xblock");
  const BlockId b0 = b.add_block();
  Footprint wp;
  wp.write(0x1000, 300);
  const ThreadId p = b.add_thread(b0, "p", {}, std::move(wp));
  const BlockId b1 = b.add_block();
  std::vector<ThreadId> cs;
  for (int i = 0; i < 2; ++i) {
    Footprint rc;
    rc.read(0x1000 + static_cast<SimAddr>(i) * 100, 100);
    cs.push_back(
        b.add_thread(b1, "c" + std::to_string(i), {}, std::move(rc)));
  }
  const BlockId b2 = b.add_block();
  Footprint rc;
  rc.read(0x1000 + 200, 100);
  cs.push_back(b.add_thread(b2, "c2", {}, std::move(rc)));
  for (ThreadId c : cs) b.add_arc(p, c);
  const Program program = b.build({.num_kernels = 2});
  const DataPlaneTables& plane = program.dataplane_tables();

  const auto& runs = plane.forward_runs(p, /*coalesce=*/true);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0], (ForwardRun{cs[0], cs[1], 200}));
  EXPECT_EQ(runs[1], (ForwardRun{cs[2], cs[2], 100}));
  // Contributions exist for all three cross-block consumers.
  for (ThreadId c : cs) {
    ASSERT_EQ(plane.contributions(c).size(), 1u);
    EXPECT_EQ(plane.contributions(c)[0].producer, p);
  }
}

TEST(DataPlaneTest, TablesAreBuiltOncePerProgramAndSharedByRecords) {
  const Program program = one_block_fanout();
  const DataPlane first(program);
  const DataPlane second(program);
  EXPECT_EQ(&first.tables(), &program.dataplane_tables());
  EXPECT_EQ(&second.tables(), &program.dataplane_tables());

  // A copy is a different Program: it builds (equal) tables of its own.
  const Program copy = program;
  EXPECT_NE(&copy.dataplane_tables(), &program.dataplane_tables());
  EXPECT_TRUE(std::ranges::equal(
      copy.dataplane_tables().forward_runs(0, true),
      program.dataplane_tables().forward_runs(0, true)));
}

TEST(DataPlaneTest, ConcurrentFirstUsersShareOneBuild) {
  const Program program = one_block_fanout();
  std::vector<const DataPlaneTables*> seen(4, nullptr);
  std::vector<std::thread> users;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    users.emplace_back([&, i] { seen[i] = &program.dataplane_tables(); });
  }
  for (std::thread& t : users) t.join();
  for (const DataPlaneTables* t : seen) EXPECT_EQ(t, seen.front());
}

// ---------------------------------------------------------------------------
// Dynamic record: scoring and dispatch accounting.
// ---------------------------------------------------------------------------

struct TwoProducerFixture {
  Program program;
  ThreadId p_small = kInvalidThread;  // writes 100 B of c's input
  ThreadId p_large = kInvalidThread;  // writes 200 B of c's input
  ThreadId c = kInvalidThread;

  static TwoProducerFixture make() {
    ProgramBuilder b("score");
    const BlockId b0 = b.add_block();
    Footprint w1;
    w1.write(0x1000, 100);
    const ThreadId p1 = b.add_thread(b0, "p_small", {}, std::move(w1));
    Footprint w2;
    w2.write(0x2000, 200);
    const ThreadId p2 = b.add_thread(b0, "p_large", {}, std::move(w2));
    const BlockId b1 = b.add_block();
    Footprint rc;
    rc.read(0x1000, 100);
    rc.read(0x2000, 200);
    const ThreadId c = b.add_thread(b1, "c", {}, std::move(rc));
    b.add_arc(p1, c);
    b.add_arc(p2, c);
    return {b.build({.num_kernels = 4}), p1, p2, c};
  }
};

TEST(DataPlaneTest, ScoreTracksWarmBytesPerKernel) {
  auto fx = TwoProducerFixture::make();
  const DataPlane plane(fx.program);

  AffinityScore s = plane.score(fx.c);
  EXPECT_EQ(s.best, kInvalidKernel);  // cold: nothing recorded yet
  EXPECT_EQ(s.total_bytes, 0u);

  plane.record_execution(fx.p_small, 2);
  s = plane.score(fx.c);
  EXPECT_EQ(s.best, 2);
  EXPECT_EQ(s.best_bytes, 100u);
  EXPECT_EQ(s.total_bytes, 100u);

  plane.record_execution(fx.p_large, 3);
  s = plane.score(fx.c);
  EXPECT_EQ(s.best, 3);
  EXPECT_EQ(s.best_bytes, 200u);
  EXPECT_EQ(s.total_bytes, 300u);

  // Same kernel executing both: bytes accumulate.
  plane.record_execution(fx.p_small, 3);
  s = plane.score(fx.c);
  EXPECT_EQ(s.best, 3);
  EXPECT_EQ(s.best_bytes, 300u);
}

TEST(DataPlaneTest, RewindForgetsEveryExecution) {
  auto fx = TwoProducerFixture::make();
  DataPlane plane(fx.program);
  plane.record_execution(fx.p_small, 1);
  plane.record_execution(fx.p_large, 2);
  EXPECT_FALSE(plane.account_dispatch(fx.c, 0).cold);

  plane.rewind();
  EXPECT_EQ(plane.exec_kernel(fx.p_small), kInvalidKernel);
  EXPECT_EQ(plane.exec_kernel(fx.p_large), kInvalidKernel);
  EXPECT_TRUE(plane.account_dispatch(fx.c, 0).cold);
}

TEST(DataPlaneTest, ScoreTiesGoToLowestKernel) {
  // Two producers with *equal* payloads on different kernels.
  ProgramBuilder b("tie");
  const BlockId b0 = b.add_block();
  Footprint w1;
  w1.write(0x1000, 100);
  const ThreadId p1 = b.add_thread(b0, "p1", {}, std::move(w1));
  Footprint w2;
  w2.write(0x2000, 100);
  const ThreadId p2 = b.add_thread(b0, "p2", {}, std::move(w2));
  const BlockId b1 = b.add_block();
  Footprint rc;
  rc.read(0x1000, 100);
  rc.read(0x2000, 100);
  const ThreadId c = b.add_thread(b1, "c", {}, std::move(rc));
  b.add_arc(p1, c);
  b.add_arc(p2, c);
  const Program program = b.build({.num_kernels = 4});
  const DataPlane plane(program);

  plane.record_execution(p1, 3);
  plane.record_execution(p2, 1);
  const AffinityScore s = plane.score(c);
  EXPECT_EQ(s.best, 1);  // deterministic tie-break: lowest kernel id
  EXPECT_EQ(s.best_bytes, 100u);
  EXPECT_EQ(s.total_bytes, 200u);

  // Both kernels hold a maximal share: dispatching to either is a hit.
  EXPECT_TRUE(plane.account_dispatch(c, 1).hit);
  EXPECT_TRUE(plane.account_dispatch(c, 3).hit);
  EXPECT_FALSE(plane.account_dispatch(c, 0).hit);
}

TEST(DataPlaneTest, AccountDispatchClassifiesColdHitMiss) {
  auto fx = TwoProducerFixture::make();
  const DataPlane plane(fx.program);

  const auto cold = plane.account_dispatch(fx.c, 0);
  EXPECT_TRUE(cold.cold);
  EXPECT_FALSE(cold.hit);
  EXPECT_EQ(cold.cross_shard_bytes, 0u);

  plane.record_execution(fx.p_small, 0);
  plane.record_execution(fx.p_large, 2);
  const auto hit = plane.account_dispatch(fx.c, 2);
  EXPECT_TRUE(hit.hit);
  EXPECT_FALSE(hit.cold);
  const auto miss = plane.account_dispatch(fx.c, 0);
  EXPECT_FALSE(miss.hit);
  EXPECT_FALSE(miss.cold);
}

TEST(DataPlaneTest, CrossShardBytesFollowTheShardMap) {
  auto fx = TwoProducerFixture::make();
  // 4 kernels, 2 clustered shards: {0,1} and {2,3}.
  const ShardMap shards = ShardMap::clustered(4, 2);
  const DataPlane plane(fx.program, &shards);

  plane.record_execution(fx.p_small, 1);  // shard 0
  plane.record_execution(fx.p_large, 2);  // shard 1

  // Target in shard 1: the small producer's 100 B live across the
  // boundary.
  EXPECT_EQ(plane.account_dispatch(fx.c, 3).cross_shard_bytes, 100u);
  // Target in shard 0: the large producer's 200 B are remote.
  EXPECT_EQ(plane.account_dispatch(fx.c, 0).cross_shard_bytes, 200u);
}

// ---------------------------------------------------------------------------
// Simulated-machine integration: counters stay consistent and the
// ablation really turns the plane off.
// ---------------------------------------------------------------------------

class MachineDataPlaneTest
    : public ::testing::TestWithParam<core::PolicyKind> {};

TEST_P(MachineDataPlaneTest, CountersReconcileUnderEveryPolicy) {
  apps::DdmParams params;
  params.num_kernels = 4;
  const apps::SusanPipeInput in{64, 48, 4, 2};
  apps::AppRun run = apps::build_susan_pipeline(in, params);

  machine::MachineConfig cfg = machine::xeon_soft(4);
  cfg.policy = GetParam();
  machine::Machine m(cfg, run.program);
  const machine::MachineStats st = m.run();

  EXPECT_TRUE(run.validate());
  // Every application dispatch is classified exactly once.
  EXPECT_EQ(st.tsu.affinity_hits + st.tsu.affinity_misses +
                st.tsu.affinity_cold,
            st.threads_executed);
  // The pipeline's cross-block arcs carry real payload.
  EXPECT_GT(st.tsu.forwards, 0u);
  EXPECT_GT(st.tsu.bytes_forwarded, 0u);
}

INSTANTIATE_TEST_SUITE_P(Policies, MachineDataPlaneTest,
                         ::testing::Values(core::PolicyKind::kFifo,
                                           core::PolicyKind::kLocality,
                                           core::PolicyKind::kAffinity));

TEST(MachineDataPlaneTest, AblationDisablesAllAccounting) {
  apps::DdmParams params;
  params.num_kernels = 4;
  const apps::SusanPipeInput in{64, 48, 4, 2};
  apps::AppRun run = apps::build_susan_pipeline(in, params);

  machine::MachineConfig cfg = machine::xeon_soft(4);
  cfg.policy = core::PolicyKind::kAffinity;  // degrades without the plane
  cfg.dataplane = false;
  machine::Machine m(cfg, run.program);
  const machine::MachineStats st = m.run();

  EXPECT_TRUE(run.validate());
  EXPECT_EQ(st.tsu.forwards, 0u);
  EXPECT_EQ(st.tsu.bytes_forwarded, 0u);
  EXPECT_EQ(st.tsu.affinity_hits, 0u);
  EXPECT_EQ(st.tsu.affinity_misses, 0u);
  EXPECT_EQ(st.tsu.affinity_cold, 0u);
  EXPECT_EQ(st.tsu.cross_shard_bytes, 0u);
}

}  // namespace
}  // namespace tflux::core
