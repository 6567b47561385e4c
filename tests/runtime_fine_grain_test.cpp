// Fine-grained checked runs: TRAPEZ Medium at unroll 1 (32,769
// DThreads of ~1 us, so the TSU Emulator's per-dispatch path is the
// bottleneck and mailbox batches fill) under every dispatch policy,
// 1-4 kernels, both block-transition modes, and three TSU topologies -
// one emulator, two interleaved TSU Groups (the deferred-update path),
// and two clustered shards for the stealing policies. Each run is
// traced and guarded in full: ddmguard must report no violation, the
// ddmcheck replay no finding, and the replay's dispatch and data-plane
// tallies must equal the run's own counters exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "apps/suite.h"
#include "core/check.h"
#include "core/ddmtrace.h"
#include "runtime/runtime.h"

namespace tflux {
namespace {

enum class Topology : std::uint8_t { kFlat, kGroups2, kShards2 };

using FineConfig =
    std::tuple<std::uint16_t, core::PolicyKind, bool, Topology>;

class FineGrainCheckedTest : public ::testing::TestWithParam<FineConfig> {};

TEST_P(FineGrainCheckedTest, TraceAndGuardStayCleanAndReconcile) {
  const auto [kernels, policy, pipeline, topology] = GetParam();
  apps::DdmParams params;
  params.num_kernels = kernels;
  params.unroll = 1;
  apps::AppRun run =
      apps::build_app(apps::AppKind::kTrapez, apps::SizeClass::kMedium,
                      apps::Platform::kNative, params);

  core::ExecTrace trace;
  runtime::RuntimeOptions options;
  options.num_kernels = kernels;
  options.policy = policy;
  options.block_pipeline = pipeline;
  options.tsu_groups = topology == Topology::kGroups2 ? 2 : 1;
  options.shards = topology == Topology::kShards2 ? 2 : 0;
  options.guard.mode = core::GuardMode::kFull;
  options.trace = &trace;
  runtime::Runtime rt(run.program, options);
  const runtime::RuntimeStats st = rt.run();

  EXPECT_TRUE(run.validate());
  EXPECT_EQ(st.total_app_threads_executed(), run.program.num_app_threads());
  EXPECT_EQ(st.guard.violations, 0u);
  EXPECT_TRUE(st.guard_violations.empty());
  EXPECT_EQ(st.guard.sampled_blocks, run.program.num_blocks());

  const core::CheckReport report = core::check_trace(run.program, trace);
  EXPECT_TRUE(report.findings.empty()) << report.to_string(run.program);
  EXPECT_EQ(report.records_checked, trace.records.size());

  // Dispatch routing: every dispatch is home or a steal, whichever
  // emulator made it.
  EXPECT_EQ(report.steals.dispatches, st.emulator.dispatches);
  EXPECT_EQ(report.steals.home, st.emulator.home_dispatches);
  const std::uint64_t away = report.steals.local + report.steals.remote;
  switch (policy) {
    case core::PolicyKind::kFifo:
      EXPECT_EQ(away, st.emulator.dispatches - st.emulator.home_dispatches);
      break;
    case core::PolicyKind::kLocality:
    case core::PolicyKind::kAdaptive:
      EXPECT_EQ(away, st.emulator.steal_dispatches);
      break;
    case core::PolicyKind::kHier:
    case core::PolicyKind::kAffinity:
      EXPECT_EQ(away, st.emulator.steal_dispatches);
      EXPECT_EQ(report.steals.local, st.emulator.steal_local);
      EXPECT_EQ(report.steals.remote, st.emulator.steal_remote);
      EXPECT_EQ(st.emulator.steal_remote, st.emulator.steals_in);
      break;
  }

  // Data plane: forwards and affinity classification replay exactly.
  std::uint64_t forwards = 0;
  std::uint64_t bytes = 0;
  for (const runtime::KernelStats& k : st.kernels) {
    forwards += k.forwards;
    bytes += k.bytes_forwarded;
  }
  EXPECT_EQ(report.dataplane.forwards, forwards);
  EXPECT_EQ(report.dataplane.bytes_forwarded, bytes);
  EXPECT_EQ(report.dataplane.affinity_hits, st.emulator.affinity_hits);
  EXPECT_EQ(report.dataplane.affinity_misses, st.emulator.affinity_misses);
  EXPECT_EQ(report.dataplane.affinity_cold, st.emulator.affinity_cold);
  EXPECT_EQ(report.dataplane.cross_shard_bytes,
            st.emulator.cross_shard_bytes);
}

std::vector<FineConfig> fine_configs() {
  constexpr core::PolicyKind kPolicies[] = {
      core::PolicyKind::kFifo, core::PolicyKind::kLocality,
      core::PolicyKind::kAdaptive, core::PolicyKind::kHier,
      core::PolicyKind::kAffinity};
  std::vector<FineConfig> out;
  for (std::uint16_t kernels = 1; kernels <= 4; ++kernels) {
    for (core::PolicyKind policy : kPolicies) {
      for (bool pipeline : {true, false}) {
        out.emplace_back(kernels, policy, pipeline, Topology::kFlat);
        if (kernels < 2) continue;
        out.emplace_back(kernels, policy, pipeline, Topology::kGroups2);
        if (policy == core::PolicyKind::kHier ||
            policy == core::PolicyKind::kAffinity) {
          out.emplace_back(kernels, policy, pipeline, Topology::kShards2);
        }
      }
    }
  }
  return out;
}

std::string fine_name(const ::testing::TestParamInfo<FineConfig>& info) {
  const auto [kernels, policy, pipeline, topology] = info.param;
  const char* topo = topology == Topology::kFlat      ? "flat"
                     : topology == Topology::kGroups2 ? "groups2"
                                                      : "shards2";
  return std::string(core::to_string(policy)) + "_k" +
         std::to_string(kernels) + (pipeline ? "_pipe_" : "_sync_") + topo;
}

INSTANTIATE_TEST_SUITE_P(TrapezMediumUnroll1, FineGrainCheckedTest,
                         ::testing::ValuesIn(fine_configs()), fine_name);

}  // namespace
}  // namespace tflux
