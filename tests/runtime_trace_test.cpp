// Live tracing tests: run real benchmarks on TFluxSoft with
// RuntimeOptions::trace set, reconcile the record counts against the
// runtime's own statistics, and feed every trace through the ddmcheck
// verifier (which must come back clean - the runtime is the reference
// implementation of its own protocol). Also: the merged order against
// every handoff of real runs, back-to-back traced runs on one Runtime,
// the TraceLog's lane merge under concurrent producers (finish and
// both emergency paths), and check_trace's out-of-order fallback
// against its in-place replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <random>
#include <thread>
#include <tuple>
#include <type_traits>
#include <vector>

#include "apps/suite.h"
#include "core/check.h"
#include "core/ddmtrace.h"
#include "runtime/runtime.h"
#include "runtime/trace_log.h"

namespace tflux {
namespace {

std::uint64_t count(const core::ExecTrace& trace, core::TraceEvent event) {
  std::uint64_t n = 0;
  for (const core::TraceRecord& r : trace.records) {
    if (r.event == event) ++n;
  }
  return n;
}

struct Config {
  apps::AppKind app;
  core::PolicyKind policy;
  std::uint16_t groups;
};

class RuntimeTraceTest : public ::testing::TestWithParam<Config> {};

TEST_P(RuntimeTraceTest, TraceReconcilesWithStatsAndChecksClean) {
  const Config& cfg = GetParam();
  apps::DdmParams params;
  params.num_kernels = 4;
  params.unroll = 8;
  params.tsu_capacity = 64;  // force several DDM Blocks
  apps::AppRun run = apps::build_app(cfg.app, apps::SizeClass::kSmall,
                                     apps::Platform::kNative, params);

  core::ExecTrace trace;
  runtime::RuntimeOptions options;
  options.num_kernels = params.num_kernels;
  options.policy = cfg.policy;
  options.tsu_groups = cfg.groups;
  options.trace = &trace;
  runtime::Runtime rt(run.program, options);
  const runtime::RuntimeStats stats = rt.run();

  EXPECT_TRUE(run.validate());
  EXPECT_EQ(trace.kernels, params.num_kernels);
  EXPECT_EQ(trace.groups, cfg.groups);

  // Every dispatch, execution and update the runtime counted must have
  // left exactly one record (and vice versa).
  std::uint64_t executed = 0;
  std::uint64_t updates = 0;
  for (const runtime::KernelStats& k : stats.kernels) {
    executed += k.threads_executed;
    updates += k.updates_published;
  }
  EXPECT_EQ(count(trace, core::TraceEvent::kComplete), executed);
  EXPECT_EQ(count(trace, core::TraceEvent::kDispatch),
            stats.emulator.dispatches);
  // Coalesced publishing records one range-update per consecutive
  // consumer run; each covers hi - lo + 1 of the published updates.
  std::uint64_t traced_updates = count(trace, core::TraceEvent::kUpdate);
  for (const core::TraceRecord& r : trace.records) {
    if (r.event == core::TraceEvent::kRangeUpdate) {
      traced_updates += r.c - r.b + 1;
    }
  }
  EXPECT_EQ(traced_updates, updates);
  EXPECT_EQ(count(trace, core::TraceEvent::kOutletDone),
            run.program.num_blocks());

  const core::CheckReport report = check_trace(run.program, trace);
  EXPECT_TRUE(report.clean()) << report.to_string(run.program);
  EXPECT_EQ(report.records_checked, trace.records.size());
}

INSTANTIATE_TEST_SUITE_P(
    Soft, RuntimeTraceTest,
    ::testing::Values(
        Config{apps::AppKind::kTrapez, core::PolicyKind::kLocality, 1},
        Config{apps::AppKind::kTrapez, core::PolicyKind::kAdaptive, 2},
        Config{apps::AppKind::kMmult, core::PolicyKind::kLocality, 2},
        Config{apps::AppKind::kQsort, core::PolicyKind::kAdaptive, 1},
        Config{apps::AppKind::kFft, core::PolicyKind::kLocality, 1}),
    [](const ::testing::TestParamInfo<Config>& info) {
      std::string name = apps::to_string(info.param.app);
      name += core::to_string(info.param.policy);
      name += "G" + std::to_string(info.param.groups);
      return name;
    });

TEST(RuntimeTraceOffTest, NullTraceLeavesNoTrace) {
  apps::DdmParams params;
  params.num_kernels = 2;
  params.unroll = 8;
  apps::AppRun run = apps::build_app(apps::AppKind::kTrapez,
                                     apps::SizeClass::kSmall,
                                     apps::Platform::kNative, params);
  runtime::RuntimeOptions options;
  options.num_kernels = 2;
  runtime::Runtime rt(run.program, options);
  (void)rt.run();
  EXPECT_TRUE(run.validate());
}

// ---------------------------------------------------------------------------
// Merged order on real runs: the record a handoff's sender makes before
// its publish precedes every record the receiver makes after taking it.
// ---------------------------------------------------------------------------

// gtest prints a parameter with no printer byte by byte into the test's
// name. The name is held inline, not as a pointer, and the fields leave no
// padding, so every printed byte, and hence the name ctest registers, is
// the same on every build and run.
struct OrderConfig {
  char name[12];
  core::PolicyKind policy;
  std::uint8_t groups;
  std::uint16_t shards;
};
static_assert(std::has_unique_object_representations_v<OrderConfig>);

class RuntimeTraceOrderTest : public ::testing::TestWithParam<OrderConfig> {};

TEST_P(RuntimeTraceOrderTest, MergedOrderRespectsEveryHandoff) {
  const OrderConfig& cfg = GetParam();
  apps::DdmParams params;
  params.num_kernels = 4;
  params.tsu_capacity = 64;  // several DDM Blocks
  apps::AppRun run = apps::build_app(apps::AppKind::kTrapez,
                                     apps::SizeClass::kSmall,
                                     apps::Platform::kNative, params);
  core::ExecTrace trace;
  runtime::RuntimeOptions options;
  options.num_kernels = params.num_kernels;
  options.policy = cfg.policy;
  options.tsu_groups = cfg.groups;
  options.shards = cfg.shards;
  options.trace = &trace;
  (void)runtime::Runtime(run.program, options).run();
  ASSERT_TRUE(run.validate());
  ASSERT_GT(run.program.num_blocks(), 1u);

  constexpr std::uint64_t kNone = ~std::uint64_t{0};
  std::vector<std::uint64_t> dispatch(run.program.num_threads(), kNone);
  std::vector<std::uint64_t> outlet_done(run.program.num_blocks(), kNone);
  std::uint64_t completes = 0;
  std::uint64_t updates = 0;
  std::uint64_t activations = 0;
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    const core::TraceRecord& r = trace.records[i];
    ASSERT_EQ(r.seq, i);
    switch (r.event) {
      case core::TraceEvent::kDispatch:
        dispatch[r.a] = r.seq;
        break;
      case core::TraceEvent::kComplete:
        // Mailbox handoff: emulator's Dispatch -> kernel's Complete.
        ASSERT_NE(dispatch[r.a], kNone)
            << "Complete(" << r.a << ") at seq " << r.seq
            << " precedes its Dispatch";
        ++completes;
        break;
      case core::TraceEvent::kUpdate:
      case core::TraceEvent::kRangeUpdate: {
        // TUB handoff: an update precedes the Dispatch of the consumer
        // it counts down (a consumer dispatches only at zero).
        const std::uint32_t hi =
            r.event == core::TraceEvent::kUpdate ? r.b : r.c;
        for (std::uint32_t c = r.b; c <= hi; ++c) {
          ASSERT_EQ(dispatch[c], kNone)
              << "update " << r.a << " -> " << c << " at seq " << r.seq
              << " follows Dispatch(" << c << ") at seq " << dispatch[c];
        }
        ++updates;
        break;
      }
      case core::TraceEvent::kOutletDone:
        outlet_done[r.a] = r.seq;
        break;
      case core::TraceEvent::kBlockPromote:
      case core::TraceEvent::kInletLoad:
        // OutletDone(b) -> coordinator -> next block's activation on
        // every group (directly, or through the Inlet's broadcast).
        if (r.a > 0) {
          ASSERT_NE(outlet_done[r.a - 1], kNone)
              << "block " << r.a << " activated on group " << r.b
              << " at seq " << r.seq << " before OutletDone(" << r.a - 1
              << ")";
        }
        ++activations;
        break;
      case core::TraceEvent::kShadowDecrement:
        break;
    }
  }
  EXPECT_EQ(completes, run.program.num_threads());
  EXPECT_GT(updates, 0u);
  EXPECT_EQ(activations, std::uint64_t{run.program.num_blocks()} *
                             (cfg.shards != 0 ? cfg.shards : cfg.groups));
  const core::CheckReport report = check_trace(run.program, trace);
  EXPECT_TRUE(report.clean()) << report.to_string(run.program);
}

INSTANTIATE_TEST_SUITE_P(
    Soft, RuntimeTraceOrderTest,
    ::testing::Values(
        OrderConfig{"Flat", core::PolicyKind::kLocality, 1, 0},
        OrderConfig{"TsuGroups2", core::PolicyKind::kAdaptive, 2, 0},
        // Backlogged shards delegate dispatches to each other: the
        // emulator-to-emulator steal-grant handoff.
        OrderConfig{"Shards2Hier", core::PolicyKind::kHier, 1, 2}),
    [](const ::testing::TestParamInfo<OrderConfig>& info) {
      return std::string(info.param.name);
    });

TEST(RuntimeTraceReuseTest, BackToBackRunsOnOneRuntimeTraceLikeAFreshOne) {
  // One Runtime keeps its trace lanes across runs; every run must still
  // leave a whole trace of exactly itself.
  apps::DdmParams params;
  params.num_kernels = 4;
  params.unroll = 8;
  params.tsu_capacity = 64;
  apps::AppRun run = apps::build_app(apps::AppKind::kTrapez,
                                     apps::SizeClass::kSmall,
                                     apps::Platform::kNative, params);
  runtime::RuntimeOptions options;
  options.num_kernels = params.num_kernels;
  core::ExecTrace fresh;
  options.trace = &fresh;
  (void)runtime::Runtime(run.program, options).run();
  ASSERT_FALSE(fresh.records.empty());

  core::ExecTrace trace;
  options.trace = &trace;
  runtime::Runtime rt(run.program, options);
  for (int i = 0; i < 5; ++i) {
    if (run.reset) run.reset();
    (void)rt.run();
    EXPECT_TRUE(run.validate());
    ASSERT_EQ(trace.records.size(), fresh.records.size()) << "run " << i;
    for (std::size_t j = 0; j < trace.records.size(); ++j) {
      ASSERT_EQ(trace.records[j].seq, j) << "run " << i;
    }
    EXPECT_FALSE(trace.truncated);
    const core::CheckReport report = check_trace(run.program, trace);
    EXPECT_TRUE(report.clean()) << "run " << i << ": "
                                << report.to_string(run.program);
    EXPECT_EQ(report.records_checked, trace.records.size());
  }
}

TEST(TraceLogEmergencyTest, DestructionWithoutFinishFlushesToWriter) {
  std::vector<core::TraceRecord> flushed;
  bool called = false;
  {
    runtime::TraceLog log(/*num_kernels=*/1, /*num_groups=*/1);
    log.arm_emergency([&](std::vector<core::TraceRecord>&& records) {
      called = true;
      flushed = std::move(records);
    });
    log.record(0, core::TraceEvent::kDispatch, 3, 0);
    log.record(0, core::TraceEvent::kComplete, 3, 0);
    // No finish(): simulates an exception unwinding through run().
  }
  ASSERT_TRUE(called);
  ASSERT_EQ(flushed.size(), 2u);
  EXPECT_EQ(flushed[0].event, core::TraceEvent::kDispatch);
  EXPECT_EQ(flushed[1].event, core::TraceEvent::kComplete);
  EXPECT_LT(flushed[0].seq, flushed[1].seq);
}

TEST(TraceLogEmergencyTest, FinishDisarmsTheEmergencyWriter) {
  bool called = false;
  {
    runtime::TraceLog log(/*num_kernels=*/1, /*num_groups=*/1);
    log.arm_emergency(
        [&](std::vector<core::TraceRecord>&&) { called = true; });
    log.record(0, core::TraceEvent::kDispatch, 3, 0);
    std::vector<core::TraceRecord> records;
    log.finish(records);
  }
  EXPECT_FALSE(called);
}

TEST(TraceLogEmergencyTest, EmergencyFlushIsIdempotent) {
  int calls = 0;
  runtime::TraceLog log(/*num_kernels=*/1, /*num_groups=*/1);
  log.arm_emergency([&](std::vector<core::TraceRecord>&&) { ++calls; });
  log.record(0, core::TraceEvent::kDispatch, 3, 0);
  log.emergency_flush();
  log.emergency_flush();
  EXPECT_EQ(calls, 1);
}

// ---------------------------------------------------------------------------
// Lane merge: each lane's clocks ascend in program order, so merging by
// (clock, lane) keeps every lane's order; seq is renumbered 0..n-1.
// ---------------------------------------------------------------------------

constexpr std::uint16_t kMergeKernels = 3;
constexpr std::uint16_t kMergeGroups = 2;
constexpr std::uint32_t kPerLane = 20000;

/// One producer thread per lane, each recording kPerLane events whose
/// `a` operand counts up; the records span several chunks per lane.
void produce_on_every_lane(runtime::TraceLog& log) {
  std::vector<std::thread> producers;
  for (std::uint16_t lane = 0; lane < kMergeKernels + kMergeGroups; ++lane) {
    producers.emplace_back([&log, lane] {
      for (std::uint32_t i = 0; i < kPerLane; ++i) {
        log.record(lane, core::TraceEvent::kDispatch, i, lane);
      }
    });
  }
  for (std::thread& t : producers) t.join();
}

/// seq is renumbered densely from 0, so "every record exactly once in
/// strictly ascending seq" is seq == position; each lane's payload
/// stays in its producer's order.
void expect_complete_merge(const std::vector<core::TraceRecord>& records) {
  constexpr std::size_t kLanes = kMergeKernels + kMergeGroups;
  ASSERT_EQ(records.size(), kLanes * kPerLane);
  std::vector<std::uint32_t> next(kLanes, 0);
  for (std::size_t i = 0; i < records.size(); ++i) {
    ASSERT_EQ(records[i].seq, i);
    ASSERT_LT(records[i].actor, kLanes);
    ASSERT_EQ(records[i].a, next[records[i].actor]++);
  }
}

TEST(TraceLogMergeTest, FinishReturnsEveryRecordOnceInSeqOrder) {
  runtime::TraceLog log(kMergeKernels, kMergeGroups);
  produce_on_every_lane(log);
  std::vector<core::TraceRecord> records;
  log.finish(records);
  expect_complete_merge(records);
}

TEST(TraceLogMergeTest, EqualClocksComeOutInAscendingLaneOrder) {
  // With no handoff between them every lane's clock counts 1, 2, ... on
  // its own, so the k-th record of every lane carries clock k. Lanes
  // record in descending order and unevenly, so neither arrival order
  // nor lane length can pass for the (clock, lane) rule.
  constexpr std::uint16_t kLanes = kMergeKernels + kMergeGroups;
  runtime::TraceLog log(kMergeKernels, kMergeGroups);
  for (std::uint32_t k = 1; k <= 3; ++k) {
    for (std::uint16_t lane = kLanes; lane-- > 0;) {
      if (k == 3 && lane % 2 == 1) continue;  // odd lanes stop at clock 2
      log.record(lane, core::TraceEvent::kDispatch, k, lane);
    }
  }
  std::vector<core::TraceRecord> records;
  log.finish(records);

  std::vector<std::pair<std::uint32_t, std::uint16_t>> expected;
  for (std::uint32_t k = 1; k <= 3; ++k) {
    for (std::uint16_t lane = 0; lane < kLanes; ++lane) {
      if (k == 3 && lane % 2 == 1) continue;
      expected.emplace_back(k, lane);
    }
  }
  ASSERT_EQ(records.size(), expected.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, i);
    EXPECT_EQ(records[i].a, expected[i].first) << "position " << i;
    EXPECT_EQ(records[i].actor, expected[i].second) << "position " << i;
  }
}

TEST(TraceLogMergeTest, ReceivedClockOrdersTheReceiverAfterTheSender) {
  // Emulator lane E records clocks 1..4 and publishes; kernel lane 0
  // receives (clock 4) and records 5, 6; kernel lane 1 never receives
  // and stays at clock 1, which ties with E's first record.
  runtime::TraceLog log(/*num_kernels=*/2, /*num_groups=*/1);
  const std::uint16_t emulator = log.emulator_lane(0);
  for (std::uint32_t i = 0; i < 4; ++i) {
    log.record(emulator, core::TraceEvent::kDispatch, i, 0);
  }
  log.publish(emulator);
  log.receive(0);
  log.record(0, core::TraceEvent::kComplete, 10, 0);
  log.record(0, core::TraceEvent::kComplete, 11, 0);
  log.record(1, core::TraceEvent::kComplete, 20, 0);
  std::vector<core::TraceRecord> records;
  log.finish(records);

  const std::vector<std::pair<std::uint16_t, std::uint32_t>> expected = {
      {1, 20}, {emulator, 0}, {emulator, 1}, {emulator, 2},
      {emulator, 3}, {0, 10}, {0, 11}};
  ASSERT_EQ(records.size(), expected.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, i);
    EXPECT_EQ(records[i].actor, expected[i].first) << "position " << i;
    EXPECT_EQ(records[i].a, expected[i].second) << "position " << i;
  }
}

TEST(TraceLogMergeTest, EmergencyFlushDeliversTheMergedOrder) {
  std::vector<core::TraceRecord> flushed;
  {
    runtime::TraceLog log(kMergeKernels, kMergeGroups);
    log.arm_emergency([&](std::vector<core::TraceRecord>&& records) {
      flushed = std::move(records);
    });
    produce_on_every_lane(log);
    // No finish(): the destructor takes the emergency path.
  }
  expect_complete_merge(flushed);
}

TEST(TraceLogMergeTest, MidRunDumpIsAMergedSubsequenceOfTheFinalTrace) {
  std::vector<core::TraceRecord> dumped;
  bool called = false;
  runtime::TraceLog log(kMergeKernels, kMergeGroups);
  log.arm_emergency([&](std::vector<core::TraceRecord>&& records) {
    called = true;
    dumped = std::move(records);
  });
  std::thread requester([&log] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    log.request_emergency_dump();
  });
  produce_on_every_lane(log);
  requester.join();
  std::vector<core::TraceRecord> records;
  log.finish(records);
  expect_complete_merge(records);

  // The dump ran on the requester while the producers recorded: it
  // holds a prefix of every lane, densely renumbered, and those records
  // keep the relative order they have in the final trace.
  ASSERT_TRUE(called);
  constexpr std::size_t kLanes = kMergeKernels + kMergeGroups;
  std::vector<std::uint32_t> next(kLanes, 0);
  std::size_t final_pos = 0;
  for (std::size_t i = 0; i < dumped.size(); ++i) {
    ASSERT_EQ(dumped[i].seq, i);
    ASSERT_LT(dumped[i].actor, kLanes);
    ASSERT_EQ(dumped[i].a, next[dumped[i].actor]++);
    while (final_pos < records.size() &&
           (records[final_pos].actor != dumped[i].actor ||
            records[final_pos].a != dumped[i].a)) {
      ++final_pos;
    }
    ASSERT_LT(final_pos, records.size())
        << "dump record " << i << " is out of the final trace's order";
    ++final_pos;
  }
}

// ---------------------------------------------------------------------------
// check_trace replays an ordered trace in place and sorts a copy only
// when the records are out of order; both paths give one report.
// ---------------------------------------------------------------------------

void expect_same_report(const core::CheckReport& a,
                        const core::CheckReport& b) {
  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].code, b.findings[i].code);
    EXPECT_EQ(a.findings[i].thread, b.findings[i].thread);
    EXPECT_EQ(a.findings[i].other, b.findings[i].other);
    EXPECT_EQ(a.findings[i].block, b.findings[i].block);
    EXPECT_EQ(a.findings[i].seq, b.findings[i].seq);
    EXPECT_EQ(a.findings[i].message, b.findings[i].message);
  }
  EXPECT_EQ(a.records_checked, b.records_checked);
  EXPECT_EQ(a.steals.dispatches, b.steals.dispatches);
  EXPECT_EQ(a.steals.home, b.steals.home);
  EXPECT_EQ(a.steals.local, b.steals.local);
  EXPECT_EQ(a.steals.remote, b.steals.remote);
  EXPECT_EQ(a.dataplane.forwards, b.dataplane.forwards);
  EXPECT_EQ(a.dataplane.bytes_forwarded, b.dataplane.bytes_forwarded);
  EXPECT_EQ(a.dataplane.affinity_hits, b.dataplane.affinity_hits);
  EXPECT_EQ(a.dataplane.affinity_misses, b.dataplane.affinity_misses);
  EXPECT_EQ(a.dataplane.affinity_cold, b.dataplane.affinity_cold);
  EXPECT_EQ(a.dataplane.cross_shard_bytes, b.dataplane.cross_shard_bytes);
  EXPECT_EQ(a.races_skipped, b.races_skipped);
  EXPECT_EQ(a.truncated, b.truncated);
}

TEST(CheckTraceOrderTest, ShuffledTraceReplaysToTheSameReport) {
  apps::DdmParams params;
  params.num_kernels = 4;
  params.tsu_capacity = 64;
  apps::AppRun run = apps::build_app(apps::AppKind::kSusanPipe,
                                     apps::SizeClass::kSmall,
                                     apps::Platform::kNative, params);
  core::ExecTrace trace;
  runtime::RuntimeOptions options;
  options.num_kernels = 4;
  options.policy = core::PolicyKind::kAffinity;
  options.shards = 2;
  options.trace = &trace;
  (void)runtime::Runtime(run.program, options).run();
  ASSERT_TRUE(std::is_sorted(
      trace.records.begin(), trace.records.end(),
      [](const auto& a, const auto& b) { return a.seq < b.seq; }));

  // A faulty copy too (one update dropped), so the comparison covers
  // findings and not only the clean tallies.
  core::ExecTrace faulty = trace;
  const auto update = std::find_if(
      faulty.records.begin(), faulty.records.end(), [](const auto& r) {
        return r.event == core::TraceEvent::kUpdate ||
               r.event == core::TraceEvent::kRangeUpdate;
      });
  ASSERT_NE(update, faulty.records.end());
  faulty.records.erase(update);

  for (const core::ExecTrace* ordered : {&trace, &faulty}) {
    const core::CheckReport expected = core::check_trace(run.program, *ordered);
    EXPECT_GT(expected.dataplane.forwards, 0u);
    core::ExecTrace shuffled = *ordered;
    std::mt19937 rng(20080909);
    std::shuffle(shuffled.records.begin(), shuffled.records.end(), rng);
    expect_same_report(expected, core::check_trace(run.program, shuffled));
  }
  EXPECT_TRUE(core::check_trace(run.program, trace).clean());
  EXPECT_FALSE(core::check_trace(run.program, faulty).clean());
}

TEST(RuntimeTraceMutexTest, MutexStructuresTraceChecksClean) {
  apps::DdmParams params;
  params.num_kernels = 2;
  params.unroll = 8;
  params.tsu_capacity = 64;
  apps::AppRun run = apps::build_app(apps::AppKind::kTrapez,
                                     apps::SizeClass::kSmall,
                                     apps::Platform::kNative, params);
  core::ExecTrace trace;
  runtime::RuntimeOptions options;
  options.num_kernels = 2;
  options.lockfree = false;
  options.block_pipeline = false;
  options.trace = &trace;
  runtime::Runtime rt(run.program, options);
  (void)rt.run();
  EXPECT_TRUE(run.validate());
  EXPECT_FALSE(trace.pipelined);
  EXPECT_FALSE(trace.lockfree);
  const core::CheckReport report = check_trace(run.program, trace);
  EXPECT_TRUE(report.clean()) << report.to_string(run.program);
}

}  // namespace
}  // namespace tflux
