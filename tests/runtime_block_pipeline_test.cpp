// Determinism of the block-transition ablation switch: the pipelined
// runtime (shadow SM generation, flip at OutletDone, coordinator fast
// activation) and the synchronous per-boundary reload must execute the
// exact same DThread sets - same app results, same thread counts, same
// block loads - on every shipped application, at several kernel and
// TSU-group counts. Also covers the kAdaptive occupancy-aware dispatch
// policy: placement changes, the executed set must not. And the
// emulator's batched mailbox delivery: a directly driven emulator
// hands every wave over whole and in dispatch order.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "apps/suite.h"
#include "core/builder.h"
#include "core/scheduler.h"
#include "runtime/emulator.h"
#include "runtime/mailbox.h"
#include "runtime/runtime.h"
#include "runtime/sync_memory.h"
#include "runtime/tub_group.h"

namespace tflux::runtime {
namespace {

using apps::AppKind;
using apps::AppRun;
using apps::DdmParams;
using apps::Platform;
using apps::SizeClass;

struct ModeResult {
  bool valid = false;
  std::uint64_t app_threads = 0;
  std::uint64_t threads_executed = 0;
  std::uint64_t blocks_loaded = 0;
  std::uint64_t updates_processed = 0;
  std::uint64_t prefetch_hits = 0;
  std::uint64_t prefetch_misses = 0;
};

ModeResult run_mode(AppKind kind, std::uint16_t kernels,
                    std::uint16_t groups, bool pipeline,
                    core::PolicyKind policy = core::PolicyKind::kLocality) {
  DdmParams params;
  params.num_kernels = kernels;
  params.unroll = 8;
  params.tsu_capacity = 64;  // force multi-block programs
  AppRun run =
      apps::build_app(kind, SizeClass::kSmall, Platform::kSimulated, params);
  RuntimeOptions options;
  options.num_kernels = kernels;
  options.policy = policy;
  options.tsu_groups = groups;
  options.block_pipeline = pipeline;
  const RuntimeStats st = Runtime(run.program, options).run();
  ModeResult r;
  r.valid = run.validate();
  r.app_threads = st.total_app_threads_executed();
  for (const KernelStats& k : st.kernels) {
    r.threads_executed += k.threads_executed;
  }
  r.blocks_loaded = st.emulator.blocks_loaded;
  r.updates_processed = st.emulator.updates_processed;
  r.prefetch_hits = st.emulator.prefetch_hits;
  r.prefetch_misses = st.emulator.prefetch_misses;
  return r;
}

using Config = std::tuple<AppKind, std::uint16_t, std::uint16_t>;

/// Every app x kernels {1, 2, 4} x TSU groups {1, 2}, keeping only
/// groups <= kernels (a Runtime rejects more groups than kernels).
std::vector<Config> pipeline_configs() {
  std::vector<Config> configs;
  for (AppKind kind : apps::all_apps()) {
    for (std::uint16_t kernels : {1, 2, 4}) {
      for (std::uint16_t groups : {1, 2}) {
        if (groups <= kernels) configs.emplace_back(kind, kernels, groups);
      }
    }
  }
  return configs;
}

class BlockPipelineTest : public ::testing::TestWithParam<Config> {};

TEST_P(BlockPipelineTest, PipelinedMatchesSynchronousAccounting) {
  const auto [kind, kernels, groups] = GetParam();
  const ModeResult pipe = run_mode(kind, kernels, groups, /*pipeline=*/true);
  const ModeResult sync = run_mode(kind, kernels, groups, /*pipeline=*/false);
  EXPECT_TRUE(pipe.valid) << "pipelined run produced wrong results";
  EXPECT_TRUE(sync.valid) << "synchronous run produced wrong results";
  EXPECT_EQ(pipe.app_threads, sync.app_threads);
  // Inlets and Outlets still execute once per block in pipelined mode
  // (the flip replaced only their SM-load work), so total executed
  // DThreads match too.
  EXPECT_EQ(pipe.threads_executed, sync.threads_executed);
  EXPECT_EQ(pipe.blocks_loaded, sync.blocks_loaded);
  // Updates are program-determined (one per consumer arc fired), not
  // schedule-determined: both transition modes process the same count,
  // whether an update landed in the current or the shadow generation.
  EXPECT_EQ(pipe.updates_processed, sync.updates_processed);
  // Every pipelined activation is either a prefetch hit or a miss;
  // the synchronous baseline never touches the shadow machinery.
  EXPECT_EQ(pipe.prefetch_hits + pipe.prefetch_misses, pipe.blocks_loaded);
  EXPECT_EQ(sync.prefetch_hits + sync.prefetch_misses, 0u);
}

TEST_P(BlockPipelineTest, AdaptivePolicyMatchesLocalityAccounting) {
  const auto [kind, kernels, groups] = GetParam();
  const ModeResult adaptive = run_mode(kind, kernels, groups, true,
                                       core::PolicyKind::kAdaptive);
  const ModeResult locality = run_mode(kind, kernels, groups, true,
                                       core::PolicyKind::kLocality);
  EXPECT_TRUE(adaptive.valid) << "adaptive run produced wrong results";
  EXPECT_TRUE(locality.valid) << "locality run produced wrong results";
  EXPECT_EQ(adaptive.app_threads, locality.app_threads);
  EXPECT_EQ(adaptive.threads_executed, locality.threads_executed);
  EXPECT_EQ(adaptive.updates_processed, locality.updates_processed);
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, BlockPipelineTest,
    ::testing::ValuesIn(pipeline_configs()),
    [](const auto& info) {
      return std::string(apps::to_string(std::get<0>(info.param))) + "_k" +
             std::to_string(std::get<1>(info.param)) + "_g" +
             std::to_string(std::get<2>(info.param));
    });

TEST(BlockPipelineAdaptiveTest, MatchesReferenceSchedulerThreadCount) {
  // The single-threaded oracle executes the same DThread set the
  // native runtime dispatches under kAdaptive (where ReadySet
  // degenerates to backlog-driven locality).
  DdmParams params;
  params.num_kernels = 4;
  params.unroll = 8;
  params.tsu_capacity = 64;
  AppRun run = apps::build_app(AppKind::kTrapez, SizeClass::kSmall,
                               Platform::kSimulated, params);
  core::ReferenceScheduler sched(run.program, 4,
                                 core::PolicyKind::kAdaptive);
  const core::ScheduleResult oracle = sched.run();
  ASSERT_TRUE(run.validate());

  AppRun native = apps::build_app(AppKind::kTrapez, SizeClass::kSmall,
                                  Platform::kSimulated, params);
  RuntimeOptions options;
  options.num_kernels = 4;
  options.policy = core::PolicyKind::kAdaptive;
  const RuntimeStats st = Runtime(native.program, options).run();
  EXPECT_TRUE(native.validate());
  std::uint64_t executed = 0;
  for (const KernelStats& k : st.kernels) executed += k.threads_executed;
  EXPECT_EQ(executed, oracle.records.size());
}

TEST(DeferredReplayTest, UpdateAheadOfActivationIsDeferredThenReplayed) {
  // Drive a non-coordinator TsuEmulator (group 1 of 2) directly. An
  // update for a block the group has not activated - and, with the
  // pipeline off, cannot shadow-apply - must park in the deferred
  // queue and replay exactly once at that block's activation.
  core::ProgramBuilder b("deferred");
  const core::BlockId b0 = b.add_block();
  b.add_thread(b0, "p0", {}, {}, /*home=*/0);
  b.add_thread(b0, "p1", {}, {}, /*home=*/1);
  const core::BlockId b1 = b.add_block();
  const core::ThreadId y = b.add_thread(b1, "y", {}, {}, /*home=*/0);
  const core::ThreadId x = b.add_thread(b1, "x", {}, {}, /*home=*/1);
  b.add_arc(y, x);  // x has Ready Count 1
  const core::Program program = b.build(core::BuildOptions{.num_kernels = 2});

  SyncMemoryGroup sm(program, 2);
  TubGroup tubs(program, sm,
                TubGroupOptions{.num_groups = 2,
                                .lockfree = true,
                                .num_lanes = 2,
                                .lane_capacity = 64});
  std::deque<Mailbox> mailboxes;
  mailboxes.emplace_back(true, 64);
  mailboxes.emplace_back(true, 64);
  ASSERT_EQ(tubs.group_of_thread(x), 1);  // x is homed on kernel 1

  // Same lane (hint 0) keeps the three commands FIFO: the update
  // arrives while the group's current block is still invalid.
  tubs.publish_update(x, /*hint=*/0);
  tubs.publish_load_block(b1, /*hint=*/0);
  tubs.broadcast_shutdown();

  TsuEmulator emu(program, tubs, sm, mailboxes,
                  TsuEmulator::Options{.group = 1,
                                       .num_groups = 2,
                                       .block_pipeline = false});
  std::thread t([&emu] { emu.run(); });
  t.join();

  EXPECT_EQ(emu.stats().deferred_replays, 1u);
  EXPECT_EQ(emu.stats().blocks_loaded, 1u);
  EXPECT_EQ(emu.stats().updates_processed, 1u);
  // The replayed update zeroed x's Ready Count: x was dispatched to
  // its home mailbox, followed by the shutdown sentinel.
  EXPECT_EQ(mailboxes[1].take(), x);
  EXPECT_EQ(mailboxes[1].take(), core::kInvalidThread);
}

/// Poll (no consuming take) until `n` ids are published to `mb`, or
/// give up after a generous deadline.
bool wait_published(const Mailbox& mb, std::size_t n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (mb.occupancy() < n) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(OutboxFlushTest, WavesAreDeliveredInDispatchOrderWithNothingStranded) {
  // Drive the coordinator emulator directly over one kernel: a first
  // wave one DThread longer than a mailbox batch, then a 3-DThread
  // wave. Each wave (with its block's Inlet in front) must reach the
  // mailbox whole, in dispatch order, while the emulator idles on its
  // TUB - a partly filled outbox must not wait for more work.
  core::ProgramBuilder b("waves");
  const core::BlockId b0 = b.add_block();
  std::vector<core::ThreadId> wave0;
  for (std::size_t i = 0; i < kMailboxBatch + 1; ++i) {
    wave0.push_back(
        b.add_thread(b0, "a" + std::to_string(i), {}, {}, /*home=*/0));
  }
  const core::BlockId b1 = b.add_block();
  std::vector<core::ThreadId> wave1;
  for (int i = 0; i < 3; ++i) {
    wave1.push_back(
        b.add_thread(b1, "b" + std::to_string(i), {}, {}, /*home=*/0));
  }
  const core::Program program = b.build(core::BuildOptions{.num_kernels = 1});
  wave0.insert(wave0.begin(), program.block(b0).inlet);
  wave1.insert(wave1.begin(), program.block(b1).inlet);

  SyncMemoryGroup sm(program, 1);
  // The runtime's geometry: kernel 0's lane, then the coordinator's.
  TubGroup tubs(program, sm,
                TubGroupOptions{.num_groups = 1,
                                .lockfree = true,
                                .num_lanes = 2,
                                .lane_capacity = 64});
  std::deque<Mailbox> mailboxes;
  mailboxes.emplace_back(true, 64);
  Mailbox& mb = mailboxes[0];
  TsuEmulator emu(program, tubs, sm, mailboxes, TsuEmulator::Options{});
  std::thread t([&emu] { emu.run(); });

  // Takes every id of one wave in kernel-sized batches.
  const auto take_wave = [&mb](std::size_t n) {
    std::vector<core::ThreadId> got;
    core::ThreadId batch[kMailboxBatch];
    while (got.size() < n) {
      const std::size_t k = mb.take_n(batch, kMailboxBatch);
      got.insert(got.end(), batch, batch + k);
      mb.done(k);
    }
    return got;
  };

  const bool first = wait_published(mb, wave0.size());
  EXPECT_TRUE(first) << mb.occupancy() << " of " << wave0.size()
                     << " ids published, " << mb.staged() << " stranded";
  if (first) {
    EXPECT_EQ(mb.staged(), 0u);
    EXPECT_EQ(take_wave(wave0.size()), wave0);

    tubs.publish_outlet_done(b0, /*hint=*/0);
    const bool second = wait_published(mb, wave1.size());
    EXPECT_TRUE(second) << mb.occupancy() << " of " << wave1.size()
                        << " ids published, " << mb.staged()
                        << " stranded";
    if (second) {
      EXPECT_EQ(mb.staged(), 0u);
      EXPECT_EQ(take_wave(wave1.size()), wave1);
      // The last OutletDone shuts the program down: the sentinel
      // follows, and nothing else.
      tubs.publish_outlet_done(b1, /*hint=*/0);
    }
  }
  if (HasFailure()) tubs.broadcast_shutdown();  // unblock the emulator
  t.join();
  if (!HasFailure()) {
    EXPECT_EQ(mb.occupancy(), 1u);
    EXPECT_EQ(mb.take(), core::kInvalidThread);
  }
  EXPECT_EQ(mb.staged(), 0u);
  EXPECT_EQ(emu.stats().dispatches, wave0.size() + wave1.size());
}

TEST(DeferredReplayTest, AdaptiveMultiBlockRunsAccountDeferredReplays) {
  // The live deferred path: kAdaptive routing across 2 TSU Groups over
  // a program with more than two DDM Blocks. Deferred replays are
  // schedule-dependent (usually zero with the shadow generation in
  // front), but whatever raced ahead must be replayed - never lost -
  // so both transition modes still process the identical update total
  // and produce correct results.
  DdmParams params;
  params.num_kernels = 4;
  params.unroll = 8;
  params.tsu_capacity = 64;
  AppRun probe = apps::build_app(AppKind::kTrapez, SizeClass::kSmall,
                                 Platform::kSimulated, params);
  ASSERT_GT(probe.program.num_blocks(), 2u);

  const ModeResult pipe = run_mode(AppKind::kTrapez, 4, 2, /*pipeline=*/true,
                                   core::PolicyKind::kAdaptive);
  const ModeResult sync = run_mode(AppKind::kTrapez, 4, 2, /*pipeline=*/false,
                                   core::PolicyKind::kAdaptive);
  EXPECT_TRUE(pipe.valid);
  EXPECT_TRUE(sync.valid);
  EXPECT_EQ(pipe.app_threads, sync.app_threads);
  EXPECT_EQ(pipe.updates_processed, sync.updates_processed);
}

}  // namespace
}  // namespace tflux::runtime
