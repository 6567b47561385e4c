// Integration + property tests for the native TFluxSoft runtime:
// whole programs executed with real std::threads, cross-validated
// against the DDM contract and the ReferenceScheduler oracle.
#include "runtime/runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <tuple>
#include <vector>

#include "core/builder.h"
#include "core/error.h"
#include "core/scheduler.h"
#include "core/unroll.h"
#include "testing/random_graph.h"

namespace tflux::runtime {
namespace {

using core::BlockId;
using core::ExecContext;
using core::PolicyKind;
using core::Program;
using core::ProgramBuilder;
using core::ThreadId;

TEST(RuntimeTest, ZeroKernelsRejected) {
  ProgramBuilder b;
  b.add_thread(b.add_block(), "t", {});
  Program p = b.build();
  EXPECT_THROW(Runtime(p, RuntimeOptions{.num_kernels = 0}), core::TFluxError);
}

TEST(RuntimeTest, RunTwiceIsAWarmRerun) {
  // One Runtime serves many runs (the resident executor's shape):
  // each run() replays the whole graph against reset state, with
  // stats.epoch counting iterations.
  ProgramBuilder b;
  std::atomic<int> hits{0};
  b.add_thread(b.add_block(), "t",
               [&hits](const ExecContext&) { hits.fetch_add(1); });
  Program p = b.build();
  Runtime rt(p, RuntimeOptions{.num_kernels = 1});
  const RuntimeStats first = rt.run();
  EXPECT_EQ(first.epoch, 1u);
  EXPECT_EQ(hits.load(), 1);
  const RuntimeStats second = rt.run();
  EXPECT_EQ(second.epoch, 2u);
  EXPECT_EQ(hits.load(), 2);
  EXPECT_EQ(second.total_app_threads_executed(),
            first.total_app_threads_executed());
}

TEST(RuntimeTest, SingleThreadProgramCompletes) {
  ProgramBuilder b;
  std::atomic<int> hits{0};
  b.add_thread(b.add_block(), "t",
               [&hits](const ExecContext&) { hits.fetch_add(1); });
  Program p = b.build();
  const RuntimeStats st = Runtime(p, RuntimeOptions{.num_kernels = 1}).run();
  EXPECT_EQ(hits.load(), 1);
  EXPECT_EQ(st.total_app_threads_executed(), 1u);
  EXPECT_EQ(st.emulator.blocks_loaded, 1u);
}

TEST(RuntimeTest, DiamondOrderRespected) {
  ProgramBuilder b;
  const BlockId blk = b.add_block();
  std::atomic<int> stage{0};
  std::atomic<int> violations{0};
  const ThreadId a = b.add_thread(blk, "a", [&](const ExecContext&) {
    stage.fetch_add(1);
  });
  auto mid_body = [&](const ExecContext&) {
    if (stage.load() < 1) violations.fetch_add(1);
    stage.fetch_add(1);
  };
  const ThreadId x = b.add_thread(blk, "x", mid_body);
  const ThreadId y = b.add_thread(blk, "y", mid_body);
  const ThreadId d = b.add_thread(blk, "d", [&](const ExecContext&) {
    if (stage.load() < 3) violations.fetch_add(1);
  });
  b.add_arc(a, x);
  b.add_arc(a, y);
  b.add_arc(x, d);
  b.add_arc(y, d);
  Program p = b.build(core::BuildOptions{.num_kernels = 2});

  Runtime rt(p, RuntimeOptions{.num_kernels = 2});
  rt.run();
  EXPECT_EQ(violations.load(), 0);
}

TEST(RuntimeTest, ParallelSumMatchesSequential) {
  constexpr std::int64_t kN = 100000;
  constexpr std::uint32_t kUnroll = 4096;
  ProgramBuilder b;
  const BlockId blk = b.add_block();
  const auto chunks = core::chunk_iterations(0, kN, kUnroll);
  auto partials = std::make_shared<std::vector<long long>>(chunks.size(), 0);
  std::vector<ThreadId> leaves;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    leaves.push_back(b.add_thread(
        blk, "sum" + std::to_string(i),
        [partials, c = chunks[i], i](const ExecContext&) {
          long long s = 0;
          for (std::int64_t v = c.begin; v < c.end; ++v) s += v;
          (*partials)[i] = s;
        }));
  }
  auto total = std::make_shared<long long>(0);
  const ThreadId reduce = b.add_thread(
      blk, "reduce", [partials, total](const ExecContext&) {
        *total = std::accumulate(partials->begin(), partials->end(), 0LL);
      });
  for (ThreadId leaf : leaves) b.add_arc(leaf, reduce);
  Program p = b.build(core::BuildOptions{.num_kernels = 4});

  Runtime rt(p, RuntimeOptions{.num_kernels = 4});
  const RuntimeStats st = rt.run();
  EXPECT_EQ(*total, static_cast<long long>(kN) * (kN - 1) / 2);
  EXPECT_EQ(st.total_app_threads_executed(), leaves.size() + 1);
  // Each leaf updates the reducer once; reducer updates the outlet.
  EXPECT_GE(st.emulator.updates_processed, leaves.size());
}

TEST(RuntimeTest, MultiBlockProgramChainsInOrder) {
  constexpr int kBlocks = 5;
  ProgramBuilder b;
  std::atomic<int> last_block{-1};
  std::atomic<int> violations{0};
  for (int blk = 0; blk < kBlocks; ++blk) {
    const BlockId id = b.add_block();
    for (int t = 0; t < 8; ++t) {
      b.add_thread(id, "b" + std::to_string(blk),
                   [&last_block, &violations, blk](const ExecContext&) {
                     // All threads of block k-1 finished before any of
                     // block k starts (inlet/outlet barrier).
                     if (last_block.load() > blk) violations.fetch_add(1);
                     last_block.store(blk);
                   });
    }
  }
  Program p = b.build(core::BuildOptions{.num_kernels = 3});
  Runtime rt(p, RuntimeOptions{.num_kernels = 3});
  const RuntimeStats st = rt.run();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(st.emulator.blocks_loaded, static_cast<std::uint64_t>(kBlocks));
  EXPECT_EQ(st.total_app_threads_executed(),
            static_cast<std::uint64_t>(kBlocks) * 8u);
}

TEST(RuntimeTest, MultipleEmulatorGroupsPreserveContract) {
  // Section 4.1 extension (software flavor): G emulator threads, each
  // owning the SMs of its kernels. Correctness must be untouched.
  for (std::uint16_t groups : {1, 2, 3}) {
    tflux::testing::RandomGraphSpec spec;
    spec.seed = 61;
    spec.num_kernels = 3;
    spec.blocks = 3;
    spec.threads_per_block = 30;
    auto rp = tflux::testing::make_random_program(spec);
    RuntimeOptions options;
    options.num_kernels = 3;
    options.tsu_groups = groups;
    const RuntimeStats st = Runtime(rp.program, options).run();
    EXPECT_EQ(rp.state->order_violations.load(), 0u) << groups;
    for (std::size_t t = 0; t < rp.program.num_app_threads(); ++t) {
      ASSERT_EQ(rp.state->runs[t].load(), 1u) << "g=" << groups;
    }
    EXPECT_EQ(st.emulators.size(), groups);
    // Every group loads every block (partitioned loads).
    EXPECT_EQ(st.emulator.blocks_loaded,
              static_cast<std::uint64_t>(groups) * 3u);
    EXPECT_EQ(st.total_app_threads_executed(),
              rp.program.num_app_threads());
  }
}

TEST(RuntimeTest, MoreGroupsThanKernelsRejected) {
  ProgramBuilder b;
  b.add_thread(b.add_block(), "t", {});
  Program p = b.build();
  RuntimeOptions options;
  options.num_kernels = 2;
  options.tsu_groups = 3;
  EXPECT_THROW(Runtime(p, options), core::TFluxError);
  options.tsu_groups = 0;
  EXPECT_THROW(Runtime(p, options), core::TFluxError);
}

TEST(RuntimeTest, PinnedThreadsStillCorrect) {
  tflux::testing::RandomGraphSpec spec;
  spec.seed = 31;
  spec.threads_per_block = 24;
  spec.blocks = 2;
  spec.num_kernels = 3;
  auto rp = tflux::testing::make_random_program(spec);
  RuntimeOptions options;
  options.num_kernels = 3;
  options.pin_threads = true;  // best-effort affinity; must not break
  Runtime(rp.program, options).run();
  EXPECT_EQ(rp.state->order_violations.load(), 0u);
  for (std::size_t t = 0; t < rp.program.num_app_threads(); ++t) {
    EXPECT_EQ(rp.state->runs[t].load(), 1u);
  }
}

TEST(RuntimeTest, ThreadIndexingOffStillCorrectButSearches) {
  tflux::testing::RandomGraphSpec spec;
  spec.seed = 99;
  spec.threads_per_block = 32;
  spec.blocks = 2;
  spec.num_kernels = 3;
  auto rp = tflux::testing::make_random_program(spec);

  RuntimeOptions options;
  options.num_kernels = 3;
  options.thread_indexing = false;
  const RuntimeStats st = Runtime(rp.program, options).run();

  EXPECT_EQ(rp.state->order_violations.load(), 0u);
  EXPECT_GT(st.emulator.sm_search_steps, 0u);  // paid the search cost
  for (std::size_t t = 0; t < rp.program.num_app_threads(); ++t) {
    EXPECT_EQ(rp.state->runs[t].load(), 1u);
  }
}

TEST(RuntimeTest, StatsAreInternallyConsistent) {
  tflux::testing::RandomGraphSpec spec;
  spec.seed = 5;
  spec.threads_per_block = 40;
  spec.blocks = 3;
  spec.num_kernels = 4;
  auto rp = tflux::testing::make_random_program(spec);

  const RuntimeStats st =
      Runtime(rp.program, RuntimeOptions{.num_kernels = 4}).run();

  // Kernel-side published updates == emulator-side processed updates.
  std::uint64_t published = 0;
  for (const auto& k : st.kernels) published += k.updates_published;
  EXPECT_EQ(published, st.emulator.updates_processed);
  // Every thread (app + inlet + outlet per block) executed once.
  std::uint64_t executed = 0;
  for (const auto& k : st.kernels) executed += k.threads_executed;
  EXPECT_EQ(executed, rp.program.num_threads());
  // TUB conservation: all published entries were drained and processed.
  // With coalescing (the default), a range record is one TUB entry but
  // counts all its members toward updates_processed, so the entry count
  // is units (total minus range members) + range records. Per block:
  // one LoadBlock per TSU group (here 1) + one OutletDone; plus one
  // Shutdown per group at the end.
  EXPECT_EQ(st.tub.entries_published,
            st.emulator.updates_processed - st.emulator.range_members +
                st.emulator.range_updates_processed +
                2u * rp.program.num_blocks() + 1u);
}

// ---------------------------------------------------------------------------
// Property sweep: the native runtime upholds the DDM contract for
// random graphs across kernel counts, policies, and both hot paths
// (tub_mode 0 = lock-free lanes; otherwise the mutex TUB with that
// many try-lock segments).
// ---------------------------------------------------------------------------

using SweepParam =
    std::tuple<std::uint32_t /*seed*/, std::uint16_t /*kernels*/,
               std::uint16_t /*blocks*/, PolicyKind,
               std::uint32_t /*tub_mode*/, bool /*tkt*/,
               std::uint16_t /*tsu_groups*/>;

class RuntimePropertyTest : public ::testing::TestWithParam<SweepParam> {};

/// The full cross product, keeping only tsu_groups <= kernels (a
/// Runtime rejects more groups than kernels).
std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> params;
  for (std::uint32_t seed : {3u, 17u}) {
    for (std::uint16_t kernels : {1, 2, 6}) {
      for (std::uint16_t blocks : {1, 4}) {
        for (PolicyKind policy : {PolicyKind::kFifo, PolicyKind::kLocality}) {
          for (std::uint32_t tub_mode : {0u, 1u, 8u}) {
            for (bool tkt : {true, false}) {
              for (std::uint16_t groups : {1, 2}) {
                if (groups > kernels) continue;
                params.emplace_back(seed, kernels, blocks, policy, tub_mode,
                                    tkt, groups);
              }
            }
          }
        }
      }
    }
  }
  return params;
}

TEST_P(RuntimePropertyTest, DdmContractHolds) {
  const auto [seed, kernels, blocks, policy, tub_mode, tkt, groups] =
      GetParam();
  tflux::testing::RandomGraphSpec spec;
  spec.seed = seed;
  spec.num_kernels = kernels;
  spec.blocks = blocks;
  spec.threads_per_block = 24;
  spec.arc_prob = 0.15;
  auto rp = tflux::testing::make_random_program(spec);

  RuntimeOptions options;
  options.num_kernels = kernels;
  options.policy = policy;
  options.lockfree = tub_mode == 0;
  if (tub_mode != 0) options.tub_segments = tub_mode;
  options.thread_indexing = tkt;
  options.tsu_groups = groups;
  const RuntimeStats st = Runtime(rp.program, options).run();

  EXPECT_EQ(rp.state->order_violations.load(), 0u);
  for (std::size_t t = 0; t < rp.program.num_app_threads(); ++t) {
    ASSERT_EQ(rp.state->runs[t].load(), 1u) << "thread " << t;
  }
  EXPECT_EQ(st.total_app_threads_executed(), rp.program.num_app_threads());
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphSweep, RuntimePropertyTest, ::testing::ValuesIn(sweep_params()));

}  // namespace
}  // namespace tflux::runtime
