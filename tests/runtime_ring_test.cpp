// Tests for the lock-free hot-path structures: the SPSC ring, the
// spin-then-park Parker, the lock-free Mailbox, and the per-kernel
// LaneTub. The cross-thread tests carry the `concurrent` ctest label
// so the TSan CI flavor sweeps them.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/error.h"
#include "runtime/lane_tub.h"
#include "runtime/mailbox.h"
#include "runtime/parking.h"
#include "runtime/spsc_ring.h"

namespace tflux::runtime {
namespace {

// ---------------------------------------------------------------------------
// SpscRing
// ---------------------------------------------------------------------------

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(256).capacity(), 256u);
  EXPECT_EQ(SpscRing<int>(257).capacity(), 512u);
}

TEST(SpscRingTest, FifoUntilFullThenEmpty) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));  // full
  EXPECT_EQ(ring.size_approx(), 4u);
  int v = -1;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ring.try_pop_n(&v, 1), 1u);
    EXPECT_EQ(v, i);
  }
  EXPECT_EQ(ring.try_pop_n(&v, 1), 0u);  // empty
  EXPECT_TRUE(ring.probably_empty());
}

TEST(SpscRingTest, WraparoundPreservesOrder) {
  SpscRing<int> ring(8);
  int expected = 0;
  int v = -1;
  // Push/pop far past the capacity so the cursors wrap many times.
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(ring.try_push(round * 5 + i));
    for (int i = 0; i < 5; ++i) {
      ASSERT_EQ(ring.try_pop_n(&v, 1), 1u);
      ASSERT_EQ(v, expected++);
    }
  }
}

TEST(SpscRingTest, BulkPushAndPopAll) {
  SpscRing<int> ring(8);
  const std::vector<int> data = {1, 2, 3, 4, 5, 6};
  EXPECT_EQ(ring.try_push_n(data.data(), data.size()), 6u);
  // Only 2 slots left: a partial bulk push.
  EXPECT_EQ(ring.try_push_n(data.data(), data.size()), 2u);
  std::vector<int> out;
  EXPECT_EQ(ring.pop_all(out), 8u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5, 6, 1, 2}));
  EXPECT_EQ(ring.pop_all(out), 0u);
}

TEST(SpscRingTest, RepeatedPopAllGrowsTheOutputGeometrically) {
  // A consumer drains a few items per pass into one ever-growing vector.
  // Each pass must not reallocate (and copy) everything drained so far:
  // growth stays geometric, O(log n) reallocations in total.
  SpscRing<std::uint64_t> ring(16);
  std::vector<std::uint64_t> out;
  constexpr std::size_t kPasses = 4096;
  constexpr std::size_t kPerPass = 3;
  std::size_t reallocations = 0;
  for (std::size_t pass = 0; pass < kPasses; ++pass) {
    for (std::size_t i = 0; i < kPerPass; ++i) {
      ASSERT_TRUE(ring.try_push(pass * kPerPass + i));
    }
    const std::size_t capacity = out.capacity();
    ASSERT_EQ(ring.pop_all(out), kPerPass);
    if (out.capacity() != capacity) ++reallocations;
  }
  ASSERT_EQ(out.size(), kPasses * kPerPass);
  for (std::size_t i = 0; i < out.size(); ++i) ASSERT_EQ(out[i], i);
  EXPECT_LE(reallocations, std::bit_width(kPasses * kPerPass));
}

TEST(SpscRingTest, ProducerConsumerStress) {
  // Spin with yield, not cpu_relax: on a single-core host a pure PAUSE
  // spin burns whole timeslices while the other side waits for the CPU.
  constexpr std::uint64_t kItems = 200000;
  SpscRing<std::uint64_t> ring(64);
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kItems; ++i) {
      while (!ring.try_push(i)) std::this_thread::yield();
    }
  });
  std::uint64_t expected = 0;
  std::uint64_t v = 0;
  while (expected < kItems) {
    if (ring.try_pop_n(&v, 1) == 1) {
      ASSERT_EQ(v, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(ring.probably_empty());
}

TEST(SpscRingTest, BulkProducerConsumerStress) {
  constexpr std::uint64_t kItems = 100000;
  SpscRing<std::uint64_t> ring(32);
  std::thread producer([&] {
    std::uint64_t batch[7];
    std::uint64_t next = 0;
    while (next < kItems) {
      std::size_t n = 0;
      while (n < 7 && next + n < kItems) {
        batch[n] = next + n;
        ++n;
      }
      std::size_t pushed = 0;
      while (pushed < n) {
        const std::size_t got = ring.try_push_n(batch + pushed, n - pushed);
        if (got == 0) std::this_thread::yield();
        pushed += got;
      }
      next += n;
    }
  });
  std::vector<std::uint64_t> out;
  std::uint64_t expected = 0;
  while (expected < kItems) {
    out.clear();
    if (ring.pop_all(out) == 0) {
      std::this_thread::yield();
      continue;
    }
    for (std::uint64_t v : out) {
      ASSERT_EQ(v, expected);
      ++expected;
    }
  }
  producer.join();
}

TEST(SpscRingTest, TryPopNNeverExceedsItsBound) {
  SpscRing<int> ring(16);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(ring.try_push(i));
  int out[12];
  std::fill(std::begin(out), std::end(out), -1);
  EXPECT_EQ(ring.try_pop_n(out, 0), 0u);
  EXPECT_EQ(ring.try_pop_n(out, 3), 3u);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[2], 2);
  EXPECT_EQ(out[3], -1);  // nothing written past the bound
  // A bound above what is visible returns only what is there.
  EXPECT_EQ(ring.try_pop_n(out, 12), 7u);
  EXPECT_EQ(out[0], 3);
  EXPECT_EQ(out[6], 9);
  EXPECT_EQ(out[7], -1);
  EXPECT_EQ(ring.try_pop_n(out, 12), 0u);
}

TEST(SpscRingTest, BoundedBulkPopStress) {
  constexpr std::uint64_t kItems = 100000;
  constexpr std::size_t kBound = 5;
  SpscRing<std::uint64_t> ring(16);
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kItems; ++i) {
      while (!ring.try_push(i)) std::this_thread::yield();
    }
  });
  std::uint64_t out[kBound];
  std::uint64_t expected = 0;
  while (expected < kItems) {
    const std::size_t n = ring.try_pop_n(out, kBound);
    ASSERT_LE(n, kBound);
    if (n == 0) std::this_thread::yield();
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], expected++);
  }
  producer.join();
  EXPECT_TRUE(ring.probably_empty());
}

// ---------------------------------------------------------------------------
// Parker
// ---------------------------------------------------------------------------

TEST(ParkerTest, ReturnsImmediatelyWhenDataReady) {
  Parker parker;
  EXPECT_TRUE(parker.wait([] { return true; }, [] { return false; }));
}

TEST(ParkerTest, StopWinsWhenNoData) {
  Parker parker;
  EXPECT_FALSE(parker.wait([] { return false; }, [] { return true; }));
}

TEST(ParkerTest, ConsumingPredicateInvokedOnceAfterTrue) {
  Parker parker;
  int polls_after_hit = 0;
  bool hit = false;
  parker.wait(
      [&] {
        if (hit) ++polls_after_hit;
        hit = true;
        return true;
      },
      [] { return false; });
  EXPECT_EQ(polls_after_hit, 0);
}

TEST(ParkerTest, WakesParkedWaiterOnNotify) {
  // Drive the waiter all the way into the parked state (tiny spin
  // budget), then publish data and notify from another thread.
  Parker parker;
  SpinPolicy tiny;
  tiny.pause_spins = 1;
  tiny.yields = 1;
  std::atomic<bool> data{false};
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    const bool got = parker.wait(
        [&] { return data.load(std::memory_order_acquire); },
        [] { return false; }, tiny);
    EXPECT_TRUE(got);
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  data.store(true, std::memory_order_release);
  parker.notify();
  waiter.join();
  EXPECT_TRUE(woke.load());
}

TEST(ParkerTest, NotifyDuringTheLastRecheckWakesTheWaiter) {
  // The waiter's last has_data() re-check before it blocks starts the
  // producer and then sleeps, so the producer publishes and notifies
  // inside the window between that re-check and the wait. The notify
  // must end the wait, not the (long) park slice.
  Parker parker;
  SpinPolicy policy;
  policy.pause_spins = 0;
  policy.yields = 0;
  policy.park_slice = std::chrono::seconds(2);
  std::atomic<bool> data{false};
  std::atomic<bool> go{false};
  std::thread producer([&] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    data.store(true, std::memory_order_release);
    parker.notify();
  });
  bool first = true;
  const auto t0 = std::chrono::steady_clock::now();
  const bool got = parker.wait(
      [&] {
        if (first) {
          first = false;
          go.store(true, std::memory_order_release);
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          return false;
        }
        return data.load(std::memory_order_acquire);
      },
      [] { return false; }, policy);
  const auto waited = std::chrono::steady_clock::now() - t0;
  producer.join();
  EXPECT_TRUE(got);
  EXPECT_LT(waited, std::chrono::milliseconds(1000));
}

TEST(ParkerTest, NotifyAlwaysWakesForStop) {
  Parker parker;
  SpinPolicy tiny;
  tiny.pause_spins = 1;
  tiny.yields = 1;
  std::atomic<bool> stop{false};
  std::thread waiter([&] {
    EXPECT_FALSE(parker.wait([] { return false; },
                             [&] { return stop.load(); }, tiny));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  stop.store(true);
  parker.notify_always();
  waiter.join();
}

// ---------------------------------------------------------------------------
// Mailbox (both modes)
// ---------------------------------------------------------------------------

class MailboxModeTest : public ::testing::TestWithParam<bool> {};

TEST_P(MailboxModeTest, FifoAcrossThreads) {
  const bool lockfree = GetParam();
  constexpr std::uint32_t kItems = 50000;
  Mailbox mb(lockfree, 64);
  EXPECT_EQ(mb.lockfree(), lockfree);
  std::thread producer([&] {
    for (std::uint32_t i = 0; i < kItems; ++i) {
      mb.put(core::ThreadId{i});
    }
  });
  for (std::uint32_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(mb.take(), core::ThreadId{i});
  }
  producer.join();
  EXPECT_TRUE(mb.probably_empty());
  EXPECT_EQ(mb.size(), 0u);
}

TEST_P(MailboxModeTest, CountTracksOccupancy) {
  Mailbox mb(GetParam(), 64);
  EXPECT_TRUE(mb.probably_empty());
  mb.put(1);
  mb.put(2);
  mb.put(3);
  EXPECT_EQ(mb.size(), 3u);
  EXPECT_FALSE(mb.probably_empty());
  EXPECT_EQ(mb.take(), 1u);
  EXPECT_EQ(mb.size(), 2u);
  EXPECT_EQ(mb.take(), 2u);
  EXPECT_EQ(mb.take(), 3u);
  EXPECT_TRUE(mb.probably_empty());
}

INSTANTIATE_TEST_SUITE_P(BothModes, MailboxModeTest,
                         ::testing::Values(true, false),
                         [](const auto& info) {
                           return info.param ? "lockfree" : "mutex";
                         });

TEST_P(MailboxModeTest, TakenIdsCountUntilDone) {
  Mailbox mb(GetParam(), 64);
  const core::ThreadId ids[] = {10, 11, 12, 13, 14};
  mb.put_n(ids, 5);
  EXPECT_EQ(mb.size(), 5u);
  core::ThreadId out[kMailboxBatch];
  ASSERT_EQ(mb.take_n(out, 3), 3u);
  EXPECT_EQ(out[0], 10u);
  EXPECT_EQ(out[2], 12u);
  // Taken but not finished: still part of the kernel's backlog.
  EXPECT_EQ(mb.size(), 5u);
  EXPECT_EQ(mb.occupancy(), 5u);
  mb.done(3);
  EXPECT_EQ(mb.size(), 2u);
  ASSERT_EQ(mb.take_n(out, kMailboxBatch), 2u);
  EXPECT_EQ(out[0], 13u);
  EXPECT_EQ(out[1], 14u);
  EXPECT_EQ(mb.size(), 2u);
  mb.done(2);
  EXPECT_TRUE(mb.probably_empty());
}

TEST_P(MailboxModeTest, OutboxPublishesOneLineAtATime) {
  Mailbox mb(GetParam(), 64);
  // The Kernel is idle: the first staged id is handed over at once...
  mb.stage(7);
  EXPECT_EQ(mb.staged(), 0u);
  EXPECT_EQ(mb.occupancy(), 1u);
  // ...but only once per sweep: the rest waits for a full line.
  EXPECT_EQ(mb.take(), 7u);  // idle again
  for (std::uint32_t i = 0; i + 1 < kMailboxBatch; ++i) mb.stage(i);
  // Staged ids count for routing but are not delivered yet.
  EXPECT_EQ(mb.staged(), kMailboxBatch - 1);
  EXPECT_EQ(mb.occupancy(), 0u);
  EXPECT_EQ(mb.size(), kMailboxBatch - 1);
  mb.stage(99);  // fills the line: published at once
  EXPECT_EQ(mb.staged(), 0u);
  EXPECT_EQ(mb.occupancy(), kMailboxBatch);
  mb.flush();  // sweep end: an empty outbox publishes nothing
  EXPECT_EQ(mb.occupancy(), kMailboxBatch);
  mb.stage(100);  // the Kernel is busy: no early publish
  EXPECT_EQ(mb.staged(), 1u);
  mb.flush();
  EXPECT_EQ(mb.staged(), 0u);
  EXPECT_EQ(mb.occupancy(), kMailboxBatch + 1);
  core::ThreadId out[kMailboxBatch];
  ASSERT_EQ(mb.take_n(out, kMailboxBatch), kMailboxBatch);
  EXPECT_EQ(out[0], 0u);
  EXPECT_EQ(out[kMailboxBatch - 1], 99u);
  mb.done(kMailboxBatch);
  EXPECT_EQ(mb.take(), 100u);
  // The flush re-armed the wake: an idle Kernel gets its next id now.
  mb.stage(200);
  EXPECT_EQ(mb.occupancy(), 1u);
  EXPECT_EQ(mb.take(), 200u);
  EXPECT_TRUE(mb.probably_empty());
}

/// (lock-free?, ring capacity): the capacity-2 ring forces every batch
/// to be split across the consumer's takes. The mutex mode has no ring,
/// so one capacity covers it.
using BatchConfig = std::tuple<bool, std::size_t>;

class MailboxBatchTest : public ::testing::TestWithParam<BatchConfig> {};

TEST_P(MailboxBatchTest, BatchedFifoAcrossThreads) {
  const auto [lockfree, capacity] = GetParam();
  constexpr std::uint32_t kItems = 50000;
  constexpr std::uint32_t kMaxBatch = 100;  // > both ring capacities
  Mailbox mb(lockfree, capacity);
  std::thread producer([&] {
    std::vector<core::ThreadId> batch;
    std::uint32_t next = 0;
    for (std::uint32_t size = 1; next < kItems;
         size = size % kMaxBatch + 1) {
      batch.clear();
      for (std::uint32_t i = 0; i < size && next < kItems; ++i) {
        batch.push_back(next++);
      }
      if (size % 2 == 0) {
        mb.put_n(batch.data(), batch.size());
      } else {
        // The emulator's path: stage into the outbox, then flush.
        for (core::ThreadId tid : batch) mb.stage(tid);
        mb.flush();
      }
    }
  });
  core::ThreadId out[kMailboxBatch];
  std::uint32_t expected = 0;
  while (expected < kItems) {
    const std::size_t n = mb.take_n(out, kMailboxBatch);
    ASSERT_GE(n, 1u);
    ASSERT_LE(n, kMailboxBatch);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], expected++);
    // Never more in flight than the producer published.
    ASSERT_GE(mb.occupancy(), n);
    mb.done(n);
  }
  producer.join();
  EXPECT_EQ(mb.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndCapacities, MailboxBatchTest,
    ::testing::Values(BatchConfig{true, 2}, BatchConfig{true, 64},
                      BatchConfig{false, 64}),
    [](const ::testing::TestParamInfo<BatchConfig>& info) {
      return std::string(std::get<0>(info.param) ? "lockfree" : "mutex") +
             "_cap" + std::to_string(std::get<1>(info.param));
    });

TEST(MailboxTest, LockfreePutSpinsThroughFullRing) {
  // Capacity 2: the producer must wait for the consumer to catch up;
  // nothing may be lost or reordered.
  constexpr std::uint32_t kItems = 20000;
  Mailbox mb(true, 2);
  std::thread producer([&] {
    for (std::uint32_t i = 0; i < kItems; ++i) mb.put(core::ThreadId{i});
  });
  for (std::uint32_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(mb.take(), core::ThreadId{i});
  }
  producer.join();
}

// ---------------------------------------------------------------------------
// LaneTub
// ---------------------------------------------------------------------------

TEST(LaneTubTest, SingleLanePublishDrainFifo) {
  LaneTub tub(1, 16);
  const std::vector<TubEntry> batch = {
      {TubEntry::Kind::kLoadBlock, 0},
      {TubEntry::Kind::kUpdate, 7},
      {TubEntry::Kind::kUpdate, 9},
  };
  tub.publish(batch, 0);
  std::vector<TubEntry> out;
  EXPECT_EQ(tub.drain(out), 3u);
  EXPECT_EQ(out, batch);
  const TubStats st = tub.stats();
  EXPECT_EQ(st.publishes, 1u);
  EXPECT_EQ(st.entries_published, 3u);
  EXPECT_EQ(st.drains, 1u);
  EXPECT_EQ(st.trylock_failures, 0u);  // structurally impossible now
}

TEST(LaneTubTest, OversizeBatchRejected) {
  LaneTub tub(2, 8);
  const std::vector<TubEntry> batch(tub.max_batch() + 1,
                                    TubEntry{TubEntry::Kind::kUpdate, 1});
  EXPECT_THROW(tub.publish(batch, 0), core::TFluxError);
}

TEST(LaneTubTest, HintSelectsLaneModuloCount) {
  LaneTub tub(2, 8);
  const std::vector<TubEntry> a = {{TubEntry::Kind::kUpdate, 1}};
  const std::vector<TubEntry> b = {{TubEntry::Kind::kUpdate, 2}};
  tub.publish(a, 2);  // 2 % 2 == lane 0
  tub.publish(b, 1);  // lane 1
  std::vector<TubEntry> out;
  EXPECT_EQ(tub.drain(out), 2u);
  // Drain order is lane order: lane 0's entry first.
  EXPECT_EQ(out[0].id, 1u);
  EXPECT_EQ(out[1].id, 2u);
}

TEST(LaneTubTest, ShutdownWakeUnblocksWaiter) {
  LaneTub tub(1, 8);
  std::thread waiter([&] { tub.wait_nonempty(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  tub.shutdown_wake();
  waiter.join();
}

TEST(LaneTubTest, MultiProducerStressPreservesPerLaneOrder) {
  // Each producer hammers its own lane with ascending ids (batches of
  // varying size, lane stamped in the top bits); the consumer drains
  // concurrently and checks that every producer's ids arrive in
  // strictly ascending order - the ordering rule the emulator relies
  // on. Publishers outpace the drainer on purpose so the lane-full
  // spin path is exercised too.
  constexpr std::uint32_t kProducers = 3;
  constexpr std::uint32_t kPerProducer = 30000;
  LaneTub tub(kProducers, 16);
  std::vector<std::thread> producers;
  for (std::uint32_t lane = 0; lane < kProducers; ++lane) {
    producers.emplace_back([&tub, lane] {
      std::vector<TubEntry> batch;
      std::uint32_t next = 0;
      while (next < kPerProducer) {
        batch.clear();
        const std::uint32_t n = 1 + next % 7;
        for (std::uint32_t i = 0; i < n && next < kPerProducer; ++i) {
          batch.push_back(
              TubEntry{TubEntry::Kind::kUpdate, (lane << 24) | next});
          ++next;
        }
        tub.publish(batch, lane);
      }
    });
  }
  std::vector<std::uint32_t> seen(kProducers, 0);
  std::vector<TubEntry> out;
  std::uint64_t total = 0;
  while (total < static_cast<std::uint64_t>(kProducers) * kPerProducer) {
    out.clear();
    if (tub.drain(out) == 0) {
      tub.wait_nonempty();
      continue;
    }
    for (const TubEntry& e : out) {
      const std::uint32_t lane = e.id >> 24;
      const std::uint32_t seq = e.id & 0xFFFFFF;
      ASSERT_LT(lane, kProducers);
      ASSERT_EQ(seq, seen[lane]) << "lane " << lane;
      ++seen[lane];
    }
    total += out.size();
  }
  for (auto& p : producers) p.join();
  const TubStats st = tub.stats();
  EXPECT_EQ(st.entries_published,
            static_cast<std::uint64_t>(kProducers) * kPerProducer);
  std::vector<TubEntry> rest;
  EXPECT_EQ(tub.drain(rest), 0u);
}

}  // namespace
}  // namespace tflux::runtime
