// Per-Kernel reply channel: the TSU Emulator answers a Kernel's "find
// a ready DThread" query by dropping the DThread id here. Single
// producer (the owning emulator), single consumer (the owning Kernel).
//
// Delivery is batched on both sides. The emulator stage()s ids into a
// producer-side outbox of kMailboxBatch ids (one cache line) and a
// full outbox is published at once; the emulator flush()es every
// outbox it owns at the end of each TUB drain sweep, so nothing is
// held while it waits. Once per sweep, the first id staged for an
// idle Kernel (occupancy 0) is published on its own, so a long sweep
// such as a block activation does not leave kernels idle. A publish
// (put_n) costs one occupancy add, one ring cursor store and one
// Parker::notify however many ids it carries. The Kernel takes up to
// a batch per take_n and reports the batch finished with one done()
// after running it.
//
// Two selectable implementations (RuntimeOptions::lockfree):
//  - lock-free (default): a fixed-capacity SPSC ring with
//    spin-then-park waiting on the Kernel side. The Runtime sizes the
//    ring to the largest DDM Block, so a publish never blocks in
//    practice; if a ring ever is full, put_n() wakes the Kernel and
//    spin-yields until it catches up.
//  - mutex (paper-faithful ablation baseline): mutex + condvar deque,
//    one lock per published or taken batch.
//
// The routing heuristics read a mailbox's depth, size(): its
// occupancy() - ids published and not yet done(), queued or taken and
// still running - plus the ids staged() in the outbox. Both live in
// relaxed atomics, so the probe never touches the mutex or the ring
// cursors, and both sides update the shared occupancy counter once per
// batch, not once per id.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>

#include "core/types.h"
#include "runtime/parking.h"
#include "runtime/spsc_ring.h"

namespace tflux::runtime {

/// Ids per mailbox publish and per Kernel take: one cache line.
inline constexpr std::size_t kMailboxBatch =
    kCacheLine / sizeof(core::ThreadId);

class Mailbox {
 public:
  /// `capacity` is only meaningful in lock-free mode: it must cover
  /// the peak number of undelivered dispatches (the RunFrame uses the
  /// largest block's thread count; overflow degrades to spinning, not
  /// to loss).
  Mailbox(bool lockfree, std::size_t capacity)
      : lockfree_(lockfree), ring_(lockfree ? capacity : 2) {}

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Emulator side: queue a ready DThread (or kInvalidThread, the exit
  /// sentinel) in the outbox. A full outbox is published at once, and
  /// so is the first id staged since the last flush() for a Kernel
  /// with nothing to run; `before_publish` runs right before either
  /// publish (the trace clock store).
  template <typename BeforePublish>
  void stage(core::ThreadId tid, BeforePublish&& before_publish) {
    const std::uint32_t n = staged_.load(std::memory_order_relaxed);
    outbox_[n] = tid;
    staged_.store(n + 1, std::memory_order_relaxed);
    if (n + 1 == kMailboxBatch) {
      before_publish();
      publish_outbox();
    } else if (n == 0 && wake_idle_ &&
               count_.load(std::memory_order_relaxed) == 0) {
      // An idle Kernel should not wait out a long sweep (a block
      // activation stages a whole first wave). Only once per sweep: a
      // Kernel faster than the emulator would otherwise be handed
      // every id on its own.
      wake_idle_ = false;
      before_publish();
      publish_outbox();
    }
  }
  void stage(core::ThreadId tid) {
    stage(tid, [] {});
  }

  /// Emulator side, at the end of each TUB drain sweep: publish
  /// whatever the outbox holds and re-arm the idle-Kernel wake.
  void flush() {
    publish_outbox();
    wake_idle_ = true;
  }

  /// Producer side: publish `n` ids at once, in order. Bypasses the
  /// outbox, so the emulator only publishes through stage()/flush().
  void put_n(const core::ThreadId* ids, std::size_t n) {
    // Counted before the ids become visible: the Kernel's done() can
    // then never drive the counter below zero.
    count_.fetch_add(n, std::memory_order_relaxed);
    if (lockfree_) {
      std::size_t sent = ring_.try_push_n(ids, n);
      while (sent < n) {
        // Ring full: the Kernel is busy executing. It drains without
        // ever waiting on us, so waking it and yielding cannot
        // deadlock.
        parker_.notify();
        std::this_thread::yield();
        sent += ring_.try_push_n(ids + sent, n - sent);
      }
      parker_.notify();
      return;
    }
    {
      std::lock_guard<std::mutex> lk(mutex_);
      items_.insert(items_.end(), ids, ids + n);
    }
    cv_.notify_one();
  }
  void put(core::ThreadId tid) { put_n(&tid, 1); }

  /// Kernel side: block until at least one id arrives, then move up to
  /// `max` of them (FIFO) into `out`; returns how many. They stay in
  /// size() until done().
  std::size_t take_n(core::ThreadId* out, std::size_t max) {
    if (lockfree_) {
      std::size_t n = 0;
      parker_.wait([&] { return (n = ring_.try_pop_n(out, max)) != 0; },
                   [] { return false; });
      return n;
    }
    std::unique_lock<std::mutex> lk(mutex_);
    cv_.wait(lk, [this] { return !items_.empty(); });
    const std::size_t n = std::min(max, items_.size());
    std::copy_n(items_.begin(), n, out);
    items_.erase(items_.begin(), items_.begin() + n);
    return n;
  }

  /// Kernel side: the last `n` taken ids have finished running.
  void done(std::size_t n) {
    count_.fetch_sub(n, std::memory_order_relaxed);
  }

  /// Take one id and report it done at once (tests).
  core::ThreadId take() {
    core::ThreadId tid = core::kInvalidThread;
    take_n(&tid, 1);
    done(1);
    return tid;
  }

  /// Ids published and not yet done(): queued, or taken and running.
  std::size_t occupancy() const {
    return count_.load(std::memory_order_relaxed);
  }

  /// Ids in the outbox, not yet published.
  std::size_t staged() const {
    return staged_.load(std::memory_order_relaxed);
  }

  /// Routing depth: occupancy() + staged(). Approximate for any reader
  /// but the producer; stats and heuristics only.
  std::size_t size() const { return occupancy() + staged(); }

  /// Approximate emptiness (routing heuristic for the emulator only).
  /// The emulator's own outbox is checked first: mid-sweep it is
  /// usually non-empty, which spares a read of the line the Kernel
  /// writes.
  bool probably_empty() const { return staged() == 0 && occupancy() == 0; }

  bool lockfree() const { return lockfree_; }

 private:
  void publish_outbox() {
    const std::uint32_t n = staged_.load(std::memory_order_relaxed);
    if (n == 0) return;
    put_n(outbox_.data(), n);
    staged_.store(0, std::memory_order_relaxed);
  }

  const bool lockfree_;
  /// Both sides read-modify-write this once per batch: own line, off
  /// the ring's read-mostly geometry.
  alignas(kCacheLine) std::atomic<std::size_t> count_{0};

  /// Producer-only outbox (one line). staged_ is atomic only so other
  /// emulators' routing reads (remote steal targets) are race-free.
  alignas(kCacheLine) std::array<core::ThreadId, kMailboxBatch> outbox_{};
  std::atomic<std::uint32_t> staged_{0};
  bool wake_idle_ = true;  ///< this sweep's idle-Kernel publish is left

  // Lock-free mode.
  SpscRing<core::ThreadId> ring_;
  Parker parker_;

  // Mutex mode.
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<core::ThreadId> items_;
};

}  // namespace tflux::runtime
