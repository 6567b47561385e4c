// Spin-then-park waiting for the lock-free runtime structures.
//
// Consumers of an SPSC ring (a Kernel waiting on its mailbox, the TSU
// Emulator waiting for TUB lane traffic) first spin - PAUSE-spinning
// briefly, then yielding - because on a busy runtime the producer is
// at most a few hundred cycles away; only when the spin budget runs
// out do they park on a condition variable. Producers publish data
// with a release store (the ring cursor) and only touch the mutex /
// condvar when the consumer has declared itself parked, so the
// steady-state fast path performs no syscalls and takes no locks.
//
// The park/wake handshake is the standard one: the consumer stores
// `parked = true`, re-checks for data, and only then blocks; the
// producer stores its data, then checks `parked`. A seq_cst fence on
// both sides keeps those two store-then-load sequences from
// reordering past each other (Dekker-style). The consumer holds the
// mutex from its re-check until the wait releases it, and a producer
// that saw `parked` takes that mutex before notifying, so a notify
// cannot fall between the re-check and the wait; the bounded wait_for
// is belt and braces on top.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "runtime/spsc_ring.h"

namespace tflux::runtime {

struct SpinPolicy {
  /// PAUSE-spin iterations before the first yield.
  std::uint32_t pause_spins = 256;
  /// sched_yield iterations before parking (essential when the host
  /// has fewer cores than runtime threads: the producer needs the CPU).
  std::uint32_t yields = 32;
  /// Park timeout; a bounded doze so a lost wakeup can only cost one
  /// slice, never a hang.
  std::chrono::microseconds park_slice{1000};
};

class Parker {
 public:
  /// Consumer side: wait until `has_data()` returns true (-> returns
  /// true) or `stop()` returns true (-> returns false). `has_data` may
  /// be a consuming poll (e.g. a ring pop): it is never re-invoked
  /// after returning true.
  template <typename HasData, typename Stop>
  bool wait(const HasData& has_data, const Stop& stop,
            const SpinPolicy& policy = {}) {
    for (std::uint32_t i = 0; i < policy.pause_spins; ++i) {
      if (has_data()) return true;
      if (stop()) return false;
      cpu_relax();
    }
    for (std::uint32_t i = 0; i < policy.yields; ++i) {
      if (has_data()) return true;
      if (stop()) return false;
      std::this_thread::yield();
    }
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(mutex_);
        parked_.store(true, std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (has_data()) {
          parked_.store(false, std::memory_order_relaxed);
          return true;
        }
        if (stop()) {
          parked_.store(false, std::memory_order_relaxed);
          return false;
        }
        // Plain timed wait: a notify or a spurious wakeup simply falls
        // through to the re-check below.
        cv_.wait_for(lk, policy.park_slice);
        parked_.store(false, std::memory_order_relaxed);
      }
      if (has_data()) return true;
      if (stop()) return false;
    }
  }

  /// Producer side: call after publishing data. Costs a seq_cst fence
  /// (a full barrier - on x86 a locked instruction that drains the
  /// store buffer) plus one relaxed load, and touches the mutex only
  /// when the consumer is parked. Batched producers (Mailbox::put_n)
  /// pay it once per batch.
  void notify() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (parked_.load(std::memory_order_relaxed)) {
      // Empty critical section: the waiter holds the mutex from its
      // predicate re-check until its wait releases it, so this notify
      // lands either before the re-check (which then sees the data) or
      // inside the wait.
      { std::lock_guard<std::mutex> lk(mutex_); }
      cv_.notify_one();
    }
  }

  /// Unconditional wake (shutdown paths): takes the mutex and notifies
  /// everyone whether or not the parked flag is visible yet.
  void notify_always() {
    { std::lock_guard<std::mutex> lk(mutex_); }
    cv_.notify_all();
  }

 private:
  std::atomic<bool> parked_{false};
  std::mutex mutex_;
  std::condition_variable cv_;
};

}  // namespace tflux::runtime
