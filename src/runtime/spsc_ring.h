// Fixed-capacity single-producer/single-consumer ring buffer: the
// wait-free primitive under the lock-free runtime hot path (per-kernel
// TUB lanes and the TSU->Kernel mailboxes).
//
// Layout follows the classic cache-conscious SPSC design: head (the
// consumer cursor) and tail (the producer cursor) live on their own
// cache lines, and each side keeps a local cache of the opposite
// cursor so the common case touches no shared line at all. All
// cross-thread synchronization is a release store of the own cursor
// paired with an acquire load on the other side - no CAS, no locks,
// no sequentially-consistent fences.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/error.h"

namespace tflux::runtime {

/// Cache line / destructive interference size. std::hardware_
/// destructive_interference_size triggers -Winterference-size noise on
/// gcc; 64 bytes is correct for every target this repo supports.
inline constexpr std::size_t kCacheLine = 64;

/// Pause hint for spin loops (PAUSE on x86, YIELD on arm, otherwise a
/// compiler barrier so the loop is not optimized into a pure load).
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Make room for `extra` more items at the end of `out`, growing its
/// capacity geometrically. An exact `reserve(size() + extra)` would
/// reallocate - and copy everything already drained - on every call.
template <typename T>
void reserve_more(std::vector<T>& out, std::size_t extra) {
  const std::size_t need = out.size() + extra;
  if (need > out.capacity()) {
    out.reserve(std::max(need, 2 * out.capacity()));
  }
}

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to a power of two, minimum 2.
  explicit SpscRing(std::size_t min_capacity) {
    std::size_t cap = 2;
    while (cap < min_capacity) {
      if (cap > (std::size_t{1} << 62)) {
        throw core::TFluxError("SpscRing: capacity overflow");
      }
      cap <<= 1;
    }
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  /// Producer: append one item. Returns false when full.
  bool try_push(const T& value) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ == capacity()) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ == capacity()) return false;
    }
    slots_[tail & mask_] = value;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Producer: append up to `n` items from `data`; returns how many
  /// fit (one cursor publish for the whole batch).
  std::size_t try_push_n(const T* data, std::size_t n) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t free = capacity() - (tail - cached_head_);
    if (free < n) {
      cached_head_ = head_.load(std::memory_order_acquire);
      free = capacity() - (tail - cached_head_);
      if (free == 0) return 0;
    }
    const std::size_t count = n < free ? n : free;
    for (std::size_t i = 0; i < count; ++i) {
      slots_[(tail + i) & mask_] = data[i];
    }
    tail_.store(tail + count, std::memory_order_release);
    return count;
  }

  /// Consumer: remove up to `max` items into `out`; returns how many
  /// (0 when empty). One cursor publish for the whole batch.
  std::size_t try_pop_n(T* out, std::size_t max) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    std::size_t avail = cached_tail_ - head;
    if (avail < max) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      avail = cached_tail_ - head;
      if (avail == 0) return 0;
    }
    const std::size_t count = avail < max ? avail : max;
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = slots_[(head + i) & mask_];
    }
    head_.store(head + count, std::memory_order_release);
    return count;
  }

  /// Consumer: move everything currently visible into `out`
  /// (appended); returns the count. One cursor publish per call.
  std::size_t pop_all(std::vector<T>& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    cached_tail_ = tail_.load(std::memory_order_acquire);
    const std::size_t count = cached_tail_ - head;
    if (count == 0) return 0;
    reserve_more(out, count);
    for (std::size_t i = 0; i < count; ++i) {
      out.push_back(slots_[(head + i) & mask_]);
    }
    head_.store(head + count, std::memory_order_release);
    return count;
  }

  /// Either side / observers: approximate occupancy (relaxed loads;
  /// exact when the ring is quiescent).
  std::size_t size_approx() const {
    return tail_.load(std::memory_order_relaxed) -
           head_.load(std::memory_order_relaxed);
  }
  bool probably_empty() const { return size_approx() == 0; }

 private:
  std::size_t mask_ = 0;
  std::vector<T> slots_;
  alignas(kCacheLine) std::atomic<std::size_t> head_{0};  // consumer
  alignas(kCacheLine) std::size_t cached_tail_ = 0;       // consumer-local
  alignas(kCacheLine) std::atomic<std::size_t> tail_{0};  // producer
  alignas(kCacheLine) std::size_t cached_head_ = 0;       // producer-local
};

}  // namespace tflux::runtime
