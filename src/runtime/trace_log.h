// Lock-free execution-trace collection for the native runtime. Each
// actor (kernel worker or TSU Emulator group) owns one SPSC lane; the
// hot-path record() is a relaxed fetch_add on a shared sequence ticket
// plus a single-producer ring push - no locks, no syscalls. A
// background flusher drains every lane into that lane's own buffer so
// lanes stay shallow even on long runs.
//
// Sequence tickets come from ONE atomic counter. Cache coherence makes
// the tickets totally ordered, and because every cross-thread handoff
// in the runtime (TUB ring publish -> emulator drain, mailbox publish
// -> kernel take) is a release/acquire pair, any two causally ordered
// events also draw their tickets in causal order. Ordering by seq thus
// yields a linearization consistent with happens-before, which is what
// the offline checker (core/check.h) replays. Each lane's one producer
// draws its tickets in program order, so every lane buffer is already
// seq-ordered and the final order is a k-way merge of the lanes.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/ddmtrace.h"
#include "runtime/spsc_ring.h"

namespace tflux::runtime {

/// In-memory trace sink shared by all actors of one RunFrame.
/// Created only when tracing is requested; a null TraceLog* everywhere
/// else keeps the disabled cost to one predictable branch per event.
class TraceLog {
 public:
  /// `lane_capacity` is rounded up to a power of two by SpscRing.
  TraceLog(std::uint16_t num_kernels, std::uint16_t num_groups,
           std::size_t lane_capacity = 1 << 16);
  ~TraceLog();

  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  std::uint16_t kernel_lane(std::uint16_t kernel) const { return kernel; }
  std::uint16_t emulator_lane(std::uint16_t group) const {
    return static_cast<std::uint16_t>(num_kernels_ + group);
  }

  /// Append one record from actor `lane`. Single producer per lane.
  /// `c` is the optional third operand (kRangeUpdate: run end).
  void record(std::uint16_t lane, core::TraceEvent event, std::uint32_t a,
              std::uint32_t b, std::uint32_t c = 0) {
    core::TraceRecord r;
    r.seq = seq_.fetch_add(1, std::memory_order_relaxed);
    r.event = event;
    r.actor = lane;
    r.a = a;
    r.b = b;
    r.c = c;
    // The flusher drains lanes far faster than actors fill them; a
    // full lane only means the flusher is momentarily behind.
    while (!lanes_[lane]->try_push(r)) cpu_relax();
  }

  /// Stop the flusher, drain every lane, and return all records
  /// merged into seq order. Call after the actor threads have joined.
  std::vector<core::TraceRecord> finish();

  /// Arm the emergency flush: on abnormal teardown - this TraceLog
  /// destroyed without finish() (exception unwinding through
  /// the frame's owner), or the process calling exit() mid-run (a
  /// std::atexit hook covers the armed TraceLog) - the lanes are
  /// drained and `writer` receives the seq-ordered prefix collected so
  /// far, so the run leaves a trace marked truncated instead of no
  /// trace (or a confusingly incomplete one). At most one TraceLog is
  /// armed at a time; finish() disarms. The writer must not touch this
  /// TraceLog and should only persist the records.
  void arm_emergency(
      std::function<void(std::vector<core::TraceRecord>&&)> writer);

  /// Idempotent: stop + drain + hand records to the armed writer.
  /// Called by the destructor and the atexit hook; safe to call
  /// directly in tests.
  void emergency_flush();

  /// Ask the flusher to hand the armed writer a seq-ordered *copy* of
  /// everything drained so far, without stopping collection - the
  /// mid-run variant of the emergency flush, fired by a ddmguard trip
  /// so the trace prefix is persisted before the run finishes (or
  /// wedges). Safe from any thread; processed by the flusher's next
  /// pass, or deterministically by finish() if the run ends first.
  /// No-op when no emergency writer is armed.
  void request_emergency_dump() {
    dump_requested_.store(true, std::memory_order_release);
  }

 private:
  static void atexit_hook();

  void flush_loop();
  /// Wake the flusher out of its wait, join it (idempotent).
  void stop_flusher();
  void drain_all();
  /// K-way merge of the drained lane buffers into one seq-ordered
  /// vector (the buffers are left as they are).
  std::vector<core::TraceRecord> merged() const;

  std::uint16_t num_kernels_;
  std::vector<std::unique_ptr<SpscRing<core::TraceRecord>>> lanes_;
  /// Records drained from lanes_[i], in seq order (flusher-owned until
  /// it is joined).
  std::vector<std::vector<core::TraceRecord>> drained_;
  std::atomic<std::uint64_t> seq_{0};
  /// The flusher waits on flush_cv_ between passes; stop_flusher()
  /// sets stop_ under flush_mutex_ and wakes it at once.
  std::mutex flush_mutex_;
  std::condition_variable flush_cv_;
  bool stop_ = false;
  std::atomic<bool> dump_requested_{false};
  bool finished_ = false;
  std::thread flusher_;
  std::function<void(std::vector<core::TraceRecord>&&)> emergency_writer_;
};

}  // namespace tflux::runtime
