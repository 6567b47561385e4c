// Execution-trace collection for the native runtime. Each actor
// (kernel worker or TSU Emulator group) owns one lane: an append-only
// buffer of geometrically growing chunks that only the owner writes.
// The hot-path record() takes no lock, makes no syscall and touches no
// counter another actor writes.
//
// Order comes from one Lamport clock per lane. record() bumps the
// lane's clock and stamps the record with it. Every cross-thread
// handoff of the runtime (TUB publish -> emulator drain, mailbox
// publish -> kernel take) is a release/acquire pair: the sender calls
// publish() before its release, which stores the lane's clock in its
// `published` word once per handoff (not once per record), and the
// receiving actor calls receive() right after its acquire: its clock
// rises to the largest clock published by the lanes that can send to
// it, so its next record is stamped above every record made before the
// handoff. Sorting the records by (clock, lane) therefore gives a
// linearization consistent with happens-before, which is what the
// offline checker (core/check.h) replays. Each lane is already sorted
// by clock, so the merge is a streaming k-way merge over the lanes'
// chunks: it copies each lane's records in runs, writes the output
// sequentially, and renumbers `seq` 0..n-1, so a merged trace is dense
// and seq-sorted.
//
// A lane publishes its record count with a release store after each
// record, so any thread can read a lane's published prefix while its
// owner keeps appending: that is how the emergency paths (an exception
// unwinding through the owner, exit() mid-run, a ddmguard trip) get a
// consistent truncated trace without stopping the actors.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <vector>

#include "core/ddmtrace.h"

namespace tflux::runtime {

/// In-memory trace sink shared by all actors of one RunFrame. Created
/// only when tracing is requested; a null TraceLog* everywhere else
/// keeps the disabled cost to one predictable branch per event. A
/// Runtime keeps its TraceLog across runs (rewind()), so the lanes'
/// chunks are allocated once.
class TraceLog {
 public:
  TraceLog(std::uint16_t num_kernels, std::uint16_t num_groups);
  ~TraceLog();

  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  std::uint16_t emulator_lane(std::uint16_t group) const {
    return static_cast<std::uint16_t>(num_kernels_ + group);
  }

  /// Append one record from actor `lane`. Single producer per lane.
  /// `c` is the optional third operand (kRangeUpdate: run end).
  void record(std::uint16_t lane, core::TraceEvent event, std::uint32_t a,
              std::uint32_t b, std::uint32_t c = 0) {
    Lane& l = lanes_[lane];
    if (l.next == l.end) l.open_next_chunk();
    ::new (static_cast<void*>(l.next++))
        core::TraceRecord{++l.clock, event, lane, a, b, c};
    l.count.store(l.count.load(std::memory_order_relaxed) + 1,
                  std::memory_order_release);
  }

  /// Send side of a handoff, called by actor `lane` before the release
  /// that hands work to another actor: makes the lane's clock (that of
  /// its latest record) visible to that actor's receive().
  void publish(std::uint16_t lane) {
    Lane& l = lanes_[lane];
    l.published.store(l.clock, std::memory_order_relaxed);
  }

  /// Receive side of a handoff, called by actor `lane` right after the
  /// acquire that took the handed-off work: a kernel after a mailbox
  /// take (its senders are the emulators), an emulator after a TUB
  /// drain (kernels, plus the emulator lanes that carry steal grants
  /// and the shutdown). The sender publish()ed its clock before its
  /// release, so the relaxed loads here see at least that value.
  void receive(std::uint16_t lane) {
    Lane& self = lanes_[lane];
    std::uint64_t clock = self.clock;
    for (std::size_t i = lane < num_kernels_ ? num_kernels_ : 0;
         i < num_lanes_; ++i) {
      clock = std::max(clock,
                       lanes_[i].published.load(std::memory_order_relaxed));
    }
    self.clock = clock;
  }

  /// Merge every lane into `out` (its capacity is reused), ordered by
  /// (clock, lane) with seq renumbered 0..n-1, and disarm the
  /// emergency writer. Call after the actor threads have joined.
  void finish(std::vector<core::TraceRecord>& out);

  /// Make the log ready for another run of the same geometry: clocks
  /// and counts to zero, chunks kept, not finished. Call only while no
  /// actor records.
  void rewind();

  /// Arm the emergency flush: on abnormal teardown - this TraceLog
  /// destroyed without finish() (exception unwinding through the
  /// frame's owner), or the process calling exit() mid-run (a
  /// std::atexit hook covers the armed TraceLog) - `writer` receives
  /// the merged prefix collected so far, so the run leaves a trace
  /// marked truncated instead of no trace (or a confusingly incomplete
  /// one). At most one TraceLog is armed at a time; finish() disarms.
  /// The writer must not touch this TraceLog and should only persist
  /// the records.
  void arm_emergency(
      std::function<void(std::vector<core::TraceRecord>&&)> writer);

  /// Idempotent: hand the merged prefix to the armed writer and mark
  /// the log finished. Called by the destructor and the atexit hook;
  /// safe to call directly in tests.
  void emergency_flush();

  /// Hand the armed writer the merged prefix recorded so far, without
  /// stopping collection - the mid-run variant of the emergency flush,
  /// fired by a ddmguard trip so the prefix is persisted before the run
  /// finishes (or wedges). Runs synchronously on the calling thread;
  /// safe from any thread. No-op when no emergency writer is armed.
  void request_emergency_dump();

 private:
  /// First chunk's capacity in records; chunk i holds kFirstChunk << i,
  /// so kMaxChunks chunks hold ~1.8e13 records per lane.
  static constexpr std::size_t kFirstChunk = 4096;
  static constexpr std::size_t kMaxChunks = 32;
  static constexpr std::size_t chunk_capacity(std::size_t i) {
    return kFirstChunk << i;
  }

  struct alignas(64) Lane {
    Lane() = default;
    Lane(const Lane&) = delete;
    Lane& operator=(const Lane&) = delete;
    ~Lane();

    /// Open chunks[chunk] (allocating it on first use) as the append
    /// target. Owner only.
    void open_next_chunk();

    /// The lane's clock as of its latest publish(), read by receive().
    /// Alone on its cache line: receivers poll it, the owner rewrites
    /// it once per handoff.
    std::atomic<std::uint64_t> published{0};
    // Owner-side state from here on.
    alignas(64) std::uint64_t clock = 0;
    core::TraceRecord* next = nullptr;  ///< next free slot
    core::TraceRecord* end = nullptr;   ///< end of the open chunk
    std::size_t chunk = 0;              ///< index of the next chunk to open
    /// Records appended, released after each one: readers see a
    /// complete prefix of this many records.
    std::atomic<std::size_t> count{0};
    /// Chunk i is written by the owner before any record in it is
    /// counted, so a reader that acquired `count` may follow it.
    std::array<core::TraceRecord*, kMaxChunks> chunks{};
  };

  static void atexit_hook();

  /// K-way merge of every lane's counted prefix by (clock, lane) into
  /// `out`, seq renumbered 0..n-1.
  void merge(std::vector<core::TraceRecord>& out) const;
  /// merge() into a fresh vector (the emergency paths).
  std::vector<core::TraceRecord> merged_prefix() const;

  std::uint16_t num_kernels_;
  std::size_t num_lanes_;
  std::unique_ptr<Lane[]> lanes_;
  bool finished_ = false;
  std::function<void(std::vector<core::TraceRecord>&&)> emergency_writer_;
};

}  // namespace tflux::runtime
