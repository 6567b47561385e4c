#include "runtime/trace_log.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace tflux::runtime {

namespace {

// The armed TraceLog (at most one per process: one Runtime::run traces
// at a time). The mutex orders arm/disarm, the mid-run dump and the
// atexit hook - exit() can fire on any thread while a run is still
// tearing down.
std::mutex g_armed_mutex;
TraceLog* g_armed = nullptr;

}  // namespace

TraceLog::Lane::~Lane() {
  for (std::size_t i = 0; i < kMaxChunks; ++i) {
    if (chunks[i] != nullptr) {
      std::allocator<core::TraceRecord>().deallocate(chunks[i],
                                                     chunk_capacity(i));
    }
  }
}

void TraceLog::Lane::open_next_chunk() {
  if (chunk == kMaxChunks) {
    std::fputs("TraceLog: lane exceeds its chunk directory\n", stderr);
    std::abort();
  }
  if (chunks[chunk] == nullptr) {
    chunks[chunk] =
        std::allocator<core::TraceRecord>().allocate(chunk_capacity(chunk));
  }
  next = chunks[chunk];
  end = next + chunk_capacity(chunk);
  ++chunk;
}

TraceLog::TraceLog(std::uint16_t num_kernels, std::uint16_t num_groups)
    : num_kernels_(num_kernels),
      num_lanes_(static_cast<std::size_t>(num_kernels) + num_groups),
      lanes_(new Lane[num_lanes_]) {}

TraceLog::~TraceLog() {
  bool armed = false;
  {
    std::lock_guard<std::mutex> lock(g_armed_mutex);
    if (g_armed == this) {
      g_armed = nullptr;
      armed = true;
    }
  }
  // Destroyed armed and unfinished: an exception is unwinding through
  // the frame's owner. Persist what the lanes hold.
  if (armed && !finished_) emergency_flush();
}

void TraceLog::rewind() {
  for (std::size_t i = 0; i < num_lanes_; ++i) {
    Lane& l = lanes_[i];
    l.published.store(0, std::memory_order_relaxed);
    l.clock = 0;
    l.next = l.end = nullptr;
    l.chunk = 0;
    l.count.store(0, std::memory_order_relaxed);
  }
  finished_ = false;
}

void TraceLog::arm_emergency(
    std::function<void(std::vector<core::TraceRecord>&&)> writer) {
  static std::once_flag register_hook;
  std::call_once(register_hook, [] { std::atexit(&TraceLog::atexit_hook); });
  std::lock_guard<std::mutex> lock(g_armed_mutex);
  emergency_writer_ = std::move(writer);
  g_armed = this;
}

void TraceLog::atexit_hook() {
  // exit() mid-run: flush the armed TraceLog so the on-disk trace says
  // "truncated" instead of ending silently short. Worker threads may
  // still be recording; the flush takes each lane's published prefix,
  // which is exactly what a truncated trace promises.
  std::lock_guard<std::mutex> lock(g_armed_mutex);
  if (g_armed) {
    TraceLog* log = g_armed;
    g_armed = nullptr;
    log->emergency_flush();
  }
}

void TraceLog::emergency_flush() {
  if (finished_) return;
  finished_ = true;
  if (emergency_writer_) emergency_writer_(merged_prefix());
}

void TraceLog::request_emergency_dump() {
  // The writer runs under the arming mutex so the atexit hook cannot
  // flush the same log into the same destination concurrently.
  std::lock_guard<std::mutex> lock(g_armed_mutex);
  if (g_armed == this && emergency_writer_) {
    emergency_writer_(merged_prefix());
  }
}

std::vector<core::TraceRecord> TraceLog::merged_prefix() const {
  std::vector<core::TraceRecord> records;
  std::vector<std::size_t> counts;
  merge(records, counts);
  return records;
}

void TraceLog::merge(std::vector<core::TraceRecord>& out,
                     std::vector<std::size_t>& counts) const {
  // Visit the first `n` records of `lane`, chunk by chunk.
  const auto visit_prefix = [](const Lane& lane, std::size_t n,
                                auto&& visit) {
    for (std::size_t j = 0; n > 0; ++j) {
      const std::size_t m = std::min(n, chunk_capacity(j));
      for (std::size_t k = 0; k < m; ++k) visit(lane.chunks[j][k]);
      n -= m;
    }
  };

  // One snapshot of each lane's published prefix: the owners may keep
  // appending (a mid-run dump), and every pass must see the same set.
  std::vector<std::size_t> prefix(num_lanes_);
  std::size_t total = 0;
  std::uint64_t max_clock = 0;
  for (std::size_t i = 0; i < num_lanes_; ++i) {
    prefix[i] = lanes_[i].count.load(std::memory_order_acquire);
    total += prefix[i];
    max_clock = std::max(
        max_clock, lanes_[i].published.load(std::memory_order_relaxed));
  }

  // Counting sort by clock (held in seq until renumbered). A lane's
  // clocks strictly ascend, so a bucket holds at most one record per
  // lane, and filling the lanes in order breaks ties by lane.
  counts.assign(max_clock + 2, 0);
  for (std::size_t i = 0; i < num_lanes_; ++i) {
    visit_prefix(lanes_[i], prefix[i],
                 [&](const core::TraceRecord& r) { ++counts[r.seq + 1]; });
  }
  for (std::size_t c = 1; c < counts.size(); ++c) counts[c] += counts[c - 1];
  out.resize(total);
  for (std::size_t i = 0; i < num_lanes_; ++i) {
    visit_prefix(lanes_[i], prefix[i], [&](const core::TraceRecord& r) {
      const std::size_t slot = counts[r.seq]++;
      out[slot] = r;
      out[slot].seq = slot;
    });
  }
}

void TraceLog::finish(std::vector<core::TraceRecord>& out) {
  {
    // Normal completion disarms the emergency path first, so neither
    // the atexit hook nor the destructor flushes a finished log.
    std::lock_guard<std::mutex> lock(g_armed_mutex);
    if (g_armed == this) g_armed = nullptr;
    emergency_writer_ = nullptr;
  }
  merge(out, counts_);
  finished_ = true;
}

}  // namespace tflux::runtime
