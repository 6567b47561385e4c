#include "runtime/trace_log.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
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
  merge(records);
  return records;
}

void TraceLog::merge(std::vector<core::TraceRecord>& out) const {
  // Read position in one lane's counted prefix; `left` counts the
  // records in the chunks after the current one.
  struct Cursor {
    const Lane* lane;
    std::size_t chunk;
    std::size_t left;
    const core::TraceRecord* next;
    const core::TraceRecord* end;

    void open(std::size_t j) {
      const std::size_t m = std::min(left, chunk_capacity(j));
      chunk = j;
      next = lane->chunks[j];
      end = next + m;
      left -= m;
    }
  };

  // One snapshot of each lane's counted prefix: the owners may keep
  // appending (a mid-run dump), and the merge must see a fixed set.
  std::vector<Cursor> live;
  live.reserve(num_lanes_);
  std::size_t total = 0;
  for (std::size_t i = 0; i < num_lanes_; ++i) {
    const std::size_t n = lanes_[i].count.load(std::memory_order_acquire);
    if (n == 0) continue;
    total += n;
    live.push_back(Cursor{&lanes_[i], 0, n, nullptr, nullptr});
    live.back().open(0);
  }
  out.resize(total);
  core::TraceRecord* dst = out.data();
  std::uint64_t seq = 0;

  // A record's merge key packs (clock, lane) into one integer: the
  // clock sits in seq until renumbered, lanes are 16-bit actor ids and
  // clocks count records, far below 2^48.
  const auto key = [](const core::TraceRecord& r) {
    return (r.seq << 16) | r.actor;
  };
  // Copy `c`'s records whose key is below `bound`; false once the
  // lane's prefix is used up.
  const auto copy_below = [&](Cursor& c, std::uint64_t bound) {
    for (;;) {
      while (c.next != c.end && key(*c.next) < bound) {
        *dst = *c.next++;
        (dst++)->seq = seq++;
      }
      if (c.next != c.end) return true;
      if (c.left == 0) return false;
      c.open(c.chunk + 1);
    }
  };
  // Each lane's keys strictly ascend, so the lane with the least head
  // may emit its whole run up to the runner-up's head in one tight
  // copy.
  while (live.size() > 1) {
    std::size_t best = 0;
    std::uint64_t least = key(*live[0].next);
    std::uint64_t runner_up = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = 1; i < live.size(); ++i) {
      const std::uint64_t k = key(*live[i].next);
      if (k < least) {
        runner_up = least;
        least = k;
        best = i;
      } else if (k < runner_up) {
        runner_up = k;
      }
    }
    if (!copy_below(live[best], runner_up)) {
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(best));
    }
  }
  if (!live.empty()) {
    copy_below(live.front(), std::numeric_limits<std::uint64_t>::max());
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
  merge(out);
  finished_ = true;
}

}  // namespace tflux::runtime
