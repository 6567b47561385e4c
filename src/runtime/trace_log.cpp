#include "runtime/trace_log.h"

#include <chrono>
#include <cstdlib>
#include <mutex>

namespace tflux::runtime {

namespace {

// The armed TraceLog (at most one per process: one Runtime::run traces
// at a time). The mutex orders arm/disarm against the atexit hook -
// exit() can fire on any thread while a run is still tearing down.
std::mutex g_armed_mutex;
TraceLog* g_armed = nullptr;

}  // namespace

TraceLog::TraceLog(std::uint16_t num_kernels, std::uint16_t num_groups,
                   std::size_t lane_capacity)
    : num_kernels_(num_kernels) {
  const std::size_t lanes =
      static_cast<std::size_t>(num_kernels) + num_groups;
  lanes_.reserve(lanes);
  drained_.resize(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    lanes_.push_back(
        std::make_unique<SpscRing<core::TraceRecord>>(lane_capacity));
  }
  flusher_ = std::thread([this] { flush_loop(); });
}

TraceLog::~TraceLog() {
  bool armed = false;
  {
    std::lock_guard<std::mutex> lock(g_armed_mutex);
    if (g_armed == this) {
      g_armed = nullptr;
      armed = true;
    }
  }
  if (!finished_ && armed) {
    // Destroyed without finish(): an exception is unwinding through
    // the owning Runtime::run. Persist what the lanes hold.
    emergency_flush();
    return;
  }
  if (!finished_) finish();
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
  // still be producing; the drained prefix is whatever made it into
  // the lanes, which is exactly what a truncated trace promises.
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
  stop_flusher();
  drain_all();
  if (emergency_writer_) emergency_writer_(merged());
  drained_.clear();
}

void TraceLog::drain_all() {
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    lanes_[i]->pop_all(drained_[i]);
  }
}

std::vector<core::TraceRecord> TraceLog::merged() const {
  std::size_t total = 0;
  for (const auto& lane : drained_) total += lane.size();
  std::vector<core::TraceRecord> out;
  out.reserve(total);
  // Few lanes (kernels + emulators): a linear scan for the smallest
  // head beats a heap.
  std::vector<std::size_t> next(drained_.size(), 0);
  while (out.size() < total) {
    std::size_t best = drained_.size();
    for (std::size_t i = 0; i < drained_.size(); ++i) {
      if (next[i] == drained_[i].size()) continue;
      if (best == drained_.size() ||
          drained_[i][next[i]].seq < drained_[best][next[best]].seq) {
        best = i;
      }
    }
    out.push_back(drained_[best][next[best]++]);
  }
  return out;
}

void TraceLog::stop_flusher() {
  {
    std::lock_guard<std::mutex> lock(flush_mutex_);
    stop_ = true;
  }
  flush_cv_.notify_one();
  if (flusher_.joinable()) flusher_.join();
}

void TraceLog::flush_loop() {
  for (;;) {
    drain_all();
    if (dump_requested_.load(std::memory_order_acquire)) {
      // Mid-run dump (a guard trip): hand the armed writer a merged
      // copy of the prefix drained so far and keep collecting. The
      // flag is cleared only when a writer was actually invoked;
      // otherwise finish() picks it up (it captures the writer before
      // disarming, so exactly one of the two paths runs it).
      std::function<void(std::vector<core::TraceRecord>&&)> writer;
      {
        std::lock_guard<std::mutex> lock(g_armed_mutex);
        writer = emergency_writer_;
      }
      if (writer) {
        dump_requested_.store(false, std::memory_order_relaxed);
        writer(merged());
      }
    }
    // Waiting (not spinning) keeps the flusher off the workers' CPUs,
    // and a long period keeps its wakeups from preempting workers on
    // oversubscribed machines; 64k-deep lanes absorb several
    // milliseconds of events even at full dispatch rate. A timed wait
    // rather than a sleep: stop_flusher() ends it at once, so joining
    // the flusher never waits out the period.
    std::unique_lock<std::mutex> lock(flush_mutex_);
    if (flush_cv_.wait_for(lock, std::chrono::milliseconds(4),
                           [this] { return stop_; })) {
      return;
    }
  }
}

std::vector<core::TraceRecord> TraceLog::finish() {
  std::function<void(std::vector<core::TraceRecord>&&)> writer;
  {
    // Normal completion disarms the emergency path first, so neither
    // the atexit hook nor the destructor flushes a finished log. The
    // writer is kept in hand: a dump request the flusher has not
    // served yet (it sees the writer already gone and leaves the flag
    // set) is honored below, deterministically, before returning.
    std::lock_guard<std::mutex> lock(g_armed_mutex);
    if (g_armed == this) g_armed = nullptr;
    writer = std::move(emergency_writer_);
    emergency_writer_ = nullptr;
  }
  stop_flusher();
  drain_all();
  std::vector<core::TraceRecord> records = merged();
  drained_.clear();
  if (dump_requested_.exchange(false, std::memory_order_acq_rel) &&
      writer) {
    writer(std::vector<core::TraceRecord>(records));
  }
  finished_ = true;
  return records;
}

}  // namespace tflux::runtime
