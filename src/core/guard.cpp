#include "core/guard.h"

#include <sstream>
#include <utility>

#include "core/spec.h"

namespace tflux::core {

namespace {

constexpr std::size_t kMaxViolations = 64;

std::string thread_ref(const Program& program, ThreadId tid) {
  if (tid == kInvalidThread || tid >= program.num_threads()) {
    return "thread <invalid>";
  }
  const DThread& t = program.thread(tid);
  return "thread " + std::to_string(tid) +
         (t.label.empty() ? "" : " '" + t.label + "'");
}

}  // namespace

const char* to_string(GuardMode mode) {
  switch (mode) {
    case GuardMode::kOff:
      return "off";
    case GuardMode::kSampled:
      return "sampled";
    case GuardMode::kFull:
      return "full";
  }
  return "?";
}

bool parse_guard_spec(const std::string& spec, GuardOptions& out) {
  if (spec == "off") {
    out.mode = GuardMode::kOff;
    return true;
  }
  if (spec == "full") {
    out.mode = GuardMode::kFull;
    return true;
  }
  if (spec == "sampled") {
    out.mode = GuardMode::kSampled;
    out.sample_period = 8;
    return true;
  }
  std::string key;
  std::string value;
  if (split_spec(spec, key, value) && key == "sampled") {
    // min_one: a period of 0 would divide by zero at the first sample
    // point, so "sampled:0" is rejected here (and Guard's constructor
    // additionally normalizes a zero period from programmatic
    // GuardOptions to 1, as a belt-and-braces guard).
    std::uint64_t period = 0;
    if (!parse_spec_uint(value, 1u << 20, /*min_one=*/true, period)) {
      return false;
    }
    out.mode = GuardMode::kSampled;
    out.sample_period = static_cast<std::uint32_t>(period);
    return true;
  }
  return false;
}

std::string GuardViolation::to_string(const Program& program) const {
  std::ostringstream out;
  out << "[" << core::to_string(code) << "]";
  if (block != kInvalidBlock) out << " block " << block;
  out << " gen " << generation;
  if (thread != kInvalidThread) {
    out << ", " << thread_ref(program, thread);
  }
  out << ": " << message;
  return out.str();
}

Guard::Guard(const Program& program, const GuardOptions& options,
             std::uint16_t num_kernels, std::uint16_t num_groups)
    : program_(program),
      table_(program.thread_table()),
      options_(options),
      num_kernels_(num_kernels),
      epoch_(program.num_threads()),
      block_state_(program.num_blocks()),
      last_activation_(num_groups, kInvalidBlock),
      lanes_(static_cast<std::size_t>(num_kernels) + num_groups) {
  if (options_.sample_period == 0) options_.sample_period = 1;
}

void Guard::trip(FindingCode code, ThreadId thread, ThreadId other,
                 BlockId block, std::string message) {
  total_violations_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(violations_mutex_);
    bool duplicate = false;
    for (const GuardViolation& v : violations_) {
      if (v.code == code && v.thread == thread && v.block == block) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate && violations_.size() < kMaxViolations) {
      GuardViolation v;
      v.code = code;
      v.thread = thread;
      v.other = other;
      v.block = block;
      v.generation = generation_.load(std::memory_order_relaxed);
      v.message = std::move(message);
      violations_.push_back(std::move(v));
    }
  }
  // The one-shot callback runs outside the mutex: it typically has
  // the TraceLog persist the in-flight trace prefix.
  if (!callback_fired_.exchange(true, std::memory_order_acq_rel) &&
      on_first_violation_) {
    on_first_violation_();
  }
}

void Guard::on_publish(ThreadId producer, ThreadId consumer,
                       std::uint16_t lane) {
  LaneCounters& lc = lanes_[lane];
  ++lc.clock;
  const BlockId block = table_.block(consumer);
  if (!sampled(block)) return;
  ++lc.checks;
  if (block_state_[block].load(std::memory_order_relaxed) ==
      kBlockRetired) {
    trip(FindingCode::kBlockLifecycle, consumer, producer, block,
         "update " + thread_ref(program_, producer) + " -> " +
             thread_ref(program_, consumer) +
             " was published to block " + std::to_string(block) +
             " after the block retired (stale generation)");
  }
}

bool Guard::on_update_applied(ThreadId tid, std::uint16_t lane) {
  LaneCounters& lc = lanes_[lane];
  ++lc.clock;
  ++lc.stamps;
  ++lc.checks;
  const std::uint32_t prev =
      epoch_[tid].fetch_add(1u << kSeenShift, std::memory_order_relaxed);
  const std::uint32_t seen = prev >> kSeenShift;
  if (seen >= table_.ready_count_init(tid)) {
    trip(FindingCode::kNegativeReadyCount, tid, kInvalidThread,
         table_.block(tid),
         thread_ref(program_, tid) + " received update " +
             std::to_string(seen + 1) +
             " against an initial Ready Count of " +
             std::to_string(table_.ready_count_init(tid)) +
             "; the count would go negative (decrement suppressed)");
    return false;
  }
  return true;
}

void Guard::on_dispatch(ThreadId tid, bool deep, std::uint16_t lane) {
  LaneCounters& lc = lanes_[lane];
  ++lc.clock;
  ++lc.stamps;
  ++lc.checks;
  const std::uint32_t prev =
      epoch_[tid].fetch_add(1, std::memory_order_relaxed);
  const std::uint32_t state = prev & kStateMask;
  if (state != kPending) {
    trip(FindingCode::kDoubleDispatch, tid, kInvalidThread,
         table_.block(tid),
         thread_ref(program_, tid) +
             " was dispatched twice (epoch state was " +
             std::to_string(state) + ", expected Pending)");
    return;
  }
  if (deep) {
    ++lc.checks;
    const std::uint32_t seen = prev >> kSeenShift;
    if (seen < table_.ready_count_init(tid)) {
      trip(FindingCode::kPrematureDispatch, tid, kInvalidThread,
           table_.block(tid),
           thread_ref(program_, tid) + " was dispatched after " +
               std::to_string(seen) + " of " +
               std::to_string(table_.ready_count_init(tid)) +
               " update(s); its Ready Count had not reached zero");
    }
  }
}

void Guard::on_execute(ThreadId tid, std::uint16_t lane) {
  LaneCounters& lc = lanes_[lane];
  ++lc.clock;
  ++lc.stamps;
  ++lc.checks;
  const std::uint32_t prev =
      epoch_[tid].fetch_add(1, std::memory_order_relaxed);
  const std::uint32_t state = prev & kStateMask;
  if (state == kPending) {
    trip(FindingCode::kExecutionWithoutDispatch, tid, kInvalidThread,
         table_.block(tid),
         thread_ref(program_, tid) +
             " executed without a preceding dispatch");
  } else if (state >= kExecuted) {
    trip(FindingCode::kDoubleExecution, tid, kInvalidThread,
         table_.block(tid),
         thread_ref(program_, tid) +
             " executed twice; DDM guarantees exactly-once execution");
  }
}

void Guard::on_activate(BlockId block, std::uint16_t group,
                        std::uint16_t lane) {
  LaneCounters& lc = lanes_[lane];
  ++lc.clock;
  ++lc.checks;
  if (last_activation_[group] != kInvalidBlock &&
      block <= last_activation_[group]) {
    trip(FindingCode::kBlockLifecycle, kInvalidThread, kInvalidThread,
         block,
         "group " + std::to_string(group) + " activated block " +
             std::to_string(block) + " after already activating block " +
             std::to_string(last_activation_[group]) +
             "; activations must strictly ascend");
  }
  last_activation_[group] = block;
  block_state_[block].store(kBlockActive, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_relaxed);
  if (group == 0 && sampled(block)) ++lc.sampled_blocks;
}

void Guard::on_retire(BlockId block, std::uint16_t lane) {
  LaneCounters& lc = lanes_[lane];
  ++lc.clock;
  block_state_[block].store(kBlockRetired, std::memory_order_relaxed);
  if (!sampled(block)) return;
  // Completeness sweep: every application instance of the block must
  // have executed by OutletDone (each one's completion feeds the
  // Outlet's Ready Count, so the handoff chain makes its epoch stamp
  // visible here).
  for (ThreadId tid : program_.block(block).app_threads) {
    ++lc.checks;
    const std::uint32_t state =
        epoch_[tid].load(std::memory_order_relaxed) & kStateMask;
    if (state < kExecuted) {
      trip(FindingCode::kMissingExecution, tid, kInvalidThread, block,
           thread_ref(program_, tid) +
               (state == kPending
                    ? " was never dispatched although its block retired"
                    : " was dispatched but never completed although "
                      "its block retired"));
    }
  }
}

void Guard::on_stale_apply(ThreadId tid, ThreadId producer, BlockId block,
                           std::uint16_t lane) {
  LaneCounters& lc = lanes_[lane];
  ++lc.clock;
  ++lc.checks;
  trip(FindingCode::kBlockLifecycle, tid, producer, block,
       "update " + thread_ref(program_, producer) + " -> " +
           thread_ref(program_, tid) + " arrived for block " +
           std::to_string(block) +
           " after the emulator had moved past it (stale generation)");
}

std::vector<GuardViolation> Guard::violations() const {
  std::lock_guard<std::mutex> lock(violations_mutex_);
  return violations_;
}

GuardStats Guard::stats() const {
  GuardStats s;
  for (const LaneCounters& lc : lanes_) {
    s.checks += lc.checks;
    s.epoch_stamps += lc.stamps;
    s.sampled_blocks += lc.sampled_blocks;
  }
  s.violations = total_violations_.load(std::memory_order_relaxed);
  return s;
}

void Guard::reset_stats_epoch() {
  for (LaneCounters& lc : lanes_) lc = LaneCounters{};
}

std::string Guard::report(const Program& program) const {
  std::ostringstream out;
  const std::vector<GuardViolation> vs = violations();
  for (const GuardViolation& v : vs) {
    out << v.to_string(program) << "\n";
  }
  const GuardStats s = stats();
  out << "ddmguard: " << s.violations << " violation(s), " << s.checks
      << " check(s) over " << s.sampled_blocks
      << " sampled block(s) in program '" << program.name() << "'";
  if (s.violations > vs.size()) {
    out << " (" << (s.violations - vs.size())
        << " deduplicated or beyond the report cap)";
  }
  out << "\n";
  return out.str();
}

}  // namespace tflux::core
