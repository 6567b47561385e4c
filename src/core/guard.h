// ddmguard: online (inline) verification of the DDM protocol - the
// always-on complement of ddmcheck (core/check.h). Where check_trace()
// replays a recorded run after the fact, the Guard validates events as
// they happen, from hooks on the runtime's existing handoff points
// (TubGroup publish -> SM decrement -> TSU dispatch -> kernel
// execute), and reports violations with the same finding codes
// (core/findings.h) the offline checker would assign to the same root
// cause.
//
// State: one epoch word per DThread instance - a single
// std::atomic<std::uint32_t> packing the lifecycle state in bits 0-1
// (0 Pending, 1 Dispatched, 2 Executed) and the number of Ready Count
// updates observed in bits 2 and up. Every stamp is one relaxed RMW on
// a line the hook's call site already touches; the *ordering* needed
// to check monotonicity is not re-established here but piggybacked on
// the runtime's release/acquire handoffs, exactly like the ddmtrace
// Lamport clocks: any two causally ordered protocol events reach
// their hooks in causal order, so a state regression observed by a
// fetch_add really is a protocol violation, not a reordering artifact.
// Per-lane (kernel or emulator group) Lamport-style event clocks count
// hook invocations for the same reason the trace's clocks work - they
// give each violation a position in the causal order at trip time.
//
// Checked invariants (full mode; see sampled() for what sampling
// gates):
//   - Ready Count discipline: no instance receives more updates than
//     its initial Ready Count (negative-ready-count), range updates
//     land exactly once per member, and - on sampled blocks, where
//     every member update is individually accounted - no dispatch
//     happens before the count reached zero (premature-dispatch).
//   - Exactly-once lifecycle: the epoch state must step Pending ->
//     Dispatched -> Executed; revisits are double-dispatch /
//     double-execution / execution-without-dispatch.
//   - Block lifecycle: per-group activations strictly ascend, and no
//     update is published to (or applied on) a retired block - the
//     stale-generation class that previously surfaced only as a silent
//     double-execution, now a diagnosis naming producer, consumer,
//     block, and generation.
//
// Overhead is bounded by deterministic sampling: in sampled:N mode
// only every Nth block gets the per-member range accounting, the
// dispatch-time Ready Count comparison, the publish-side retired-block
// probe, and the retire-time completeness sweep; epoch stamps and the
// cheap exactly-once checks are always maintained. A Guard trip fires
// a one-shot callback the runtime wires to the ddmtrace emergency
// flush, so the in-flight trace prefix is on disk for offline triage
// before the run even reports the violation.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "core/findings.h"
#include "core/program.h"
#include "core/types.h"

namespace tflux::core {

enum class GuardMode : std::uint8_t {
  kOff,      ///< no guard object; hooks compile to one null branch
  kSampled,  ///< epoch stamps always; deep checks on every Nth block
  kFull,     ///< every check on every block
};

const char* to_string(GuardMode mode);

struct GuardOptions {
  GuardMode mode = GuardMode::kOff;
  /// sampled:N - blocks with id % N == 0 get the deep checks.
  std::uint32_t sample_period = 8;
};

/// Parse "off", "full", "sampled" (period 8) or "sampled:N" (N >= 1).
/// Returns false (out untouched) on malformed input.
bool parse_guard_spec(const std::string& spec, GuardOptions& out);

/// One online violation. `generation` is the global activation count
/// at trip time (how many block-partition activations had happened),
/// which distinguishes "block 3, first time around" from a replay.
struct GuardViolation {
  FindingCode code = FindingCode::kMalformedRecord;
  ThreadId thread = kInvalidThread;  ///< primary instance, if any
  ThreadId other = kInvalidThread;   ///< producer / second instance
  BlockId block = kInvalidBlock;
  std::uint32_t generation = 0;
  std::string message;

  /// "[negative-ready-count] block 2 gen 5, thread 7 'c': ..."
  std::string to_string(const Program& program) const;
};

/// Aggregated guard counters (summed over lanes by stats()).
struct GuardStats {
  std::uint64_t checks = 0;          ///< explicit invariant comparisons
  std::uint64_t epoch_stamps = 0;    ///< relaxed epoch RMWs performed
  std::uint64_t sampled_blocks = 0;  ///< blocks that got deep checks
  std::uint64_t violations = 0;      ///< total trips (pre-dedup)

  /// Zero every counter - the per-run stats epoch boundary for
  /// embedders aggregating across back-to-back runs.
  void reset() { *this = GuardStats{}; }
};

class Guard {
 public:
  /// Lifecycle states packed into epoch bits 0-1.
  enum : std::uint32_t {
    kPending = 0,
    kDispatched = 1,
    kExecuted = 2,
    kStateMask = 3,
    kSeenShift = 2,
  };

  /// Lanes follow the TraceLog convention: kernel k's hooks use lane
  /// k, group g's emulator uses lane num_kernels + g.
  Guard(const Program& program, const GuardOptions& options,
        std::uint16_t num_kernels, std::uint16_t num_groups);

  Guard(const Guard&) = delete;
  Guard& operator=(const Guard&) = delete;

  const GuardOptions& options() const { return options_; }

  /// Deep checks apply to this block in this mode.
  bool sampled(BlockId block) const {
    return options_.mode == GuardMode::kFull ||
           block % options_.sample_period == 0;
  }

  /// One-shot callback on the first violation (any lane). The runtime
  /// points this at TraceLog::request_emergency_dump so a trip also
  /// persists the in-flight trace prefix. Called at most once, outside
  /// the violation mutex.
  void set_on_first_violation(std::function<void()> callback) {
    on_first_violation_ = std::move(callback);
  }

  // --- hooks (hot path; see runtime/guard_hooks.h forwarders) -------

  /// Producer publishes update(s) to `consumer` (TubGroup; one probe
  /// covers a whole completion - its consumers share one block).
  /// Sampled blocks: probe that the consumer's block is not retired.
  void on_publish(ThreadId producer, ThreadId consumer,
                  std::uint16_t lane);

  /// The emulator is about to apply one Ready Count decrement to
  /// `tid`. Returns false when the decrement would take the count
  /// below zero (negative-ready-count tripped); the caller must then
  /// SKIP the SM decrement - the guard contains the fault instead of
  /// letting the SM underflow.
  [[nodiscard]] bool on_update_applied(ThreadId tid, std::uint16_t lane);

  /// `tid` is being dispatched (before its id is staged for the
  /// mailbox, so before any kernel can take it). `deep` adds
  /// the Ready Count comparison (callers pass sampled(block) - it is
  /// only sound on blocks where every member update was accounted).
  void on_dispatch(ThreadId tid, bool deep, std::uint16_t lane);

  /// `tid`'s body finished executing on a kernel.
  void on_execute(ThreadId tid, std::uint16_t lane);

  /// `group` activated `block` (Inlet load or shadow promote).
  void on_activate(BlockId block, std::uint16_t group, std::uint16_t lane);

  /// The coordinator observed `block`'s OutletDone. Marks the block
  /// retired; on sampled blocks, sweeps its application instances for
  /// missing executions (sound here: every app completion
  /// happens-before OutletDone through the update chain).
  void on_retire(BlockId block, std::uint16_t lane);

  /// The emulator received an update for `tid` of an already-passed
  /// `block` (stale generation observed on the apply side).
  void on_stale_apply(ThreadId tid, ThreadId producer, BlockId block,
                      std::uint16_t lane);

  // --- reporting ----------------------------------------------------

  /// True once any violation tripped.
  bool tripped() const {
    return total_violations_.load(std::memory_order_relaxed) != 0;
  }

  /// Deduplicated violations (call after the run's threads joined).
  std::vector<GuardViolation> violations() const;

  /// Counter totals over all lanes (call after threads joined).
  GuardStats stats() const;

  /// Start a fresh per-run counter epoch: zero every lane's check/
  /// stamp/clock counters. Violations and epoch words are protocol
  /// state, not statistics, and are left untouched. Only between runs
  /// (no actor threads live).
  void reset_stats_epoch();

  /// All violations, one per line, plus a summary line.
  std::string report(const Program& program) const;

  /// Test accessors for one instance's epoch word.
  std::uint32_t epoch_state(ThreadId tid) const {
    return epoch_[tid].load(std::memory_order_relaxed) & kStateMask;
  }
  std::uint32_t updates_seen(ThreadId tid) const {
    return epoch_[tid].load(std::memory_order_relaxed) >> kSeenShift;
  }

 private:
  enum : std::uint8_t { kBlockPending = 0, kBlockActive = 1,
                        kBlockRetired = 2 };

  /// Per-lane counters, cache-line isolated: each lane is written by
  /// exactly one actor thread.
  struct alignas(64) LaneCounters {
    std::uint64_t clock = 0;   ///< Lamport-style hook-event clock
    std::uint64_t checks = 0;
    std::uint64_t stamps = 0;
    std::uint64_t sampled_blocks = 0;
  };

  void trip(FindingCode code, ThreadId thread, ThreadId other,
            BlockId block, std::string message);

  const Program& program_;
  const ThreadTable& table_;  ///< initial Ready Counts and blocks
  GuardOptions options_;
  std::uint16_t num_kernels_ = 0;

  /// Epoch word per DThread instance: bits 0-1 lifecycle state, bits
  /// 2+ updates seen. Relaxed RMWs; ordering comes from the runtime's
  /// handoffs (header comment).
  std::vector<std::atomic<std::uint32_t>> epoch_;
  std::vector<std::atomic<std::uint8_t>> block_state_;
  /// Last block each group activated (single writer: the group's own
  /// emulator thread).
  std::vector<BlockId> last_activation_;
  std::atomic<std::uint32_t> generation_{0};
  std::vector<LaneCounters> lanes_;

  std::atomic<std::uint64_t> total_violations_{0};
  std::atomic<bool> callback_fired_{false};
  std::function<void()> on_first_violation_;
  mutable std::mutex violations_mutex_;
  std::vector<GuardViolation> violations_;
};

}  // namespace tflux::core
