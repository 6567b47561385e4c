// TsuState: the platform-independent state machine of the Thread
// Synchronization Unit. It owns the Ready Count algebra, the ready
// pool, and the DDM Block protocol (Inlet loads a block's metadata,
// Outlet frees it and chains to the next block; the last Outlet ends
// the program).
//
// The simulated platforms and the reference scheduler drive this
// class:
//   machine::Machine         - TFluxHard's memory-mapped TSU device
//   cell::CellMachine        - TFluxCell's PPE-side TSU
//   core::ReferenceScheduler - the untimed reference execution
// The native runtime does not: runtime::TsuEmulator keeps its own
// Ready Counts in the Synchronization Memory (runtime/sync_memory.h)
// and its own dispatch placement, so the two TSUs are separate code.
//
// TsuState itself is single-threaded; its owners serialize access (the
// paper's TSU Group is one unit precisely so TSU-to-TSU traffic stays
// internal).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/dataplane.h"
#include "core/program.h"
#include "core/ready_set.h"
#include "core/types.h"

namespace tflux::core {

/// Lifecycle of a DThread as seen by the TSU.
enum class ThreadState : std::uint8_t {
  kNotLoaded,  ///< block not yet loaded into the TSU
  kWaiting,    ///< loaded; Ready Count > 0
  kReady,      ///< Ready Count == 0; in the ready pool
  kRunning,    ///< fetched by a Kernel
  kCompleted,  ///< post-processing done
};

/// Counters the TSU maintains (exported by every platform's stats).
struct TsuCounters {
  std::uint64_t threads_completed = 0;   ///< application threads only
  std::uint64_t consumer_updates = 0;    ///< Ready Count decrements
  std::uint64_t fetch_requests = 0;      ///< fetch() calls
  std::uint64_t fetch_misses = 0;        ///< fetch() with empty pool
  std::uint64_t blocks_loaded = 0;
  std::uint64_t steals = 0;              ///< non-home-queue dispatches
  std::uint64_t steal_local = 0;         ///< kHier: same-shard steals
  std::uint64_t steal_remote = 0;        ///< kHier: cross-shard steals
  // Data plane (all zero without a DataPlane). affinity_hits +
  // affinity_misses + affinity_cold == application dispatches, under
  // *every* policy - the classification measures where warm bytes were,
  // not whether the policy chased them.
  std::uint64_t forwards = 0;            ///< bulk forward runs accounted
  std::uint64_t bytes_forwarded = 0;     ///< producer->consumer bytes
  std::uint64_t affinity_hits = 0;       ///< dispatched where most bytes warm
  std::uint64_t affinity_misses = 0;     ///< warm bytes lived elsewhere
  std::uint64_t affinity_cold = 0;       ///< no recorded producer yet
  std::uint64_t cross_shard_bytes = 0;   ///< warm input bytes crossing shards
};

class TsuState {
 public:
  /// `num_kernels` is the number of worker Kernels the program will run
  /// on; it sizes the per-kernel ready queues of the locality policy.
  /// `shards` (kHier/kAffinity only) supplies the topology for
  /// hierarchical stealing; `dataplane` (optional) enables forward and
  /// affinity accounting, and under kAffinity routes each ready DThread
  /// to its warmest kernel instead of its home. Both must outlive the
  /// TsuState.
  TsuState(const Program& program, std::uint16_t num_kernels,
           PolicyKind policy = PolicyKind::kLocality,
           const ShardMap* shards = nullptr,
           const DataPlane* dataplane = nullptr);

  /// Arm the TSU: the first block's Inlet becomes the only ready
  /// DThread. Must be called exactly once before any fetch().
  void start();

  /// A Kernel requests its next DThread. Returns nullopt when nothing
  /// is ready (the Kernel must retry) - including after the program is
  /// done (check done() to distinguish).
  std::optional<ThreadId> fetch(KernelId kernel);

  /// Post-processing phase for a completed DThread:
  ///  - Inlet: load its block (initialize Ready Counts; threads with a
  ///    zero count enter the ready pool).
  ///  - Application: decrement each consumer's Ready Count; consumers
  ///    reaching zero enter the ready pool.
  ///  - Outlet: unload the block; make the next block's Inlet ready,
  ///    or mark the program done if this was the last block.
  void complete(ThreadId tid);

  /// True once the last block's Outlet has completed.
  bool done() const { return done_; }

  ThreadState state(ThreadId tid) const { return states_[tid]; }
  std::uint32_t ready_count(ThreadId tid) const { return ready_counts_[tid]; }
  std::size_t ready_pool_size() const { return ready_.size(); }
  BlockId current_block() const { return current_block_; }

  const TsuCounters& counters() const { return counters_; }
  const Program& program() const { return program_; }

 private:
  void make_ready(ThreadId tid);
  void decrement(ThreadId consumer);

  const Program& program_;
  const DataPlane* dataplane_;
  bool affinity_;  ///< kAffinity routing engaged (policy + dataplane)
  ReadySet ready_;
  std::vector<std::uint32_t> ready_counts_;
  std::vector<ThreadState> states_;
  BlockId current_block_ = kInvalidBlock;
  bool started_ = false;
  bool done_ = false;
  TsuCounters counters_;
};

}  // namespace tflux::core
