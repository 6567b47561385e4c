// The TSU Emulator: the software implementation of the TSU Group
// (TFluxSoft, paper section 4.2). One emulator thread drains its TUB,
// applies Ready Count updates to the Synchronization Memories of the
// kernels it owns (via the TKT, or by sequential search when Thread
// Indexing is disabled), and dispatches DThreads that become ready to
// those kernels' mailboxes, preferring the DThread's home Kernel
// (spatial locality). Dispatches are staged in each mailbox's outbox
// and published a cache line of ids at a time (or at once, once per
// sweep, to an idle kernel); every outbox is flushed at the end of
// each TUB drain sweep (see runtime/mailbox.h), and the routing reads
// count staged ids as part of a mailbox's depth.
//
// Multiple TSU Groups (the section 4.1 extension, software flavor):
// with G groups, emulator g owns kernels k where k % G == g; the
// Kernel-side TubGroup routes each command to the owning emulator's
// TUB, and emulator 0 coordinates block chaining and shutdown.
//
// Sharded topology (Options::shard_map): ownership follows a
// clustered ShardMap instead of the modular stripe - each emulator is
// one shard's scheduling loop - and the kHier policy adds
// hierarchical stealing on top: overflow dispatch tries sibling
// kernels in the same shard first, and only a shard-wide backlog
// escalates to a kStealGrant handed to the least-loaded remote shard
// (subject to Options::steal_threshold, so warm-cache home dispatch
// stays the common case). The receiving emulator dispatches the
// granted DThread to its shallowest local mailbox.
//
// Block pipeline (Options::block_pipeline, default on): instead of a
// synchronous SyncMemoryGroup reload at every block boundary, the
// emulator stages the next block's Ready Counts in the shadow SM
// generation once the current block's outstanding-dispatch count falls
// below a low-water mark, applies cross-block updates that race ahead
// of the flip directly to that shadow, and activates the next block
// with a single generation flip. The coordinator flips at OutletDone -
// before the next Inlet has even been scheduled - so the first wave of
// the next block reaches the mailboxes without waiting for a kernel
// round trip. The Inlet still executes (accounting parity with the
// paper's protocol); only its SM-load work has moved off the critical
// path. The synchronous reload path stays selectable as the ablation
// baseline, mirroring the lockfree / --mutex-runtime pattern.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/dataplane.h"
#include "core/program.h"
#include "core/ready_set.h"
#include "core/types.h"
#include "runtime/guard_hooks.h"
#include "runtime/mailbox.h"
#include "runtime/sync_memory.h"
#include "runtime/tub_group.h"

namespace tflux::runtime {

class TraceLog;

/// Live per-emulator counters: cache-line aligned so two TSU Groups'
/// stat bumps (emulators sit in one contiguous container) never
/// false-share.
struct alignas(kCacheLine) EmulatorStats {
  std::uint64_t updates_processed = 0;  ///< Ready Count decrements
  std::uint64_t dispatches = 0;         ///< ready DThreads delivered
  std::uint64_t home_dispatches = 0;    ///< delivered to home kernel
  std::uint64_t blocks_loaded = 0;      ///< partition loads by this one
  std::uint64_t sm_search_steps = 0;  ///< slots scanned without TKT
  std::uint64_t drain_sweeps = 0;
  /// Block activations whose shadow generation was already staged when
  /// the flip happened (the pipeline hid the whole SM load).
  std::uint64_t prefetch_hits = 0;
  /// Activations that had to load the shadow synchronously (flip
  /// happened before the low-water prefetch fired). hits + misses ==
  /// blocks_loaded in pipelined mode; both stay 0 in synchronous mode.
  std::uint64_t prefetch_misses = 0;
  /// Updates applied from the deferred queue (raced ahead of a block
  /// neither current nor next; rare once the shadow path exists).
  std::uint64_t deferred_replays = 0;
  /// Dispatches routed away from the home kernel by the kLocality /
  /// kAdaptive policies (kFifo round-robin is not counted).
  std::uint64_t steal_dispatches = 0;
  /// kRangeUpdate records applied (each counts its members into
  /// updates_processed, so unit and coalesced runs reconcile there;
  /// the ratio range_members / range_updates_processed is the
  /// coalescing factor).
  std::uint64_t range_updates_processed = 0;
  std::uint64_t range_members = 0;
  /// kHier only: dispatches routed to a sibling kernel of this shard
  /// (counted into steal_dispatches as well).
  std::uint64_t steal_local = 0;
  /// kHier only: ready DThreads this emulator delegated to a remote
  /// shard via kStealGrant (the grant's dispatch happens - and is
  /// counted - at the receiver).
  std::uint64_t steal_remote = 0;
  /// kHier only: steal grants received and dispatched locally. Summed
  /// over all emulators, steals_in == steal_remote.
  std::uint64_t steals_in = 0;
  /// Data plane (Options::dataplane, any policy): application
  /// dispatches whose target kernel held the maximal warm share of the
  /// consumer's input bytes (ties count as hits)...
  std::uint64_t affinity_hits = 0;
  /// ...whose warm maximum sat on some other kernel...
  std::uint64_t affinity_misses = 0;
  /// ...and whose producers had no warm bytes anywhere (first wave /
  /// no overlapping footprints). hits + misses + cold == application
  /// dispatches when the data plane is on.
  std::uint64_t affinity_cold = 0;
  /// Warm input bytes that lived on a shard other than the dispatch
  /// target's (0 without a ShardMap): the cross-shard traffic the
  /// affinity policy tries to avoid.
  std::uint64_t cross_shard_bytes = 0;

  EmulatorStats& operator+=(const EmulatorStats& other) {
    updates_processed += other.updates_processed;
    dispatches += other.dispatches;
    home_dispatches += other.home_dispatches;
    blocks_loaded += other.blocks_loaded;
    sm_search_steps += other.sm_search_steps;
    drain_sweeps += other.drain_sweeps;
    prefetch_hits += other.prefetch_hits;
    prefetch_misses += other.prefetch_misses;
    deferred_replays += other.deferred_replays;
    steal_dispatches += other.steal_dispatches;
    range_updates_processed += other.range_updates_processed;
    range_members += other.range_members;
    steal_local += other.steal_local;
    steal_remote += other.steal_remote;
    steals_in += other.steals_in;
    affinity_hits += other.affinity_hits;
    affinity_misses += other.affinity_misses;
    affinity_cold += other.affinity_cold;
    cross_shard_bytes += other.cross_shard_bytes;
    return *this;
  }
};

class TsuEmulator {
 public:
  struct Options {
    /// Use the Thread-to-Kernel Table for SM lookup (paper's Thread
    /// Indexing). Off = sequential SM search (the ablation baseline).
    bool thread_indexing = true;
    /// Ready-DThread routing policy within the group.
    core::PolicyKind policy = core::PolicyKind::kLocality;
    /// This emulator's TSU Group and the total group count.
    std::uint16_t group = 0;
    std::uint16_t num_groups = 1;
    /// Pipelined block transitions (shadow-generation preload + flip).
    /// Off = synchronous SM reload at every boundary (ablation).
    bool block_pipeline = true;
    /// Outstanding-dispatch low-water mark that triggers the shadow
    /// preload of the next block. 0 = auto (2 x owned kernels).
    std::uint32_t prefetch_low_water = 0;
    /// kAdaptive / kHier: keep a DThread on its home kernel while that
    /// mailbox's depth (Mailbox::size(): staged, queued or still
    /// running) is at most this; beyond it, route to the shallowest
    /// owned mailbox.
    std::uint32_t adaptive_backlog = 2;
    /// Topology map replacing the k % num_groups ownership stripe
    /// (sharded TSU; must outlive the emulator, declare num_groups
    /// shards, and cover every kernel). Null = legacy interleaving.
    const core::ShardMap* shard_map = nullptr;
    /// kHier only: minimum depth advantage a remote shard's shallowest
    /// mailbox must have over this shard's before a backlogged
    /// dispatch is delegated there (hysteresis keeping warm-cache home
    /// dispatch the common case). Ignored without a shard_map.
    std::uint32_t steal_threshold = 4;
    /// Managed data plane (must outlive the emulator). Non-null turns
    /// on affinity accounting for every application dispatch (any
    /// policy) and enables the kAffinity placement. Null = implicit
    /// shared memory only (the --no-dataplane ablation; kAffinity
    /// then degrades to kHier).
    const core::DataPlane* dataplane = nullptr;
    /// Execution-trace sink (null = tracing off, the default).
    TraceLog* trace = nullptr;
    /// ddmguard instance (null = online checking off, the default).
    core::Guard* guard = nullptr;
    /// Armed fault injection (null = none; guard tests only).
    FaultPlan* fault = nullptr;
  };

  /// `sm` is shared between emulators (slot ownership is disjoint);
  /// `mailboxes` covers all kernels (this emulator only touches the
  /// ones in its group).
  TsuEmulator(const core::Program& program, TubGroup& tubs,
              SyncMemoryGroup& sm, std::deque<Mailbox>& mailboxes,
              Options options);

  /// Thread main. Emulator 0 arms the program (activates block 0 /
  /// dispatches its Inlet); every emulator processes its TUB until the
  /// shutdown broadcast, then releases its kernels and returns.
  void run();

  const EmulatorStats& stats() const { return stats_; }
  std::uint16_t group() const { return options_.group; }

 private:
  bool owns_kernel(core::KernelId k) const {
    return options_.shard_map != nullptr
               ? options_.shard_map->shard_of(k) == options_.group
               : k % options_.num_groups == options_.group;
  }
  /// Route `tid` to an owned kernel and stage it in that mailbox's
  /// outbox (published when full or by flush_outboxes()).
  void dispatch(core::ThreadId tid);
  /// Publish every owned mailbox's outbox: end of each TUB drain sweep,
  /// after the initial activation, and with the shutdown sentinel.
  void flush_outboxes();
  /// Data-plane accounting for one application dispatch onto `target`
  /// (no-op without Options::dataplane or for Inlets/Outlets).
  void account_dataplane(core::ThreadId tid, core::KernelId target);
  /// kHier: whole shard backlogged at `local_best` - delegate `tid` to
  /// the least-loaded remote shard if one beats us by steal_threshold.
  /// Returns true when a kStealGrant was published (the caller must
  /// skip the local mailbox but still account the partition slot).
  bool try_delegate(core::ThreadId tid, std::size_t local_best);
  /// Receiver side of a kStealGrant: dispatch the granted DThread (its
  /// home kernel lives in another shard) to the shallowest local
  /// mailbox.
  void dispatch_steal_grant(core::ThreadId tid);
  /// Make `block` the group's current block: flip the (pre)loaded
  /// shadow generation in (or reload synchronously in the ablation
  /// baseline), reset the outstanding count, optionally dispatch the
  /// block's Inlet (coordinator fast path), dispatch the zero-Ready-
  /// Count first wave, and replay any applicable deferred updates.
  void activate_block(core::BlockId block, bool dispatch_inlet);
  /// Apply one kUpdate or kRangeUpdate: to the current generation, to
  /// the shadow (pipelined cross-block update), or defer it. A range
  /// decrements every owned member in one contiguous SM sweep. Returns
  /// true when the update was applied.
  bool handle_update(const TubEntry& entry);
  /// Apply one range update [lo, hi] to the chosen generation, filling
  /// zeroed_. With deep guard checks on the block, every member is
  /// individually accounted first; a member whose decrement the guard
  /// suppressed (Ready Count would underflow) drops the whole sweep to
  /// per-member unit decrements of the healthy members. Returns the
  /// number of members decremented.
  std::size_t range_decrement(bool shadow, core::ThreadId lo,
                              core::ThreadId hi);
  /// kLostUpdate injection: if the armed victim lies in [lo, hi], is
  /// owned here, and its count in the chosen generation is still
  /// nonzero, dispatch it early and arm the swallow of its real
  /// zero-dispatch.
  void maybe_inject_lost_update(bool shadow, core::ThreadId lo,
                                core::ThreadId hi);
  /// Stage the next block's partition in the shadow generation once
  /// the current block is nearly drained.
  void maybe_prefetch();
  /// Stage `tid` in `target`'s outbox. With tracing on, this lane's
  /// clock is published before any mailbox publish the stage triggers,
  /// so the receiving kernel's receive() sees every Dispatch it takes.
  void stage(core::KernelId target, core::ThreadId tid);

  const core::Program& program_;
  const core::ThreadTable& table_;  ///< flat per-DThread protocol facts
  TubGroup& tubs_;
  TubQueue& tub_;  ///< this group's TUB (LaneTub or segmented Tub)
  SyncMemoryGroup& sm_;
  std::deque<Mailbox>& mailboxes_;
  Options options_;
  std::vector<core::KernelId> my_kernels_;
  std::uint16_t trace_lane_ = 0;  ///< this emulator's TraceLog lane
  GuardHook guard_;               ///< null guard = checking off
  FaultPlan* fault_ = nullptr;    ///< null = no fault injection
  EmulatorStats stats_;
  std::size_t rr_next_ = 0;  // round-robin cursor for kFifo routing
  /// Block this group has activated (current SM generation).
  core::BlockId my_block_ = core::kInvalidBlock;
  /// Partition slots of my_block_ not yet dispatched; reaching
  /// low_water_ triggers the shadow preload of the next block.
  std::size_t partition_outstanding_ = 0;
  /// Next-block DThreads already dispatched through the shadow path
  /// (subtracted from partition_outstanding_ at activation).
  std::size_t shadow_predispatched_ = 0;
  std::uint32_t low_water_ = 0;  ///< resolved prefetch_low_water
  /// Updates that raced ahead of a block neither current nor next
  /// (only possible with several TSU groups, and rare even then now
  /// that next-block updates go straight to the shadow generation).
  /// Replayed at the next activation.
  std::vector<TubEntry> deferred_updates_;
  /// Reused scratch: members a range sweep drove to zero, pending
  /// dispatch.
  std::vector<core::ThreadId> zeroed_;
  /// Reused scratch for deep-guarded range sweeps: the owned members
  /// of the range, and the subset whose decrement the guard allowed.
  std::vector<core::ThreadId> guard_members_;
  std::vector<core::ThreadId> guard_ok_;
};

}  // namespace tflux::runtime
