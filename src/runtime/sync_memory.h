// Synchronization Memory (SM) and Thread-to-Kernel Table (TKT).
//
// Paper, section 4.2: the Ready Count values live in one SM per
// Kernel; to update a DThread's count the TSU Emulator must find the
// SM holding it. Without help that is a sequential search over the
// SMs. "Thread Indexing" adds the TKT - a table, embedded by the
// preprocessor, mapping each DThread to the SM (and slot) holding its
// Ready Count - eliminating the search.
//
// The SM group is reloaded per DDM Block (that is what bounds TSU size
// and motivates blocks). The SMs are *double-buffered*: each kernel's
// Ready Count array exists in two generations, so an emulator can
// stage the next block's counts in the shadow generation
// (preload_shadow) while the current block is still executing, then
// make them live with a cheap per-group flip (promote_shadow) instead
// of a synchronous reload at the block boundary. Cross-block updates
// that race ahead of a group's flip can be applied directly to the
// shadow (decrement_shadow), which is what retires the old
// deferred-update replay.
//
// Ownership discipline: kernel k's SM slots, generation cursor, and
// staged-block markers are touched only by the TSU Emulator of the
// group owning kernel k, so none of it needs locking. Ownership is
// kernel k -> group k % groups by default; set_shard_map() replaces
// that striping with a topology ShardMap (clustered core domains) -
// every partition operation then iterates the map's kernel lists.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "core/program.h"
#include "core/topology.h"
#include "core/types.h"

namespace tflux::runtime {

class SyncMemoryGroup {
 public:
  /// Location of one DThread's Ready Count: which Kernel's SM, which
  /// slot within it.
  struct SmSlot {
    core::KernelId kernel = core::kInvalidKernel;
    std::uint32_t slot = 0;
  };

  SyncMemoryGroup(const core::Program& program, std::uint16_t num_kernels);

  /// Replace the default interleaved (k % groups) kernel-to-group
  /// striping with a topology map (sharded TSU). The map must outlive
  /// this object and cover exactly num_kernels kernels; the `groups`
  /// argument of every partition call must then equal the map's shard
  /// count. Call before any partition operation.
  void set_shard_map(const core::ShardMap* map);

  /// Initialize the *current* generation with `block`'s Ready Counts
  /// (the Inlet's synchronous load). Any previous block's slots are
  /// dead after this.
  void load_block(core::BlockId block);

  /// Multiple-TSU-Groups variant: initialize only the SMs of the
  /// kernels owned by `group` (k % groups, or the shard map's list).
  /// Each emulator loads its own partition, so a shared
  /// SyncMemoryGroup needs no locking (slot ownership is disjoint).
  void load_block_partition(core::BlockId block, std::uint16_t group,
                            std::uint16_t groups);

  /// Stage `block`'s Ready Counts for `group`'s partition in the
  /// shadow (non-current) generation. What decrement()/count() see is
  /// untouched until promote_shadow().
  void preload_shadow(core::BlockId block, std::uint16_t group,
                      std::uint16_t groups);

  /// Make `group`'s shadow generation current (the block-transition
  /// flip). The old current generation becomes the new shadow.
  void promote_shadow(std::uint16_t group, std::uint16_t groups);

  /// Block staged in `group`'s shadow generation (kInvalidBlock until
  /// the first preload). After a promote this reports the *retired*
  /// block, since the generations swapped. The group's first owned
  /// kernel's cursor speaks for the whole partition (loads and flips
  /// cover a partition atomically w.r.t. its owner).
  core::BlockId shadow_block(std::uint16_t group) const {
    const core::KernelId k = first_owned(group);
    return gen_block_[k][cur_gen_[k] ^ 1u];
  }
  /// Block live in `group`'s current generation.
  core::BlockId current_block(std::uint16_t group) const {
    const core::KernelId k = first_owned(group);
    return gen_block_[k][cur_gen_[k]];
  }

  /// Decrement `tid`'s Ready Count in the current generation; returns
  /// true when it reaches zero. With `use_tkt` the slot comes from the
  /// TKT (O(1)); without it the emulator searches the SMs
  /// sequentially, `*search_steps` (if non null) accumulating the
  /// number of slots inspected - the cost Thread Indexing removes.
  bool decrement(core::ThreadId tid, bool use_tkt,
                 std::uint64_t* search_steps = nullptr);

  /// Decrement `tid`'s Ready Count in the shadow generation (a
  /// cross-block update arriving before the owning group flipped).
  bool decrement_shadow(core::ThreadId tid, bool use_tkt,
                        std::uint64_t* search_steps = nullptr);

  /// Apply one range update - decrement the Ready Count of every
  /// DThread in [lo, hi] inclusive (one DDM Block by construction) -
  /// to the partition owned by `group` in the current generation.
  /// Per owned kernel the range's members occupy consecutive SM slots
  /// (slot order is ascending id order), so the decrement is one sweep
  /// over contiguous counters bounded by a binary search. Members whose
  /// count reaches zero are appended to `zeroed` (ascending id order
  /// within each kernel). Returns the number of members decremented -
  /// the unit-update-equivalent work, so coalesced and unit runs
  /// reconcile their updates_processed totals.
  std::size_t decrement_range(core::ThreadId lo, core::ThreadId hi,
                              std::uint16_t group, std::uint16_t groups,
                              std::vector<core::ThreadId>& zeroed);

  /// Range variant of decrement_shadow: apply [lo, hi] to `group`'s
  /// partition in the shadow generation (a cross-block range update
  /// arriving before the owning group flipped).
  std::size_t decrement_range_shadow(core::ThreadId lo, core::ThreadId hi,
                                     std::uint16_t group, std::uint16_t groups,
                                     std::vector<core::ThreadId>& zeroed);

  /// Append to `out` the members of [lo, hi] homed on kernels of
  /// `group` (ascending id order within each kernel) - the exact set a
  /// decrement_range over the same arguments would sweep. ddmguard
  /// uses this to account a coalesced range member by member on
  /// sampled blocks without duplicating the span walk.
  void collect_owned(core::ThreadId lo, core::ThreadId hi,
                     std::uint16_t group, std::uint16_t groups,
                     std::vector<core::ThreadId>& out) const;

  /// Current-generation Ready Count of `tid` (must belong to the block
  /// loaded for its home kernel's group).
  std::uint32_t count(core::ThreadId tid) const;

  /// Shadow-generation Ready Count of `tid` (tests/diagnostics).
  std::uint32_t shadow_count(core::ThreadId tid) const;

  /// TKT lookup (always valid, block/generation-independent).
  SmSlot tkt(core::ThreadId tid) const { return tkt_[tid]; }

  /// Number of `block`'s SM slots (app threads + inlet/outlet) homed
  /// on kernels of `group` - the partition the owning emulator loads
  /// and dispatches.
  std::size_t partition_slots(core::BlockId block, std::uint16_t group,
                              std::uint16_t groups) const;

  std::uint16_t num_kernels() const { return num_kernels_; }
  core::BlockId loaded_block() const {
    return loaded_block_.load(std::memory_order_relaxed);
  }

 private:
  /// One (block, kernel) slice of the tids_ arena.
  struct Span {
    std::uint32_t off = 0;
    std::uint32_t len = 0;
  };

  /// Iterate the kernels `group` owns: the shard map's list when one
  /// is installed, the legacy modular stride otherwise.
  template <typename Fn>
  void for_each_owned(std::uint16_t group, std::uint16_t groups,
                      Fn&& fn) const {
    if (shard_map_ != nullptr) {
      for (core::KernelId k : shard_map_->kernels(group)) fn(k);
    } else {
      for (std::size_t k = group; k < num_kernels_;
           k += static_cast<std::size_t>(groups)) {
        fn(static_cast<core::KernelId>(k));
      }
    }
  }
  core::KernelId first_owned(std::uint16_t group) const {
    return shard_map_ != nullptr ? shard_map_->first_kernel(group)
                                 : static_cast<core::KernelId>(group);
  }

  bool decrement_in(bool shadow, core::ThreadId tid, bool use_tkt,
                    std::uint64_t* search_steps);
  std::size_t decrement_range_in(bool shadow, core::ThreadId lo,
                                 core::ThreadId hi, std::uint16_t group,
                                 std::uint16_t groups,
                                 std::vector<core::ThreadId>& zeroed);
  SmSlot find_slot(core::ThreadId tid, std::uint64_t* search_steps) const;
  const Span& span(core::BlockId block, core::KernelId kernel) const {
    return spans_[static_cast<std::size_t>(block) * num_kernels_ + kernel];
  }

  const core::Program& program_;
  const core::ThreadTable& table_;
  std::uint16_t num_kernels_ = 0;
  /// Topology override of the k % groups ownership (null = legacy).
  const core::ShardMap* shard_map_ = nullptr;
  /// TKT: ThreadId -> SM slot. Built once from the Program, exactly as
  /// the preprocessor would embed it into the binary.
  std::vector<SmSlot> tkt_;
  /// Flat arena of DThread ids: for each (block, kernel), the ids
  /// homed there, ascending, back to back; span(b, k) locates the
  /// slice. A thread's SM slot is its position within its slice, so
  /// slot order == ascending id order and a [lo, hi] range update maps
  /// to one contiguous counter sweep per kernel.
  std::vector<core::ThreadId> tids_;
  std::vector<Span> spans_;
  /// The SMs, double-buffered: one contiguous Ready Count arena per
  /// generation. Kernel k's counters live at
  /// [sm_off_[k], sm_off_[k + 1]) (capacity = k's widest block span);
  /// slot s of kernel k is sm_data_[gen][sm_off_[k] + s].
  std::vector<std::uint32_t> sm_data_[2];
  std::vector<std::uint32_t> sm_off_;
  /// Per *kernel*: which generation is current, and which block each
  /// generation holds. Loads/preloads/promotes set all of a group's
  /// kernels together, and only the owning emulator thread touches a
  /// kernel's entries, so none of this needs synchronization.
  std::vector<std::uint8_t> cur_gen_;
  std::vector<std::array<core::BlockId, 2>> gen_block_;
  std::atomic<core::BlockId> loaded_block_{core::kInvalidBlock};
};

}  // namespace tflux::runtime
