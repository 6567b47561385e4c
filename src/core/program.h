// A DDM program: DThreads partitioned into DDM Blocks, with the
// synchronization graph baked into per-thread consumer lists and
// initial Ready Counts. Programs are immutable after ProgramBuilder
// validation; every platform (native runtime, TFluxHard/TFluxSoft
// machine simulators, Cell simulator) executes the same Program.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/dthread.h"
#include "core/types.h"

namespace tflux::core {

class DataPlaneTables;  // core/dataplane.h
class ThreadTable;

/// Compressed rows (CSR): row i is flat[off[i], off[i + 1]). One
/// allocation per table instead of one vector per row.
template <typename T>
struct CsrRows {
  std::vector<std::uint32_t> off{0};
  std::vector<T> flat;

  std::span<const T> operator[](std::size_t row) const {
    return {flat.data() + off[row], flat.data() + off[row + 1]};
  }
};

/// A dependency arc between two DThreads in *different* blocks. Such
/// arcs never reach the TSU: block ordering (the Inlet/Outlet chain is
/// a barrier) already enforces them. They are retained because the
/// timing plane models the data transfer they imply.
struct CrossBlockArc {
  ThreadId producer = kInvalidThread;
  ThreadId consumer = kInvalidThread;

  friend bool operator==(const CrossBlockArc&, const CrossBlockArc&) = default;
};

/// One DDM Block: a TSU-capacity-bounded subset of the program.
struct Block {
  BlockId id = kInvalidBlock;
  /// Application DThreads belonging to this block, in creation order.
  std::vector<ThreadId> app_threads;
  /// The Inlet DThread: loads this block's metadata into the TSU.
  ThreadId inlet = kInvalidThread;
  /// The Outlet DThread: frees TSU resources and chains to the next
  /// block's inlet (or exits the Kernels if this is the last block).
  ThreadId outlet = kInvalidThread;
  /// Number of sink application threads (threads with no same-block
  /// consumers); this is the Outlet's initial Ready Count.
  std::uint32_t sink_count = 0;
};

class Program {
 public:
  /// An empty Program (no blocks/threads); populated via ProgramBuilder.
  Program() = default;

  const std::string& name() const { return name_; }

  /// All DThreads, indexed densely by ThreadId (application threads
  /// first in creation order, then per-block inlets/outlets).
  const DThread& thread(ThreadId id) const { return threads_[id]; }
  std::uint32_t num_threads() const {
    return static_cast<std::uint32_t>(threads_.size());
  }
  const std::vector<DThread>& threads() const { return threads_; }

  const Block& block(BlockId id) const { return blocks_[id]; }
  std::uint16_t num_blocks() const {
    return static_cast<std::uint16_t>(blocks_.size());
  }
  const std::vector<Block>& blocks() const { return blocks_; }

  const std::vector<CrossBlockArc>& cross_block_arcs() const {
    return cross_block_arcs_;
  }

  /// Number of application (non inlet/outlet) DThreads.
  std::uint32_t num_app_threads() const { return num_app_threads_; }

  /// Highest home KernelId referenced by any DThread, plus one.
  std::uint16_t max_kernels() const { return max_kernels_; }

  /// The data plane's static tables (core/dataplane.h), built on the
  /// first call - from any thread - and shared by every later run.
  const DataPlaneTables& dataplane_tables() const;

  /// The flat per-DThread protocol facts (ThreadTable below), built
  /// like dataplane_tables(): on the first call, never by the builder.
  const ThreadTable& thread_table() const;

 private:
  friend class ProgramBuilder;
  /// Test-only backdoor (tests/testing/program_test_peer.h): corrupts
  /// otherwise-unreachable invariants (Ready Counts, sink counts) so
  /// the verifier's diagnostics can be exercised.
  friend class ProgramTestPeer;

  std::string name_;
  std::vector<DThread> threads_;
  std::vector<Block> blocks_;
  std::vector<CrossBlockArc> cross_block_arcs_;
  std::uint32_t num_app_threads_ = 0;
  std::uint16_t max_kernels_ = 1;

  /// Lazily built dataplane_tables() and thread_table(). A copied or
  /// assigned-to Program drops the cache and builds its own tables on
  /// first use.
  struct TablesCache {
    TablesCache() = default;
    TablesCache(const TablesCache&) {}
    TablesCache& operator=(const TablesCache&) {
      dataplane.reset();
      threads.reset();
      return *this;
    }
    std::mutex mutex;
    std::shared_ptr<const DataPlaneTables> dataplane;
    std::shared_ptr<const ThreadTable> threads;
    /// Tables dropped by drop_tables(), kept alive so a reference taken
    /// before the drop never dangles.
    std::vector<std::shared_ptr<const void>> dropped;
  };
  /// Forget the cached tables: ProgramTestPeer hands out mutable
  /// references, and the next user must see the mutated Program.
  void drop_tables();
  mutable TablesCache tables_cache_;
};

/// Program-static protocol facts of every DThread in flat arrays
/// indexed by ThreadId - what the TSU, ddmguard and ddmcheck read per
/// event - so those paths never touch the wide DThread (label, body,
/// footprint). The same-block consumer lists are in CSR form; arc i of
/// producer p has the dense index arc_index(p) + i.
class ThreadTable {
 public:
  explicit ThreadTable(const Program& program);

  BlockId block(ThreadId tid) const { return block_[tid]; }
  std::uint32_t ready_count_init(ThreadId tid) const {
    return ready_count_init_[tid];
  }
  KernelId home_kernel(ThreadId tid) const { return home_kernel_[tid]; }
  ThreadKind kind(ThreadId tid) const { return kind_[tid]; }
  bool is_application(ThreadId tid) const {
    return kind_[tid] == ThreadKind::kApplication;
  }

  std::span<const ThreadId> consumers(ThreadId tid) const {
    return consumers_[tid];
  }
  std::uint32_t arc_index(ThreadId tid) const { return consumers_.off[tid]; }
  std::size_t num_arcs() const { return consumers_.flat.size(); }

 private:
  std::vector<BlockId> block_;
  std::vector<std::uint32_t> ready_count_init_;
  std::vector<KernelId> home_kernel_;
  std::vector<ThreadKind> kind_;
  CsrRows<ThreadId> consumers_;
};

}  // namespace tflux::core
