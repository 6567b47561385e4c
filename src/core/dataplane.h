// SharedVariableBuffer data plane: the managed view of DThread
// footprints. The paper's Cell port moves DThread data explicitly (DMA
// into Local Stores); commodity TFluxSoft leans on implicit shared
// memory, which hides *where* each shared variable is warm. The data
// plane recovers that information in two halves:
//
//   - DataPlaneTables (static, one per Program): every producer's
//     write ranges intersected with every consumer's read ranges (over
//     both same-block and cross-block arcs) to learn how many bytes
//     each arc carries, and each producer's consumers grouped into
//     *forward runs* - the coalesced [lo, hi] range runs reused as
//     bulk-forwarding batch boundaries, one forward per run instead of
//     one per consumer. The tables depend only on the Program, so they
//     are built once, on first use, and shared by every run of it
//     (Program::dataplane_tables). Each table is compressed rows (CSR,
//     core/program.h): one flat array plus per-thread offsets, so a
//     lookup is two loads and a 131k-DThread program costs three
//     allocations, not one vector per thread;
//   - DataPlane (dynamic, one per run): the execution record of which
//     kernel executed each producer (the owner of that producer's
//     written ranges), so dispatch can score a consumer's warm bytes
//     per kernel and place it where the largest share of its input is
//     already resident. rewind() clears it for the next run.
//
// Zero-byte footprint ranges (kept by the builder, warn-only) are
// skipped explicitly: a forward run whose payload is empty is dropped
// at build time, so bulk forwarding never issues a zero-length copy.
//
// The same tables serve three masters that must agree: the native
// runtime's emulator/kernels (live stats), the simulated machine's
// TsuState (affinity policy), and check_trace's offline replay
// (reconciling the runtime's counters against an independent
// re-derivation from the trace). Each drives its own record.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/program.h"
#include "core/topology.h"
#include "core/types.h"

namespace tflux::core {

/// Bytes of `consumer`'s read set produced by `producer`'s write set
/// (intersection over all range pairs; zero-byte ranges contribute 0).
std::uint64_t footprint_overlap_bytes(const Footprint& producer,
                                      const Footprint& consumer);

/// One bulk forward a completing producer performs: its written bytes
/// pushed toward the consumers in [lo, hi] as a single batch.
struct ForwardRun {
  ThreadId lo = kInvalidThread;
  ThreadId hi = kInvalidThread;
  /// Payload: total producer-write / consumer-read overlap across the
  /// run's members. Always > 0 (empty runs are dropped at build time).
  std::uint64_t bytes = 0;

  std::uint32_t size() const { return hi - lo + 1; }
  friend bool operator==(const ForwardRun&, const ForwardRun&) = default;
};

/// One producer's contribution to a consumer's input working set.
struct Contribution {
  ThreadId producer = kInvalidThread;
  std::uint64_t bytes = 0;

  friend bool operator==(const Contribution&, const Contribution&) = default;
};

/// Affinity score of a consumer against the current execution record.
struct AffinityScore {
  /// Kernel holding the largest share of the consumer's input bytes;
  /// kInvalidKernel when no producer has executed yet (cold).
  KernelId best = kInvalidKernel;
  std::uint64_t best_bytes = 0;   ///< warm bytes on `best`
  std::uint64_t total_bytes = 0;  ///< warm bytes across all kernels
};

/// The program-static half: per-arc payloads and forward runs. Built
/// once per Program (Program::dataplane_tables) and immutable after.
class DataPlaneTables {
 public:
  explicit DataPlaneTables(const Program& program);

  /// Producers feeding `consumer` (same-block and cross-block arcs),
  /// with per-arc payload bytes. Arcs whose footprints do not overlap
  /// (or overlap only through zero-byte ranges) are omitted.
  std::span<const Contribution> contributions(ThreadId consumer) const {
    return contributions_[consumer];
  }

  /// Bulk forwards `producer` performs on completion. `coalesce` picks
  /// the batch boundaries: true reuses the [lo, hi] consumer runs (one
  /// forward per run), false degrades to one forward per consumer
  /// (the unit-update ablation). Zero-payload runs are already gone.
  std::span<const ForwardRun> forward_runs(ThreadId producer,
                                           bool coalesce) const {
    return coalesce ? forwards_[producer] : unit_forwards_[producer];
  }

 private:
  CsrRows<Contribution> contributions_;  // by consumer
  CsrRows<ForwardRun> forwards_;         // by producer, coalesced
  CsrRows<ForwardRun> unit_forwards_;    // by producer, per-consumer
};

/// The per-run half: one execution record over a Program's shared
/// tables. Cheap to construct (one O(threads) fill); a holder that runs
/// the same Program again calls rewind() instead.
class DataPlane {
 public:
  /// `shards` (optional) maps kernels to topology shards for the
  /// cross_shard_bytes accounting; it must outlive the DataPlane.
  /// Builds the Program's tables on first use.
  DataPlane(const Program& program, const ShardMap* shards = nullptr);

  const DataPlaneTables& tables() const { return tables_; }

  /// Forget every recorded execution (start of a new run).
  void rewind();

  /// Record that `kernel` executed `tid` (and therefore owns its
  /// written ranges). Relaxed atomics: the runtime's existing TUB
  /// release/acquire handoffs and block barriers order a producer's
  /// record before any consumer scoring that could observe it. Const:
  /// the record is shared by every kernel/emulator holding a const
  /// view of the data plane.
  void record_execution(ThreadId tid, KernelId kernel) const {
    exec_kernel_[tid].store(kernel, std::memory_order_relaxed);
  }

  /// Kernel recorded for `tid`, or kInvalidKernel if not yet executed.
  KernelId exec_kernel(ThreadId tid) const {
    return exec_kernel_[tid].load(std::memory_order_relaxed);
  }

  /// Score `consumer`'s warm bytes per kernel. Deterministic: ties go
  /// to the lowest kernel id. Thread-safe (thread-local scratch): each
  /// emulator thread scores and accounts its own dispatches.
  AffinityScore score(ThreadId consumer) const;

  /// Account one dispatch of `consumer` onto `target`:
  ///   cold          - no producer bytes warm anywhere (score total 0)
  ///   affinity hit  - target holds the maximal warm share (ties hit)
  ///   affinity miss - some other kernel holds more warm bytes
  /// cross_shard_bytes accumulates the warm bytes living on shards
  /// other than target's (0 without a ShardMap).
  struct DispatchAccount {
    bool hit = false;
    bool cold = false;
    std::uint64_t cross_shard_bytes = 0;
  };
  DispatchAccount account_dispatch(ThreadId consumer, KernelId target) const;

 private:
  const Program& program_;
  const DataPlaneTables& tables_;
  const ShardMap* shards_;
  std::unique_ptr<std::atomic<KernelId>[]> exec_kernel_;
};

}  // namespace tflux::core
