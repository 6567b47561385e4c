// ddmcheck: dynamic verification of DDM programs from execution
// traces - the runtime complement of ddmlint (core/verify.h). Where
// the static verifier proves properties of the Synchronization Graph,
// check_trace() replays a recorded run (core/ddmtrace.h) against the
// Program it claims to execute and verifies the run actually obeyed
// the DDM protocol:
//
//   1. Ready Count discipline: no DThread receives more updates than
//      its initial Ready Count (the count never goes negative), none
//      is dispatched before its count reached zero, and every declared
//      arc fired exactly once.
//   2. Arc provenance: every observed update travels along a declared
//      Synchronization Graph arc (undeclared arcs are the dynamic
//      failure ddmlint cannot see).
//   3. Exactly-once execution: one Dispatch and one Complete per
//      DThread - Inlets and Outlets included.
//   4. Block lifecycle: per-group activations (Inlet load or shadow
//      promote) strictly ascend, OutletDone events chain in block
//      order, and no DThread completes after its block was retired -
//      covering both the pipelined promote-at-OutletDone fast path and
//      the deferred-replay fallback.
//   5. Footprint races: happens-before is rebuilt from the *observed*
//      update edges plus the block barrier (a block's rc-0 roots are
//      dispatched only after the previous block's Outlet completed);
//      two DThreads with overlapping declared footprints, at least one
//      write, and no happens-before path in either direction raced.
//
// Coalesced runs: a range-update record expands to exactly the unit
// updates producer -> lo .. producer -> hi before replay, so all of
// the above applies unchanged to the coalesced protocol. Traces marked
// truncated (abnormal exit flushed a prefix) get one truncated-trace
// finding; the end-of-trace completeness checks and the race pass are
// skipped, since a prefix legitimately misses executions and arcs.
//
// Entry points: check_trace() (library), `tflux_check` (CLI over a
// saved trace), `tflux_run --check` (trace + verify in one run).
// docs/CHECKING.md has the invariant catalog.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/ddmtrace.h"
#include "core/findings.h"
#include "core/program.h"
#include "core/types.h"

namespace tflux::core {

/// The finding codes are shared with ddmguard (core/findings.h) so the
/// offline replay and the online guard report identical codes for the
/// same violation class.
using CheckDiag = FindingCode;

/// One finding: code, location, the trace record that triggered it
/// (seq, when applicable), and a human-readable explanation.
struct CheckFinding {
  static constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

  CheckDiag code = CheckDiag::kMalformedRecord;
  ThreadId thread = kInvalidThread;  ///< primary thread, if any
  ThreadId other = kInvalidThread;   ///< second thread (races, arcs)
  BlockId block = kInvalidBlock;     ///< owning block, if any
  std::uint64_t seq = kNoSeq;        ///< triggering record, if any
  std::string message;

  /// "[undeclared-arc] seq 42, thread 3 'a': ..."
  std::string to_string(const Program& program) const;
};

struct CheckOptions {
  /// Run the happens-before footprint race detection (the most
  /// expensive pass; quadratic bitsets over application threads).
  bool check_races = true;
  /// Programs with more application threads than this skip the race
  /// pass (CheckReport::races_skipped is set; 0 = no limit).
  std::uint32_t race_check_max_threads = 16384;
  /// Stop after this many findings (a corrupted trace violates almost
  /// everything; 0 = unlimited).
  std::uint32_t max_findings = 256;
};

/// Dispatch-routing tally rebuilt from the trace's dispatch records,
/// so a run's reported steal statistics can be reconciled against the
/// trace replay. `home` counts dispatches that landed on the DThread's
/// home kernel; the rest split by the trace's shard topology
/// (clustered over the config's `shards` clause): `local` stayed in
/// the home kernel's shard, `remote` crossed a shard boundary. With
/// shards == 0 (flat trace) every non-home dispatch counts as local.
struct StealTally {
  std::uint64_t dispatches = 0;
  std::uint64_t home = 0;
  std::uint64_t local = 0;
  std::uint64_t remote = 0;
};

/// Data-plane tally rebuilt from the trace (only when the trace's
/// `dataplane` config clause is set). The replay drives a fresh
/// core::DataPlane with the recorded schedule: each application
/// dispatch is accounted against the execution record and then claims
/// ownership at its target kernel (the dispatch target *is* the
/// executing kernel - the mailbox delivers the DThread nowhere else),
/// and each application completion accounts its bulk forwards with the
/// trace's coalesce mode. A run's reported dataplane stats must
/// reconcile *exactly* against this tally: every producer's updates
/// are published after its Complete record and every consumer
/// dispatches only after all its producers' updates, so no scoring in
/// the live run can observe a producer between its dispatch and its
/// execution record.
struct DataPlaneTally {
  std::uint64_t forwards = 0;
  std::uint64_t bytes_forwarded = 0;
  std::uint64_t affinity_hits = 0;
  std::uint64_t affinity_misses = 0;
  std::uint64_t affinity_cold = 0;
  std::uint64_t cross_shard_bytes = 0;
};

struct CheckReport {
  std::vector<CheckFinding> findings;
  std::uint64_t records_checked = 0;
  StealTally steals;            ///< observed dispatch routing
  DataPlaneTally dataplane;     ///< observed forwards/affinity (if on)
  bool races_skipped = false;   ///< program above race_check_max_threads
  bool truncated = false;       ///< stopped at max_findings

  bool clean() const { return findings.empty(); }

  /// All findings, one per line, plus a summary line.
  std::string to_string(const Program& program) const;
};

/// Replay `trace` against `program` and report every protocol
/// violation. Never throws on trace problems (that is the point); the
/// Program must be the one the trace was recorded from (rebuild it
/// from the trace's app/config metadata or a saved ddmgraph).
CheckReport check_trace(const Program& program, const ExecTrace& trace,
                        const CheckOptions& options = {});

}  // namespace tflux::core
