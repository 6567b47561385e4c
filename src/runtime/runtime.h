// TFluxSoft: the native runtime. Pure user-level std::thread code on an
// unmodified OS - one thread per Kernel plus the TSU Emulator thread,
// exactly the paper's Figure 4 arrangement ("the last CPU is dedicated
// to the TSU Emulation process").
//
// RuntimeOptions is the one configuration of a run, and RunFrame
// (runtime/frame.h) is the one place that builds a run from it: SM,
// TUB, mailboxes, trace lanes, guard, emulators and kernels. Runtime
// owns nothing of a run itself but the trace lanes, which it hands
// from one traced frame to the next; each run() builds a frame, spawns
// a thread per role, joins them and collects the frame's stats. The
// resident Executor (runtime/executor.h) builds the same frame per
// request from an embedded RuntimeOptions.
//
// Usage:
//   core::ProgramBuilder b;
//   ... build graph ...
//   core::Program p = b.build({.num_kernels = 4});
//   runtime::Runtime rt(p, {.num_kernels = 4});
//   runtime::RuntimeStats st = rt.run();
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/ddmtrace.h"
#include "core/program.h"
#include "core/ready_set.h"
#include "runtime/emulator.h"
#include "runtime/kernel.h"
#include "runtime/tub.h"

namespace tflux::runtime {

struct RuntimeOptions {
  std::uint16_t num_kernels = 1;
  core::PolicyKind policy = core::PolicyKind::kLocality;
  /// Lock-free hot path (default): per-kernel SPSC TUB lanes + SPSC
  /// ring mailboxes with spin-then-park waiting. false selects the
  /// paper-faithful mutex/try-lock structures (the ablation baseline).
  bool lockfree = true;
  /// Lane capacity per kernel in lock-free mode (rounded up to a
  /// power of two). A completion whose consumer list exceeds this is
  /// chunked across several publishes (ddmlint's lane-capacity check
  /// warns about such DThreads ahead of time).
  std::uint32_t tub_lane_capacity = 256;
  /// TUB geometry (paper: segmented to keep try-lock contention low).
  /// Used only when lockfree == false.
  std::uint32_t tub_segments = 8;
  std::uint32_t tub_segment_capacity = 256;
  /// Thread Indexing (TKT). Disable only for the ablation study.
  bool thread_indexing = true;
  /// Pin Kernel k to CPU k and the TSU Emulator(s) to the next
  /// CPU(s) (the paper's placement: one core per Kernel, one for the
  /// emulator, one reserved for the OS). CPU ids wrap around the
  /// host's count, so this is safe on any machine; failures to pin
  /// are ignored.
  bool pin_threads = false;
  /// Number of TSU Emulator threads (the section 4.1 multiple-TSU-
  /// Groups extension, software flavor). Emulator g owns kernels k
  /// with k % tsu_groups == g; must be <= num_kernels. Ignored when
  /// `shards` selects the sharded topology below.
  std::uint16_t tsu_groups = 1;
  /// Sharded TSU: 0 (default) keeps the legacy interleaved tsu_groups
  /// ownership; >= 1 partitions the kernels into that many *clustered*
  /// shards (contiguous kernel ranges, core::ShardMap), one emulator
  /// scheduling loop per shard. SM spans, TKT-routed updates, and TUB
  /// lanes all stay shard-local; range updates are split at shard
  /// boundaries at publish time. Combine with policy kHier for
  /// hierarchical stealing across shards. Must be <= num_kernels.
  std::uint16_t shards = 0;
  /// kHier only: depth advantage a remote shard must offer before a
  /// backlogged dispatch is delegated there (TsuEmulator::Options::
  /// steal_threshold).
  std::uint32_t steal_threshold = 4;
  /// Pipelined block transitions (default): each emulator pre-stages
  /// the next block's Ready Counts in the shadow SM generation and
  /// activates it with a flip at the Outlet. false selects the
  /// synchronous per-boundary reload (the ablation baseline).
  bool block_pipeline = true;
  /// Outstanding-dispatch low-water mark triggering the shadow
  /// preload. 0 = auto (2 x kernels owned by the group).
  std::uint32_t prefetch_low_water = 0;
  /// kAdaptive policy only: home-kernel mailbox depth tolerated
  /// before a ready DThread is routed to the shallowest mailbox.
  std::uint32_t adaptive_backlog = 2;
  /// Coalesce runs of consecutive-id consumers into single range
  /// updates through the whole TUB -> TSU path (the paper's "multiple
  /// update" message). false = one unit update per arc (the ablation
  /// baseline, tflux_run --no-coalesce).
  bool coalesce_updates = true;
  /// Managed data plane (core/dataplane.h, default on): track which
  /// kernel last wrote each footprint range, account bulk forwards
  /// along arcs, and enable the kAffinity dispatch policy. false =
  /// implicit shared memory only (the ablation baseline, tflux_run
  /// --no-dataplane); kAffinity then degrades to kHier.
  bool dataplane = true;
  /// Execution tracing for the ddmcheck verifier: when set, every
  /// actor records Dispatch/Complete/Update/... events into lock-free
  /// lanes (runtime/trace_log.h) and run() fills this trace with the
  /// run's configuration and seq-sorted records. Null (the default)
  /// costs one predictable branch per event.
  core::ExecTrace* trace = nullptr;
  /// Abnormal-teardown hook (requires `trace`): if run() unwinds on an
  /// exception or the process exits mid-run, the trace lanes are
  /// drained and this callback receives the partial trace (metadata
  /// filled, `truncated` set) so it can still be persisted - a clear
  /// "truncated trace" instead of a confusing lifecycle finding in
  /// tflux_check.
  std::function<void(core::ExecTrace&)> trace_emergency = nullptr;
  /// ddmguard: online protocol checking (core/guard.h). kOff (the
  /// default) builds no Guard at all - every hook site costs one
  /// predictable null branch, keeping --guard=off behavior-neutral.
  core::GuardOptions guard;
  /// Seed exactly one protocol fault into the run (guard validation
  /// harness). Requires guard mode kFull: the guard must account every
  /// block so it *contains* the fault (suppressed surplus decrements)
  /// instead of letting the Synchronization Memory underflow.
  FaultInjection inject_fault;
};

struct RuntimeStats {
  double wall_seconds = 0.0;
  /// Which run() invocation of this Runtime produced these stats
  /// (1-based). Every counter is per-run - each run builds a fresh
  /// RunFrame - and this is the epoch tag that makes back-to-back
  /// in-process runs distinguishable in reports.
  std::uint64_t epoch = 0;
  TubStats tub;                          ///< aggregated over all TUBs
  EmulatorStats emulator;                ///< aggregated over emulators
  std::vector<EmulatorStats> emulators;  ///< per TSU Group
  std::vector<KernelStats> kernels;
  /// ddmguard counters and deduplicated violations (empty / all-zero
  /// unless RuntimeOptions::guard enabled the online checker).
  core::GuardStats guard;
  std::vector<core::GuardViolation> guard_violations;

  std::uint64_t total_app_threads_executed() const {
    std::uint64_t n = 0;
    for (const KernelStats& k : kernels) n += k.app_threads_executed;
    return n;
  }
};

class Runtime {
 public:
  /// Throws core::TFluxError on an out-of-range configuration.
  Runtime(const core::Program& program, RuntimeOptions options);
  ~Runtime();

  /// Execute the program to completion. May be called repeatedly (one
  /// run at a time): every invocation builds a fresh RunFrame (SM
  /// generations, TUBs, mailboxes, the data plane's execution record)
  /// and fresh actor threads, so runs are independent and the returned
  /// stats cover exactly one run (RuntimeStats::epoch numbers them).
  /// Only the trace lanes outlive a run: the first traced run builds
  /// the TraceLog and each later one rewinds it, keeping its chunks.
  /// The data plane's static tables are the Program's, built by the
  /// first run that needs them (Program::dataplane_tables). Callers
  /// re-running a program whose DThreads consume their own outputs
  /// must re-initialize the input buffers between runs
  /// (apps::AppRun::reset).
  RuntimeStats run();

  /// Completed run() invocations so far.
  std::uint64_t runs() const { return runs_; }

 private:
  const core::Program& program_;
  RuntimeOptions options_;
  std::uint64_t runs_ = 0;
  /// The previous traced run's lanes (null before the first one, and
  /// after a run that threw: its frame took the log down with it).
  std::unique_ptr<TraceLog> trace_log_;
};

}  // namespace tflux::runtime
