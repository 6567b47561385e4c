// One run frame: the complete per-run state of TFluxSoft (paper
// section 4, Figure 4) - N Kernels plus the TSU Emulator(s), wired
// through the Synchronization Memory, the TUB and the mailboxes -
// built from one (Program, RuntimeOptions) pair. Both owners of a run
// go through it:
//
//   - Runtime::run() builds a frame, spawns one thread per role,
//     joins them and collects stats/trace;
//   - the resident Executor builds one frame per admitted program
//     instance (at partition width) and hands its roles to the
//     partition's long-lived workers.
//
// Every mutable object of a run is the frame's; only the Program (and
// its immutable data-plane tables) is shared between frames. A frame
// runs once: roles 0..num_kernels-1 are the kernels, the remaining
// roles are the emulators (one per TSU group), and every role must run
// concurrently with the others.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "core/dataplane.h"
#include "core/ddmtrace.h"
#include "core/guard.h"
#include "core/program.h"
#include "core/topology.h"
#include "runtime/emulator.h"
#include "runtime/kernel.h"
#include "runtime/mailbox.h"
#include "runtime/runtime.h"
#include "runtime/sync_memory.h"
#include "runtime/trace_log.h"
#include "runtime/tub_group.h"

namespace tflux::runtime {

/// Emulator count of a configuration: one per shard in the sharded
/// topology, otherwise tsu_groups.
inline std::uint16_t tsu_group_count(const RuntimeOptions& options) {
  return options.shards >= 1 ? options.shards : options.tsu_groups;
}

/// Range checks shared by Runtime and Executor; throws core::TFluxError
/// prefixed with `owner`, naming num_kernels as `width` (the field the
/// owner's user sets).
void validate_options(const RuntimeOptions& options, const char* owner,
                      const char* width);

/// Best-effort pinning of the calling thread to `cpu` (modulo the
/// host's CPU count). Pinning is an optimization; errors are ignored.
void pin_self_to_cpu(unsigned cpu);

class RunFrame {
 public:
  /// Builds every actor of one run. Throws core::TFluxError when the
  /// requested fault injection cannot be carried out. A traced frame
  /// rewinds and uses `trace_log` (a previous frame's, handed back by
  /// release_trace_log()) or, when it is null, builds its own.
  RunFrame(const core::Program& program, const RuntimeOptions& options,
           std::unique_ptr<TraceLog> trace_log = nullptr);

  RunFrame(const RunFrame&) = delete;  // actors point into the frame
  RunFrame& operator=(const RunFrame&) = delete;

  /// Kernels, then emulators.
  std::uint16_t num_roles() const {
    return static_cast<std::uint16_t>(options_.num_kernels + groups_);
  }

  /// Thread main of role `role` (kernel, then emulator ids).
  void run_role(std::uint16_t role);

  /// Per-run counters; call after every role has returned.
  RuntimeStats stats(double wall_seconds) const;

  /// Fill `trace` with the run's configuration and its merged records
  /// (reusing the capacity of trace.records). Only for a traced frame
  /// (options.trace set), after every role has returned.
  void fill_trace(core::ExecTrace& trace);

  /// Hand the finished TraceLog to the owner's next frame.
  std::unique_ptr<TraceLog> release_trace_log() {
    return std::move(trace_log_);
  }

 private:
  /// The ExecTrace metadata block (everything but the records).
  void describe(core::ExecTrace& trace) const;
  const core::ShardMap* shard_map() const {
    return shard_map_ ? &*shard_map_ : nullptr;
  }

  const core::Program& program_;
  RuntimeOptions options_;
  std::uint16_t groups_;
  // Dependency order: later members reference earlier ones.
  std::optional<core::ShardMap> shard_map_;
  std::optional<core::DataPlane> dataplane_;
  SyncMemoryGroup sm_;
  TubGroup tubs_;
  std::deque<Mailbox> mailboxes_;
  std::unique_ptr<TraceLog> trace_log_;
  std::unique_ptr<core::Guard> guard_;
  FaultPlan fault_;
  std::vector<TsuEmulator> emulators_;
  std::vector<Kernel> kernels_;
};

}  // namespace tflux::runtime
