// ddmtrace: text serialization of runtime *execution traces* - the
// dynamic complement of graph_io.h's structural ddmgraph format. The
// native runtime (runtime/trace_log.h) appends fixed-size records to
// per-actor lock-free lanes while a program executes; this module
// defines the record, the trace container, and a line-oriented
// reader/writer so traces can be saved by `tflux_run --trace=<file>`
// and replayed offline by the ddmcheck verifier (core/check.h,
// `tflux_check`).
//
// Format (line oriented, '#' comments):
//   ddmtrace 2
//   program <name>
//   config kernels <K> groups <G> policy <P> pipeline <0|1> lockfree <0|1>
//   app <name> <size> unroll <N> tsu-capacity <N>    # optional
//   truncated 1                                      # optional: the run
//                                                    # ended abnormally
//   e <seq> <event> <actor> <a> <b> [c]
//
// Version 2 adds the three-operand range-update record and the
// truncated directive; version-1 files still load (no version-1 event
// needs a third operand).
//
// Events and their operands (actor = lane: kernel k is lane k, TSU
// Emulator of group g is lane K+g):
//   dispatch          a=thread  b=target kernel   (emulator lane)
//   complete          a=thread  b=block           (kernel lane)
//   update            a=producer b=consumer       (kernel lane)
//   range-update      a=producer b=lo c=hi        (kernel lane) - one
//                     coalesced record standing for the unit updates
//                     a -> b, a -> b+1, ..., a -> c
//   shadow-decrement  a=thread  b=reached zero    (emulator lane)
//   inlet-load        a=block   b=group           (emulator lane)
//   outlet-done       a=block   b=0               (kernel lane)
//   block-promote     a=block   b=group           (emulator lane)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.h"

namespace tflux::core {

enum class TraceEvent : std::uint8_t {
  kDispatch,         ///< emulator delivered a ready DThread to a kernel
  kComplete,         ///< kernel finished a DThread's body
  kUpdate,           ///< kernel published one Ready Count update
  kShadowDecrement,  ///< emulator applied an update to the shadow SM
  kInletLoad,        ///< emulator activated a block (synchronous load)
  kOutletDone,       ///< kernel published a block's Outlet completion
  kBlockPromote,     ///< emulator activated a block (shadow-SM flip)
  kRangeUpdate,      ///< kernel published one coalesced range update
                     ///< (a=producer, b=lo, c=hi; stands for the unit
                     ///< updates a->b .. a->c)
};

/// Stable kebab-case name of an event (e.g. "shadow-decrement").
const char* to_string(TraceEvent event);

/// One fixed-size trace record. `seq` is the record's position in the
/// merged trace: the runtime stamps each record with its lane's
/// Lamport clock, carried across every release/acquire handoff, and
/// renumbers seq 0..n-1 after merging the lanes by (clock, lane), so
/// sorting by seq yields a linearization consistent with
/// happens-before - the property the offline checker replays against
/// (runtime/trace_log.h).
struct TraceRecord {
  std::uint64_t seq = 0;
  TraceEvent event = TraceEvent::kDispatch;
  std::uint16_t actor = 0;  ///< lane: kernel id, or kernels + group
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;  ///< third operand (kRangeUpdate: hi), else 0
};

/// A complete execution trace: the run's configuration (enough for
/// `tflux_check` to rebuild the Program it claims to execute) plus the
/// records, sorted by seq.
struct ExecTrace {
  std::string program = "unknown";
  std::uint16_t kernels = 1;
  std::uint16_t groups = 1;
  /// Topology shard count of the run (0 = flat/no sharding). Written
  /// as an optional `shards <S>` clause on the config line; absent in
  /// pre-shard traces, which load as 0.
  std::uint16_t shards = 0;
  /// Coalesced range-update publishing (RuntimeOptions::
  /// coalesce_updates). Optional `coalesce <0|1>` config clause;
  /// absent in older traces, which load as 1 (the default) - the
  /// replayed DataPlane tally must batch forwards the same way the
  /// runtime did.
  bool coalesce = true;
  /// Managed data plane enabled (RuntimeOptions::dataplane). Optional
  /// `dataplane <0|1>` config clause; absent in older traces, which
  /// load as 0 (those runtimes had no data plane to reconcile).
  bool dataplane = false;
  std::string policy = "locality";
  bool pipelined = true;
  bool lockfree = true;
  /// Benchmark provenance, filled by the CLI when the trace came from
  /// a Table-1 app (empty `app` = unknown; pass `tflux_check --graph=`
  /// instead).
  std::string app;
  std::string size = "small";
  std::uint32_t unroll = 0;
  std::uint32_t tsu_capacity = 0;
  /// The run ended abnormally (exception teardown / exit() mid-run):
  /// the records are a prefix of the execution, flushed by the
  /// emergency path. ddmcheck reports a single truncated-trace
  /// diagnostic and skips the end-of-trace completeness checks instead
  /// of producing confusing lifecycle findings.
  bool truncated = false;
  std::vector<TraceRecord> records;
};

/// Serialize a trace in the ddmtrace text format.
std::string save_trace(const ExecTrace& trace);

/// Parse the format back. Records are sorted by seq on return. Throws
/// TFluxError with a line number on malformed input.
ExecTrace load_trace(const std::string& text);

}  // namespace tflux::core
