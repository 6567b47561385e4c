#include "core/check.h"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <span>
#include <sstream>
#include <utility>

#include "core/dataplane.h"
#include "core/topology.h"

namespace tflux::core {

namespace {

std::string thread_ref(const Program& program, ThreadId tid) {
  if (tid == kInvalidThread || tid >= program.num_threads()) {
    return "thread <invalid>";
  }
  const DThread& t = program.thread(tid);
  return "thread " + std::to_string(tid) +
         (t.label.empty() ? "" : " '" + t.label + "'");
}

class Collector {
 public:
  Collector(CheckReport& report, const CheckOptions& options)
      : report_(report), options_(options) {}

  bool full() const {
    return options_.max_findings != 0 &&
           report_.findings.size() >= options_.max_findings;
  }

  void add(CheckDiag code, ThreadId thread, ThreadId other, BlockId block,
           std::uint64_t seq, std::string message) {
    if (full()) {
      report_.truncated = true;
      return;
    }
    CheckFinding f;
    f.code = code;
    f.thread = thread;
    f.other = other;
    f.block = block;
    f.seq = seq;
    f.message = std::move(message);
    report_.findings.push_back(std::move(f));
  }

 private:
  CheckReport& report_;
  const CheckOptions& options_;
};

/// Replay state for one DThread.
struct ThreadState {
  std::uint32_t updates = 0;
  std::uint32_t dispatches = 0;
  std::uint32_t completes = 0;
};

using ArcKey = std::pair<ThreadId, ThreadId>;

/// How often each declared arc fired, in one flat array indexed like
/// the ThreadTable's consumer CSR: arc i of producer p (its i-th
/// consumer, which ProgramBuilder keeps duplicate-free) lives at
/// table.arc_index(p) + i.
class ArcCounts {
 public:
  explicit ArcCounts(const ThreadTable& table)
      : table_(table), counts_(table.num_arcs(), 0) {}

  std::uint32_t& at(ThreadId producer, std::size_t arc) {
    return counts_[table_.arc_index(producer) + arc];
  }
  std::uint32_t at(ThreadId producer, std::size_t arc) const {
    return counts_[table_.arc_index(producer) + arc];
  }

 private:
  const ThreadTable& table_;
  std::vector<std::uint32_t> counts_;
};

/// Happens-before footprint race detection. Ancestor bitsets are
/// filled per block in topological order of the *declared* intra-block
/// arcs, but only edges whose update actually *fired* in the trace
/// contribute ordering (a declared arc that never fired did not order
/// anything in this run). The block barrier is protocol ordering: a
/// block's rc-0 roots are dispatched only at its activation, which
/// follows the previous block's OutletDone, which follows every
/// previous-block completion - so each block's roots inherit all
/// earlier blocks as ancestors; rc>0 threads inherit them through
/// their producers.
void check_races(const Program& program, const ThreadTable& table,
                 const ArcCounts& fired, const CheckOptions& options,
                 Collector& out, CheckReport& report) {
  const std::uint32_t n = program.num_app_threads();
  if (n < 2) return;
  if (options.race_check_max_threads != 0 &&
      n > options.race_check_max_threads) {
    report.races_skipped = true;
    return;
  }

  // Observed producer lists (app -> app; arcs into Outlets carry no
  // footprint and are skipped).
  std::vector<std::vector<ThreadId>> preds(n);
  for (ThreadId p = 0; p < n; ++p) {
    const std::span<const ThreadId> consumers = table.consumers(p);
    for (std::size_t i = 0; i < consumers.size(); ++i) {
      if (fired.at(p, i) != 0 && consumers[i] < n) {
        preds[consumers[i]].push_back(p);
      }
    }
  }

  const std::uint32_t words = (n + 63) / 64;
  std::vector<std::uint64_t> anc(static_cast<std::size_t>(n) * words, 0);
  std::vector<std::uint64_t> prior(words, 0);  // all earlier blocks
  auto has = [&](ThreadId a, ThreadId b) {  // b in anc(a)?
    return (anc[static_cast<std::size_t>(a) * words + b / 64] >>
            (b % 64)) & 1u;
  };

  for (const Block& blk : program.blocks()) {
    // Kahn order over the declared intra-block arcs (a superset of the
    // fired edges, so it is a valid topological order for them too).
    std::map<ThreadId, std::uint32_t> indeg;
    for (ThreadId tid : blk.app_threads) indeg[tid] = 0;
    for (ThreadId tid : blk.app_threads) {
      for (ThreadId c : table.consumers(tid)) {
        auto it = indeg.find(c);
        if (it != indeg.end()) ++it->second;
      }
    }
    std::queue<ThreadId> zero;
    for (ThreadId tid : blk.app_threads) {
      if (indeg[tid] == 0) zero.push(tid);
    }
    std::vector<ThreadId> order;
    while (!zero.empty()) {
      const ThreadId u = zero.front();
      zero.pop();
      order.push_back(u);
      for (ThreadId c : table.consumers(u)) {
        auto it = indeg.find(c);
        if (it != indeg.end() && --it->second == 0) zero.push(c);
      }
    }
    // A cyclic block (already a lint error) leaves threads unordered;
    // append them so every thread still gets a bitset.
    if (order.size() != blk.app_threads.size()) {
      for (ThreadId tid : blk.app_threads) {
        if (std::find(order.begin(), order.end(), tid) == order.end()) {
          order.push_back(tid);
        }
      }
    }

    for (ThreadId t : order) {
      std::uint64_t* row = &anc[static_cast<std::size_t>(t) * words];
      if (table.ready_count_init(t) == 0 && blk.id > 0) {
        for (std::uint32_t w = 0; w < words; ++w) row[w] |= prior[w];
      }
      for (ThreadId p : preds[t]) {
        row[p / 64] |= std::uint64_t{1} << (p % 64);
        const std::uint64_t* prow =
            &anc[static_cast<std::size_t>(p) * words];
        for (std::uint32_t w = 0; w < words; ++w) row[w] |= prow[w];
      }
    }
    for (ThreadId tid : blk.app_threads) {
      prior[tid / 64] |= std::uint64_t{1} << (tid % 64);
    }
  }

  // Sweep all footprint ranges by address; overlapping pairs with at
  // least one write and no happens-before path in either direction
  // raced in this run.
  struct Rec {
    SimAddr begin = 0;
    SimAddr end = 0;
    bool write = false;
    ThreadId owner = 0;
  };
  std::vector<Rec> recs;
  for (ThreadId tid = 0; tid < n; ++tid) {
    for (const MemRange& r : program.thread(tid).footprint.ranges) {
      if (r.bytes == 0) continue;
      if (r.bytes > std::numeric_limits<SimAddr>::max() - r.addr) continue;
      recs.push_back(Rec{r.addr, r.addr + r.bytes, r.write, tid});
    }
  }
  std::sort(recs.begin(), recs.end(), [](const Rec& a, const Rec& b) {
    return a.begin != b.begin ? a.begin < b.begin : a.owner < b.owner;
  });

  std::map<ArcKey, bool> reported;
  for (std::size_t i = 0; i < recs.size() && !out.full(); ++i) {
    for (std::size_t j = i + 1;
         j < recs.size() && recs[j].begin < recs[i].end; ++j) {
      const Rec& a = recs[i];
      const Rec& b = recs[j];
      if (a.owner == b.owner) continue;
      if (!a.write && !b.write) continue;
      if (has(a.owner, b.owner) || has(b.owner, a.owner)) continue;
      const auto key = std::minmax(a.owner, b.owner);
      if (reported.count({key.first, key.second})) continue;
      reported[{key.first, key.second}] = true;
      std::ostringstream msg;
      msg << thread_ref(program, a.owner) << " ("
          << (a.write ? "writes" : "reads") << ") and "
          << thread_ref(program, b.owner) << " ("
          << (b.write ? "writes" : "reads")
          << ") overlap at [0x" << std::hex << std::max(a.begin, b.begin)
          << ", 0x" << std::min(a.end, b.end) << std::dec
          << ") with no happens-before path between them in this run "
             "(neither an update chain nor the block barrier orders "
             "them): the executions raced";
      const ThreadId first = key.first;
      const ThreadId second = key.second;
      out.add(CheckDiag::kFootprintRace, first, second, table.block(first),
              CheckFinding::kNoSeq, msg.str());
    }
  }
}

}  // namespace

std::string CheckFinding::to_string(const Program& program) const {
  std::ostringstream out;
  out << "[" << core::to_string(code) << "]";
  if (seq != kNoSeq) out << " seq " << seq;
  if (block != kInvalidBlock) {
    out << (seq != kNoSeq ? "," : "") << " block " << block;
  }
  if (thread != kInvalidThread) {
    out << ((seq != kNoSeq || block != kInvalidBlock) ? "," : "") << " "
        << thread_ref(program, thread);
  }
  out << ": " << message;
  return out.str();
}

std::string CheckReport::to_string(const Program& program) const {
  std::ostringstream out;
  for (const CheckFinding& f : findings) {
    out << f.to_string(program) << "\n";
  }
  out << "ddmcheck: " << findings.size() << " finding(s) over "
      << records_checked << " record(s) in program '" << program.name()
      << "'";
  if (races_skipped) out << " (race check skipped: program too large)";
  if (truncated) out << " (finding list truncated)";
  out << "\n";
  return out.str();
}

CheckReport check_trace(const Program& program, const ExecTrace& trace,
                        const CheckOptions& options) {
  CheckReport report;
  Collector out(report, options);

  // Replay in seq order. Recorded and loaded traces already are
  // (TraceLog renumbers its merged lanes, load_trace sorts); only
  // traces assembled by hand pay for a sorted copy.
  const auto by_seq = [](const TraceRecord& a, const TraceRecord& b) {
    return a.seq < b.seq;
  };
  std::vector<TraceRecord> sorted;
  const std::vector<TraceRecord>* records = &trace.records;
  if (!std::is_sorted(records->begin(), records->end(), by_seq)) {
    sorted = trace.records;
    std::stable_sort(sorted.begin(), sorted.end(), by_seq);
    records = &sorted;
  }

  const ThreadTable& table = program.thread_table();
  const std::uint32_t n_threads = program.num_threads();
  const std::uint32_t n_blocks = program.num_blocks();
  std::vector<ThreadState> st(n_threads);
  ArcCounts fired(table);
  std::vector<std::uint64_t> outlet_done_seq(n_blocks,
                                             CheckFinding::kNoSeq);
  std::uint32_t outlet_done_next = 0;
  std::vector<BlockId> last_activation(trace.groups, kInvalidBlock);

  // Shard topology for the dispatch-routing tally: sharded runs use
  // the clustered map (the runtime's), flat runs classify every
  // non-home dispatch as a local steal.
  std::optional<ShardMap> shard_map;
  if (trace.shards != 0 && trace.shards <= trace.kernels) {
    shard_map = ShardMap::clustered(trace.kernels, trace.shards);
  }

  // Data-plane replay: drive a fresh execution record over the
  // Program's shared tables with the recorded schedule, so the run's
  // forward/affinity stats reconcile against the trace (DataPlaneTally
  // above).
  std::unique_ptr<DataPlane> dataplane;
  if (trace.dataplane) {
    dataplane = std::make_unique<DataPlane>(
        program, shard_map ? &*shard_map : nullptr);
  }

  auto valid_thread = [&](std::uint32_t id) { return id < n_threads; };

  // Replay one unit Ready Count update producer -> consumer (the body
  // shared by the update record and each member a range-update record
  // expands to).
  auto apply_update = [&](ThreadId producer, ThreadId consumer,
                          std::uint64_t seq) {
    const std::span<const ThreadId> consumers = table.consumers(producer);
    const BlockId consumer_block = table.block(consumer);
    const auto arc = std::find(consumers.begin(), consumers.end(), consumer);
    if (arc == consumers.end()) {
      out.add(CheckDiag::kUndeclaredArc, producer, consumer,
              table.block(producer), seq,
              "update " + thread_ref(program, producer) + " -> " +
                  thread_ref(program, consumer) +
                  " travels along no declared Synchronization Graph "
                  "arc");
    } else {
      std::uint32_t& count = fired.at(producer, arc - consumers.begin());
      if (++count == 2) {
        out.add(CheckDiag::kDuplicateUpdate, producer, consumer,
                table.block(producer), seq,
                "arc " + thread_ref(program, producer) + " -> " +
                    thread_ref(program, consumer) +
                    " fired more than once; one completion must "
                    "decrement each consumer exactly once");
      }
    }
    // An update must land while the consumer's block is live:
    // every legitimate update to a block-b consumer precedes
    // OutletDone(b) (the producer's completion feeds the Outlet's
    // Ready Count). Landing afterwards is the stale-generation bug
    // class - the decrement would hit a reloaded SM generation.
    if (table.is_application(consumer) && consumer_block < n_blocks &&
        outlet_done_seq[consumer_block] != CheckFinding::kNoSeq) {
      out.add(CheckDiag::kBlockLifecycle, consumer, producer, consumer_block,
              seq,
              "update " + thread_ref(program, producer) + " -> " +
                  thread_ref(program, consumer) + " landed on block " +
                  std::to_string(consumer_block) +
                  " after its OutletDone (seq " +
                  std::to_string(outlet_done_seq[consumer_block]) +
                  "); the block was already retired");
    }
    ThreadState& s = st[consumer];
    ++s.updates;
    if (s.updates == table.ready_count_init(consumer) + 1) {
      out.add(CheckDiag::kNegativeReadyCount, consumer, kInvalidThread,
              consumer_block, seq,
              thread_ref(program, consumer) + " received " +
                  std::to_string(s.updates) +
                  " update(s) against an initial Ready Count of " +
                  std::to_string(table.ready_count_init(consumer)) +
                  "; the count went negative");
    }
  };

  for (const TraceRecord& r : *records) {
    ++report.records_checked;
    if (out.full()) {
      report.truncated = true;
      break;
    }
    switch (r.event) {
      case TraceEvent::kUpdate: {
        if (!valid_thread(r.a) || !valid_thread(r.b)) {
          out.add(CheckDiag::kMalformedRecord, kInvalidThread,
                  kInvalidThread, kInvalidBlock, r.seq,
                  "update references an unknown thread (" +
                      std::to_string(r.a) + " -> " + std::to_string(r.b) +
                      ")");
          break;
        }
        apply_update(r.a, r.b, r.seq);
        break;
      }
      case TraceEvent::kRangeUpdate: {
        // One coalesced record standing for the unit updates a -> b ..
        // a -> c: expand and replay each, so a range that covers
        // anything beyond the declared arcs surfaces as the exact
        // undeclared-arc / negative-ready-count findings the unit
        // protocol would produce.
        if (!valid_thread(r.a) || !valid_thread(r.b) ||
            !valid_thread(r.c)) {
          out.add(CheckDiag::kMalformedRecord, kInvalidThread,
                  kInvalidThread, kInvalidBlock, r.seq,
                  "range-update references an unknown thread (" +
                      std::to_string(r.a) + " -> [" + std::to_string(r.b) +
                      ", " + std::to_string(r.c) + "])");
          break;
        }
        if (r.c < r.b) {
          out.add(CheckDiag::kMalformedRecord, r.a, kInvalidThread,
                  table.block(r.a), r.seq,
                  "range-update [" + std::to_string(r.b) + ", " +
                      std::to_string(r.c) + "] has hi < lo");
          break;
        }
        for (std::uint32_t id = r.b; id <= r.c && !out.full(); ++id) {
          apply_update(r.a, id, r.seq);
        }
        break;
      }
      case TraceEvent::kDispatch: {
        if (!valid_thread(r.a)) {
          out.add(CheckDiag::kMalformedRecord, kInvalidThread,
                  kInvalidThread, kInvalidBlock, r.seq,
                  "dispatch references unknown thread " +
                      std::to_string(r.a));
          break;
        }
        const BlockId block = table.block(r.a);
        const bool app = table.is_application(r.a);
        if (r.b < trace.kernels) {
          // Same home clamp the runtime's TKT applies: a home beyond
          // the run's kernel count folds to kernel 0.
          const KernelId home = table.home_kernel(r.a) < trace.kernels
                                    ? table.home_kernel(r.a)
                                    : KernelId{0};
          const auto target = static_cast<KernelId>(r.b);
          ++report.steals.dispatches;
          if (target == home) {
            ++report.steals.home;
          } else if (!shard_map || shard_map->same_shard(home, target)) {
            ++report.steals.local;
          } else {
            ++report.steals.remote;
          }
          if (dataplane && app) {
            // Account against the record as it stood when the live run
            // dispatched, then claim ownership at the target kernel.
            const DataPlane::DispatchAccount acct =
                dataplane->account_dispatch(r.a, target);
            if (acct.cold) {
              ++report.dataplane.affinity_cold;
            } else if (acct.hit) {
              ++report.dataplane.affinity_hits;
            } else {
              ++report.dataplane.affinity_misses;
            }
            report.dataplane.cross_shard_bytes += acct.cross_shard_bytes;
            dataplane->record_execution(r.a, target);
          }
        }
        ThreadState& s = st[r.a];
        ++s.dispatches;
        if (s.dispatches == 2) {
          out.add(CheckDiag::kDoubleDispatch, r.a, kInvalidThread, block,
                  r.seq,
                  thread_ref(program, r.a) + " was dispatched twice");
        } else if (s.dispatches == 1 &&
                   s.updates < table.ready_count_init(r.a)) {
          out.add(CheckDiag::kPrematureDispatch, r.a, kInvalidThread, block,
                  r.seq,
                  thread_ref(program, r.a) + " was dispatched after " +
                      std::to_string(s.updates) + " of " +
                      std::to_string(table.ready_count_init(r.a)) +
                      " update(s); its Ready Count had not reached zero");
        }
        break;
      }
      case TraceEvent::kComplete: {
        if (!valid_thread(r.a)) {
          out.add(CheckDiag::kMalformedRecord, kInvalidThread,
                  kInvalidThread, kInvalidBlock, r.seq,
                  "complete references unknown thread " +
                      std::to_string(r.a));
          break;
        }
        const BlockId block = table.block(r.a);
        const bool app = table.is_application(r.a);
        if (r.b != block) {
          out.add(CheckDiag::kMalformedRecord, r.a, kInvalidThread, block,
                  r.seq,
                  "complete records block " + std::to_string(r.b) +
                      " but " + thread_ref(program, r.a) +
                      " belongs to block " + std::to_string(block));
        }
        ThreadState& s = st[r.a];
        ++s.completes;
        if (s.completes == 2) {
          out.add(CheckDiag::kDoubleExecution, r.a, kInvalidThread, block,
                  r.seq,
                  thread_ref(program, r.a) +
                      " executed twice; DDM guarantees exactly-once "
                      "execution per DThread");
        } else if (s.completes == 1 && s.dispatches == 0) {
          out.add(CheckDiag::kExecutionWithoutDispatch, r.a, kInvalidThread,
                  block, r.seq,
                  thread_ref(program, r.a) +
                      " completed without a Dispatch record");
        }
        // Application threads only: every one of them precedes its
        // block's Outlet through an update chain, so completing after
        // OutletDone means the block retired too early. Inlets are
        // exempt - pipelined mode moves their SM load off the critical
        // path and only keeps the body for accounting parity, so a
        // slow kernel can legitimately run one after the block retired.
        if (app && block < n_blocks &&
            outlet_done_seq[block] != CheckFinding::kNoSeq) {
          out.add(CheckDiag::kBlockLifecycle, r.a, kInvalidThread, block,
                  r.seq,
                  thread_ref(program, r.a) + " completed after block " +
                      std::to_string(block) + "'s OutletDone (seq " +
                      std::to_string(outlet_done_seq[block]) +
                      "); the block was already retired");
        }
        if (dataplane && app) {
          // One bulk forward per arc run, batched the way the recorded
          // run batched its updates (the trace's coalesce mode).
          for (const ForwardRun& run :
               dataplane->tables().forward_runs(r.a, trace.coalesce)) {
            ++report.dataplane.forwards;
            report.dataplane.bytes_forwarded += run.bytes;
          }
        }
        break;
      }
      case TraceEvent::kInletLoad:
      case TraceEvent::kBlockPromote: {
        const char* what = r.event == TraceEvent::kInletLoad
                               ? "inlet-load"
                               : "block-promote";
        if (r.a >= n_blocks || r.b >= trace.groups) {
          out.add(CheckDiag::kMalformedRecord, kInvalidThread,
                  kInvalidThread, kInvalidBlock, r.seq,
                  std::string(what) + " references unknown block " +
                      std::to_string(r.a) + " or group " +
                      std::to_string(r.b));
          break;
        }
        const auto block = static_cast<BlockId>(r.a);
        const std::uint16_t group = static_cast<std::uint16_t>(r.b);
        if (last_activation[group] != kInvalidBlock &&
            block <= last_activation[group]) {
          out.add(CheckDiag::kBlockLifecycle, kInvalidThread,
                  kInvalidThread, block, r.seq,
                  "group " + std::to_string(group) + " activated block " +
                      std::to_string(block) + " (" + what +
                      ") after already activating block " +
                      std::to_string(last_activation[group]) +
                      "; activations must strictly ascend");
        }
        last_activation[group] = block;
        break;
      }
      case TraceEvent::kOutletDone: {
        if (r.a >= n_blocks) {
          out.add(CheckDiag::kMalformedRecord, kInvalidThread,
                  kInvalidThread, kInvalidBlock, r.seq,
                  "outlet-done references unknown block " +
                      std::to_string(r.a));
          break;
        }
        const auto block = static_cast<BlockId>(r.a);
        if (outlet_done_seq[block] != CheckFinding::kNoSeq) {
          out.add(CheckDiag::kBlockLifecycle, kInvalidThread,
                  kInvalidThread, block, r.seq,
                  "block " + std::to_string(block) +
                      " published OutletDone twice");
        } else {
          if (block != outlet_done_next) {
            out.add(CheckDiag::kBlockLifecycle, kInvalidThread,
                    kInvalidThread, block, r.seq,
                    "OutletDone for block " + std::to_string(block) +
                        " but block " + std::to_string(outlet_done_next) +
                        " was expected; blocks retire in declaration "
                        "order");
          }
          outlet_done_seq[block] = r.seq;
          if (block == outlet_done_next) ++outlet_done_next;
        }
        break;
      }
      case TraceEvent::kShadowDecrement: {
        // Pipelining detail: the Ready Count discipline is already
        // accounted through the kUpdate records; nothing to replay.
        if (!valid_thread(r.a)) {
          out.add(CheckDiag::kMalformedRecord, kInvalidThread,
                  kInvalidThread, kInvalidBlock, r.seq,
                  "shadow-decrement references unknown thread " +
                      std::to_string(r.a));
        }
        break;
      }
    }
  }

  if (trace.truncated) {
    // The records are a prefix of an abnormally ended run, flushed by
    // the emergency path. Missing executions, unfired arcs, and
    // unretired blocks are expected in a prefix - report the
    // truncation itself once and skip the completeness checks and the
    // race pass (which needs complete happens-before evidence).
    out.add(CheckDiag::kTruncatedTrace, kInvalidThread, kInvalidThread,
            kInvalidBlock, CheckFinding::kNoSeq,
            "trace is marked truncated (the run ended abnormally); "
            "replayed the " +
                std::to_string(report.records_checked) +
                "-record prefix, skipping end-of-trace completeness "
                "checks and the race pass");
    return report;
  }

  // End-of-trace: every DThread (Inlets and Outlets included) ran
  // exactly once, every declared arc fired, every block retired.
  for (ThreadId tid = 0; tid < n_threads; ++tid) {
    const ThreadState& s = st[tid];
    if (s.completes == 0) {
      out.add(CheckDiag::kMissingExecution, tid, kInvalidThread,
              table.block(tid), CheckFinding::kNoSeq,
              thread_ref(program, tid) +
                  (s.dispatches == 0
                       ? " was never dispatched or executed"
                       : " was dispatched but never completed"));
    }
    if (table.is_application(tid) && s.completes > 0) {
      const std::span<const ThreadId> consumers = table.consumers(tid);
      for (std::size_t i = 0; i < consumers.size(); ++i) {
        const ThreadId c = consumers[i];
        if (fired.at(tid, i) == 0) {
          out.add(CheckDiag::kMissingUpdate, tid, c, table.block(tid),
                  CheckFinding::kNoSeq,
                  "declared arc " + thread_ref(program, tid) + " -> " +
                      thread_ref(program, c) +
                      " never fired although the producer completed");
        }
      }
    }
  }
  for (BlockId b = 0; b < n_blocks; ++b) {
    if (outlet_done_seq[b] == CheckFinding::kNoSeq &&
        st[program.block(b).outlet].completes > 0) {
      out.add(CheckDiag::kBlockLifecycle, program.block(b).outlet,
              kInvalidThread, b, CheckFinding::kNoSeq,
              "block " + std::to_string(b) +
                  "'s Outlet completed but no OutletDone was recorded");
    }
  }

  if (options.check_races) {
    if (out.full()) {
      // No room left for race findings: the pass would only drop them.
      report.truncated = true;
    } else {
      check_races(program, table, fired, options, out, report);
    }
  }
  return report;
}

}  // namespace tflux::core
