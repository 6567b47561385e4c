#include "runtime/frame.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

#include "core/error.h"

namespace tflux::runtime {
namespace {

/// True when `tid` can carry the requested fault: kDoublePublish needs
/// consumers to duplicate updates to; kLostUpdate needs an initial
/// Ready Count of at least 2 (the early dispatch fires on a decrement
/// that did not reach zero); kStaleGeneration needs an application
/// consumer to hit and a successor block whose Inlet replays the
/// update.
bool fault_victim_suitable(const core::Program& program,
                           FaultInjection::Kind kind, core::ThreadId tid) {
  const core::DThread& t = program.thread(tid);
  if (!t.is_application()) return false;
  switch (kind) {
    case FaultInjection::Kind::kDoublePublish:
      return !t.consumers.empty();
    case FaultInjection::Kind::kLostUpdate:
      return t.ready_count_init >= 2;
    case FaultInjection::Kind::kStaleGeneration: {
      if (static_cast<core::BlockId>(t.block + 1) >= program.num_blocks()) {
        return false;
      }
      // Same-block consumer only: by replay time the victim's block
      // has retired, so the duplicate provably lands on a retired
      // generation (a cross-block consumer's block may still be live).
      for (core::ThreadId c : t.consumers) {
        if (program.thread(c).is_application() &&
            program.thread(c).block == t.block) {
          return true;
        }
      }
      return false;
    }
    case FaultInjection::Kind::kNone:
      break;
  }
  return false;
}

/// Fill `plan` from the user's request: resolve (or validate) the
/// victim and arm the one-shot injection.
void resolve_fault(const core::Program& program,
                   const FaultInjection& inject, FaultPlan& plan) {
  plan.kind = inject.kind;
  core::ThreadId victim = inject.victim;
  if (victim != core::kInvalidThread) {
    if (victim >= program.num_threads() ||
        !fault_victim_suitable(program, inject.kind, victim)) {
      throw core::TFluxError(
          "Runtime: thread " + std::to_string(victim) +
          " cannot carry fault '" + std::string(to_string(inject.kind)) +
          "'");
    }
  } else {
    for (core::ThreadId tid = 0; tid < program.num_threads(); ++tid) {
      if (fault_victim_suitable(program, inject.kind, tid)) {
        victim = tid;
        break;
      }
    }
    if (victim == core::kInvalidThread) {
      throw core::TFluxError(
          "Runtime: no DThread in program '" + program.name() +
          "' can carry fault '" + std::string(to_string(inject.kind)) +
          "'");
    }
  }
  plan.victim = victim;
  if (inject.kind == FaultInjection::Kind::kStaleGeneration) {
    for (core::ThreadId c : program.thread(victim).consumers) {
      if (program.thread(c).is_application() &&
          program.thread(c).block == program.thread(victim).block) {
        plan.consumer = c;
        break;
      }
    }
  }
  plan.armed.store(true, std::memory_order_release);
}

/// Sharded topology: clustered shards, one emulator per shard, replace
/// the interleaved k % tsu_groups ownership.
std::optional<core::ShardMap> shard_map_for(const RuntimeOptions& options) {
  if (options.shards == 0) return std::nullopt;
  return core::ShardMap::clustered(options.num_kernels, options.shards);
}

TubGroupOptions tub_options(const RuntimeOptions& options,
                            std::uint16_t groups, const core::ShardMap* map) {
  // Emulator-published commands get dedicated lanes after the
  // kernels' lanes, because a kernel lane is SPSC with the kernel as
  // sole producer: one per emulator in sharded mode (steal grants),
  // otherwise one for the coordinator's shutdown broadcast - a
  // pipelined Inlet may still publish its LoadBlock after the final
  // Outlet.
  return TubGroupOptions{
      .num_groups = groups,
      .lockfree = options.lockfree,
      .num_lanes = options.num_kernels + (map != nullptr ? groups : 1u),
      .lane_capacity = options.tub_lane_capacity,
      .segments = options.tub_segments,
      .segment_capacity = options.tub_segment_capacity,
      .coalesce = options.coalesce_updates,
      .shard_map = map,
  };
}

}  // namespace

void validate_options(const RuntimeOptions& options, const char* owner,
                      const char* width) {
  const std::string who = std::string(owner) + ": ";
  if (options.num_kernels == 0) {
    throw core::TFluxError(who + width + " must be >= 1");
  }
  if (options.tsu_groups == 0 || options.tsu_groups > options.num_kernels) {
    throw core::TFluxError(who + "tsu_groups must be in [1, " + width + "]");
  }
  if (options.shards > options.num_kernels) {
    throw core::TFluxError(who + "shards must be <= " + width);
  }
}

void pin_self_to_cpu(unsigned cpu) {
  const unsigned ncpu = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % ncpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

RunFrame::RunFrame(const core::Program& program, const RuntimeOptions& options,
                   std::unique_ptr<TraceLog> trace_log)
    : program_(program),
      options_(options),
      groups_(tsu_group_count(options)),
      shard_map_(shard_map_for(options)),
      sm_(program, options.num_kernels),
      tubs_(program, sm_, tub_options(options, groups_, shard_map())),
      trace_log_(std::move(trace_log)) {
  const std::uint16_t width = options_.num_kernels;
  const core::ShardMap* map = shard_map();
  sm_.set_shard_map(map);
  if (options_.dataplane) {
    // Only the execution record is the frame's; the forward and
    // contribution tables are the Program's, shared by every run.
    dataplane_.emplace(program_, map);
  }
  const core::DataPlane* dataplane = dataplane_ ? &*dataplane_ : nullptr;

  // Size each mailbox ring to the largest block (plus chaining slack:
  // next block's inlet and the exit sentinel can be queued alongside),
  // so an outbox publish never blocks on a full ring in practice.
  // Batching does not raise that bound: the ids a Kernel has taken
  // and the ids still staged in an outbox occupy no ring slot.
  std::size_t peak_block = 0;
  for (const core::Block& blk : program_.blocks()) {
    peak_block = std::max(peak_block, blk.app_threads.size());
  }
  const std::size_t mailbox_capacity =
      std::max<std::size_t>(64, peak_block + 4);
  for (core::KernelId k = 0; k < width; ++k) {
    mailboxes_.emplace_back(options_.lockfree, mailbox_capacity);
  }

  if (options_.trace != nullptr) {
    // One lane per actor of this frame (kernels 0..W-1, emulators
    // W..W+G-1), rewound so the trace covers exactly this run and
    // replays standalone through tflux_check.
    if (trace_log_) {
      trace_log_->rewind();
    } else {
      trace_log_ = std::make_unique<TraceLog>(width, groups_);
    }
    if (options_.trace_emergency) {
      // Abnormal teardown (an exception unwinding through the owner,
      // or exit() mid-run): persist the record prefix as a trace
      // marked truncated. The writer reads only the frame's
      // configuration, which outlives the TraceLog.
      trace_log_->arm_emergency(
          [this](std::vector<core::TraceRecord>&& records) {
            core::ExecTrace partial;
            describe(partial);
            partial.truncated = true;
            partial.records = std::move(records);
            options_.trace_emergency(partial);
          });
    }
  }

  if (options_.guard.mode != core::GuardMode::kOff) {
    // Epoch words over this frame's DThreads and block generations
    // only, so a finding never implicates another run.
    guard_ = std::make_unique<core::Guard>(program_, options_.guard, width,
                                           groups_);
    // The first violation is reported the moment it trips, before the
    // trace dump is requested: a run that is then aborted (a
    // sanitizer halting on the race an injected fault provokes, a
    // wedge) still names its first finding.
    guard_->set_on_first_violation([this] {
      const std::vector<core::GuardViolation> found = guard_->violations();
      if (!found.empty()) {
        std::cerr << "guard: first violation: "
                  << found.front().to_string(program_) << std::endl;
      }
      if (trace_log_) trace_log_->request_emergency_dump();
    });
  }
  tubs_.set_guard(guard_.get());

  if (options_.inject_fault.kind != FaultInjection::Kind::kNone) {
    if (!guard_ || guard_->options().mode != core::GuardMode::kFull) {
      throw core::TFluxError(
          "Runtime: fault injection requires --guard=full (the guard "
          "must account every block to contain the injected fault)");
    }
    resolve_fault(program_, options_.inject_fault, fault_);
  }
  FaultPlan* fault =
      fault_.kind != FaultInjection::Kind::kNone ? &fault_ : nullptr;

  emulators_.reserve(groups_);
  for (std::uint16_t g = 0; g < groups_; ++g) {
    emulators_.emplace_back(
        program_, tubs_, sm_, mailboxes_,
        TsuEmulator::Options{
            .thread_indexing = options_.thread_indexing,
            .policy = options_.policy,
            .group = g,
            .num_groups = groups_,
            .block_pipeline = options_.block_pipeline,
            .prefetch_low_water = options_.prefetch_low_water,
            .adaptive_backlog = options_.adaptive_backlog,
            .shard_map = map,
            .steal_threshold = options_.steal_threshold,
            .dataplane = dataplane,
            .trace = trace_log_.get(),
            .guard = guard_.get(),
            .fault = fault,
        });
  }
  kernels_.reserve(width);
  for (core::KernelId k = 0; k < width; ++k) {
    kernels_.emplace_back(program_, k, mailboxes_[k], tubs_,
                          trace_log_.get(), GuardHook{guard_.get(), k}, fault,
                          dataplane);
  }
}

void RunFrame::run_role(std::uint16_t role) {
  if (role < options_.num_kernels) {
    kernels_[role].run();
  } else {
    emulators_[role - options_.num_kernels].run();
  }
}

RuntimeStats RunFrame::stats(double wall_seconds) const {
  RuntimeStats stats;
  stats.wall_seconds = wall_seconds;
  stats.tub = tubs_.aggregated_stats();
  for (const TsuEmulator& e : emulators_) {
    stats.emulators.push_back(e.stats());
    stats.emulator += e.stats();
  }
  stats.kernels.reserve(kernels_.size());
  for (const Kernel& k : kernels_) stats.kernels.push_back(k.stats());
  if (guard_) {
    stats.guard = guard_->stats();
    stats.guard_violations = guard_->violations();
  }
  return stats;
}

void RunFrame::describe(core::ExecTrace& trace) const {
  trace.program = program_.name();
  trace.kernels = options_.num_kernels;
  trace.groups = groups_;
  trace.policy = core::to_string(options_.policy);
  trace.pipelined = options_.block_pipeline;
  trace.lockfree = options_.lockfree;
  trace.shards = options_.shards;
  trace.coalesce = options_.coalesce_updates;
  trace.dataplane = options_.dataplane;
}

void RunFrame::fill_trace(core::ExecTrace& trace) {
  describe(trace);
  trace_log_->finish(trace.records);
}

}  // namespace tflux::runtime
