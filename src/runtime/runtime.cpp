#include "runtime/runtime.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <thread>

#include "core/error.h"
#include "runtime/trace_log.h"

namespace tflux::runtime {
namespace {

/// Best-effort pinning of `thread` to `cpu` (modulo the host's CPU
/// count). Pinning is an optimization; errors are ignored.
void pin_to_cpu(std::thread& thread, unsigned cpu) {
  const unsigned ncpu =
      std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % ncpu, &set);
  (void)pthread_setaffinity_np(thread.native_handle(), sizeof(set), &set);
}

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

}  // namespace

Runtime::Runtime(const core::Program& program, RuntimeOptions options)
    : program_(program), options_(options) {
  if (options_.num_kernels == 0) {
    throw core::TFluxError("Runtime: num_kernels must be >= 1");
  }
  if (options_.tsu_groups == 0 ||
      options_.tsu_groups > options_.num_kernels) {
    throw core::TFluxError(
        "Runtime: tsu_groups must be in [1, num_kernels]");
  }
  if (options_.shards > options_.num_kernels) {
    throw core::TFluxError("Runtime: shards must be <= num_kernels");
  }
  // Sharded topology: replace the interleaved k % tsu_groups ownership
  // with clustered shards, one emulator per shard.
  if (options_.shards >= 1) {
    shard_map_ = core::ShardMap::clustered(options_.num_kernels,
                                           options_.shards);
  }
}

RuntimeStats Runtime::run() {
  ++runs_;

  const bool sharded = shard_map_.has_value();
  const std::uint16_t groups = sharded ? options_.shards : options_.tsu_groups;
  const core::ShardMap* map_ptr = sharded ? &*shard_map_ : nullptr;

  // Managed data plane: the Program's shared forward/contribution
  // tables plus this Runtime's execution record, which kernels write
  // and emulators score against.
  core::DataPlane* dataplane = nullptr;
  if (options_.dataplane) {
    if (dataplane_) {
      dataplane_->rewind();
    } else {
      dataplane_.emplace(program_, map_ptr);
    }
    dataplane = &*dataplane_;
  }

  SyncMemoryGroup sm(program_, options_.num_kernels);
  sm.set_shard_map(map_ptr);
  // Emulator-published commands get dedicated lanes after the
  // kernels' lanes, because a kernel lane is SPSC with the kernel as
  // sole producer: one per emulator in sharded mode (steal grants),
  // otherwise one for the coordinator's shutdown broadcast - a
  // pipelined Inlet may still publish its LoadBlock after the final
  // Outlet.
  const std::uint32_t num_lanes =
      options_.num_kernels + (sharded ? groups : 1u);
  TubGroup tubs(program_, sm,
                TubGroupOptions{
                    .num_groups = groups,
                    .lockfree = options_.lockfree,
                    .num_lanes = num_lanes,
                    .lane_capacity = options_.tub_lane_capacity,
                    .segments = options_.tub_segments,
                    .segment_capacity = options_.tub_segment_capacity,
                    .coalesce = options_.coalesce_updates,
                    .shard_map = map_ptr,
                });
  // Size each mailbox ring to the largest block (plus chaining slack:
  // next block's inlet and the exit sentinel can be queued alongside),
  // so an outbox publish never blocks on a full ring in practice.
  // Batching does not raise that bound: the ids a Kernel has taken
  // and the ids still staged in an outbox occupy no ring slot.
  std::size_t peak_block = 0;
  for (const core::Block& blk : program_.blocks()) {
    peak_block = std::max(peak_block, blk.app_threads.size());
  }
  const std::size_t mailbox_capacity = std::max<std::size_t>(
      64, peak_block + 4);
  std::deque<Mailbox> mailboxes;
  for (core::KernelId k = 0; k < options_.num_kernels; ++k) {
    mailboxes.emplace_back(options_.lockfree, mailbox_capacity);
  }

  std::unique_ptr<TraceLog> trace_log;
  if (options_.trace != nullptr) {
    trace_log = std::make_unique<TraceLog>(options_.num_kernels, groups);
    if (options_.trace_emergency) {
      // Abnormal teardown (exception unwinding through this frame, or
      // exit() mid-run): persist the record prefix as a trace marked
      // truncated. Captured state is by value except the options,
      // which outlive the TraceLog.
      trace_log->arm_emergency(
          [this, groups](std::vector<core::TraceRecord>&& records) {
            core::ExecTrace partial;
            partial.program = program_.name();
            partial.kernels = options_.num_kernels;
            partial.groups = groups;
            partial.policy = core::to_string(options_.policy);
            partial.pipelined = options_.block_pipeline;
            partial.lockfree = options_.lockfree;
            partial.shards = options_.shards;
            partial.coalesce = options_.coalesce_updates;
            partial.dataplane = options_.dataplane;
            partial.truncated = true;
            partial.records = std::move(records);
            options_.trace_emergency(partial);
          });
    }
  }

  std::unique_ptr<core::Guard> guard;
  if (options_.guard.mode != core::GuardMode::kOff) {
    guard = std::make_unique<core::Guard>(program_, options_.guard,
                                          options_.num_kernels, groups);
    if (trace_log) {
      // First violation => persist the in-flight trace prefix, so the
      // online finding and the offline replay triage the same run.
      guard->set_on_first_violation(
          [log = trace_log.get()] { log->request_emergency_dump(); });
    }
  }
  tubs.set_guard(guard.get());

  FaultPlan fault;
  if (options_.inject_fault.kind != FaultInjection::Kind::kNone) {
    if (!guard || guard->options().mode != core::GuardMode::kFull) {
      throw core::TFluxError(
          "Runtime: fault injection requires --guard=full (the guard "
          "must account every block to contain the injected fault)");
    }
    resolve_fault(program_, options_.inject_fault, fault);
  }
  FaultPlan* fault_ptr =
      fault.kind != FaultInjection::Kind::kNone ? &fault : nullptr;

  std::vector<TsuEmulator> emulators;
  emulators.reserve(groups);
  for (std::uint16_t g = 0; g < groups; ++g) {
    emulators.emplace_back(
        program_, tubs, sm, mailboxes,
        TsuEmulator::Options{
            .thread_indexing = options_.thread_indexing,
            .policy = options_.policy,
            .group = g,
            .num_groups = groups,
            .block_pipeline = options_.block_pipeline,
            .prefetch_low_water = options_.prefetch_low_water,
            .adaptive_backlog = options_.adaptive_backlog,
            .shard_map = map_ptr,
            .steal_threshold = options_.steal_threshold,
            .dataplane = dataplane,
            .trace = trace_log.get(),
            .guard = guard.get(),
            .fault = fault_ptr,
        });
  }

  std::vector<Kernel> kernels;
  kernels.reserve(options_.num_kernels);
  for (core::KernelId k = 0; k < options_.num_kernels; ++k) {
    kernels.emplace_back(program_, k, mailboxes[k], tubs, trace_log.get(),
                         GuardHook{guard.get(), k}, fault_ptr, dataplane);
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(kernels.size() + emulators.size());
  for (Kernel& k : kernels) {
    threads.emplace_back([&k] { k.run(); });
    if (options_.pin_threads) {
      pin_to_cpu(threads.back(), k.id());
    }
  }
  std::vector<std::thread> emulator_threads;
  emulator_threads.reserve(emulators.size());
  for (TsuEmulator& e : emulators) {
    emulator_threads.emplace_back([&e] { e.run(); });
    if (options_.pin_threads) {
      pin_to_cpu(emulator_threads.back(),
                 options_.num_kernels + e.group());
    }
  }

  for (std::thread& t : threads) t.join();
  for (std::thread& t : emulator_threads) t.join();
  const auto t1 = std::chrono::steady_clock::now();

  if (trace_log) {
    core::ExecTrace& trace = *options_.trace;
    trace.program = program_.name();
    trace.kernels = options_.num_kernels;
    trace.groups = groups;
    trace.policy = core::to_string(options_.policy);
    trace.pipelined = options_.block_pipeline;
    trace.lockfree = options_.lockfree;
    trace.shards = options_.shards;
    trace.coalesce = options_.coalesce_updates;
    trace.dataplane = options_.dataplane;
    trace.records = trace_log->finish();
  }

  RuntimeStats stats;
  stats.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  stats.epoch = runs_;
  stats.tub = tubs.aggregated_stats();
  for (const TsuEmulator& e : emulators) {
    stats.emulators.push_back(e.stats());
    stats.emulator += e.stats();
  }
  stats.kernels.reserve(kernels.size());
  for (const Kernel& k : kernels) stats.kernels.push_back(k.stats());
  if (guard) {
    stats.guard = guard->stats();
    stats.guard_violations = guard->violations();
  }
  return stats;
}

}  // namespace tflux::runtime
