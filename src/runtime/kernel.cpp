#include "runtime/kernel.h"

#include <algorithm>
#include <array>
#include <vector>

#include "runtime/trace_log.h"

namespace tflux::runtime {

Kernel::Kernel(const core::Program& program, core::KernelId id,
               Mailbox& mailbox, TubGroup& tubs, TraceLog* trace,
               GuardHook guard, FaultPlan* fault,
               const core::DataPlane* dataplane)
    : program_(program), id_(id), mailbox_(mailbox), tubs_(tubs),
      trace_(trace), guard_(guard), fault_(fault), dataplane_(dataplane) {}

void Kernel::post_process(const core::DThread& t) {
  // Local TSU: translate the completion into TSU commands, routed to
  // the TSU Group owning each target (one group = the paper's
  // TFluxSoft; several = the section 4.1 extension). Every branch
  // records first and publishes its clock right before its TUB
  // publishes, one clock store per completion.
  switch (t.kind) {
    case core::ThreadKind::kInlet:
      if (fault_ != nullptr &&
          fault_->is(FaultInjection::Kind::kStaleGeneration) &&
          t.block == program_.thread(fault_->victim).block + 1 &&
          fault_->fire()) {
        // kStaleGeneration: replay one of the victim's updates from the
        // next block's Inlet - by then the victim's block has retired
        // (this Inlet runs happens-after the coordinator processed that
        // block's OutletDone), so the update lands on a dead
        // generation.
        if (trace_) {
          trace_->record(id_, core::TraceEvent::kUpdate, fault_->victim,
                         fault_->consumer);
          trace_->publish(id_);
        }
        tubs_.publish_update(fault_->consumer, id_, fault_->victim);
      }
      if (trace_) trace_->publish(id_);
      tubs_.publish_load_block(t.block, id_);
      break;
    case core::ThreadKind::kOutlet:
      // Recorded before the publish so OutletDone precedes every record
      // of the next block's activation.
      if (trace_) {
        trace_->record(id_, core::TraceEvent::kOutletDone, t.block, 0);
        trace_->publish(id_);
      }
      tubs_.publish_outlet_done(t.block, id_);
      break;
    case core::ThreadKind::kApplication: {
      // kDoublePublish: the victim's whole completion is published a
      // second time, traced both times - consumers see one update too
      // many (negative-ready-count online, duplicate-update offline).
      const int publishes =
          (fault_ != nullptr &&
           fault_->is(FaultInjection::Kind::kDoublePublish) &&
           t.id == fault_->victim && fault_->fire())
              ? 2
              : 1;
      for (int i = 0; i < publishes; ++i) {
        if (trace_) {
          // Trace what is actually published: one range-update record
          // per coalesced run, unit records otherwise - so ddmcheck
          // verifies the coalesced protocol itself, expanding each
          // range back to its declared unit arcs.
          if (tubs_.coalesce() && !t.consumer_runs.empty()) {
            for (const core::DThread::ConsumerRun& run : t.consumer_runs) {
              if (run.lo == run.hi) {
                trace_->record(id_, core::TraceEvent::kUpdate, t.id,
                               run.lo);
              } else {
                trace_->record(id_, core::TraceEvent::kRangeUpdate, t.id,
                               run.lo, run.hi);
              }
            }
          } else {
            for (const core::ThreadId consumer : t.consumers) {
              trace_->record(id_, core::TraceEvent::kUpdate, t.id,
                             consumer);
            }
          }
          trace_->publish(id_);
        }
        stats_.updates_published +=
            tubs_.publish_completion(t, id_, scratch_);
      }
      break;
    }
  }
}

void Kernel::run() {
  std::array<core::ThreadId, kMailboxBatch> batch{};
  for (;;) {
    const std::size_t n = mailbox_.take_n(batch.data(), batch.size());
    if (trace_) trace_->receive(id_);
    stats_.mailbox_backlog_peak = std::max<std::uint64_t>(
        stats_.mailbox_backlog_peak, mailbox_.occupancy());
    for (std::size_t i = 0; i < n; ++i) {
      if (batch[i] == core::kInvalidThread) {  // exit sentinel
        mailbox_.done(n);
        return;
      }
      execute(batch[i]);
    }
    // Occupancy drops once per batch, after the batch ran: the
    // emulator's routing sees this kernel busy until then.
    mailbox_.done(n);
  }
}

void Kernel::execute(core::ThreadId tid) {
  const core::DThread& t = program_.thread(tid);
  if (dataplane_ != nullptr && t.is_application()) {
    // Ownership record before the body and the publish below: by the
    // time any consumer can be scored, this thread's written ranges
    // are attributed here (the TUB's release/acquire orders it).
    dataplane_->record_execution(tid, id_);
  }
  if (t.body) {
    t.body(core::ExecContext{id_, tid});
  }
  ++stats_.threads_executed;
  if (t.is_application()) ++stats_.app_threads_executed;
  if (dataplane_ != nullptr && t.is_application()) {
    // One bulk forward per coalesced [lo, hi] run (or per consumer
    // in the unit ablation), counted once per completion - the
    // double-publish fault duplicates updates, never forwards.
    for (const core::ForwardRun& run :
         dataplane_->tables().forward_runs(tid, tubs_.coalesce())) {
      ++stats_.forwards;
      stats_.bytes_forwarded += run.bytes;
    }
  }
  // Epoch stamp before the Complete record: the execute event takes
  // its place in the causal order ahead of everything this
  // completion publishes.
  guard_.execute(tid);
  if (trace_) {
    trace_->record(id_, core::TraceEvent::kComplete, tid, t.block);
  }
  post_process(t);
}

}  // namespace tflux::runtime
