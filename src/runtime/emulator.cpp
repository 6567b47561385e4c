#include "runtime/emulator.h"

#include <algorithm>
#include <cassert>

#include "core/error.h"
#include "runtime/trace_log.h"

namespace tflux::runtime {

TsuEmulator::TsuEmulator(const core::Program& program, TubGroup& tubs,
                         SyncMemoryGroup& sm,
                         std::deque<Mailbox>& mailboxes, Options options)
    : program_(program),
      table_(program.thread_table()),
      tubs_(tubs),
      tub_(tubs.tub(options.group)),
      sm_(sm),
      mailboxes_(mailboxes),
      options_(options) {
  if (options_.num_groups == 0 || options_.group >= options_.num_groups) {
    throw core::TFluxError("TsuEmulator: bad group configuration");
  }
  if (mailboxes_.empty()) {
    throw core::TFluxError("TsuEmulator: no kernels");
  }
  if (options_.shard_map != nullptr &&
      (options_.shard_map->num_shards() != options_.num_groups ||
       options_.shard_map->num_kernels() != mailboxes_.size())) {
    throw core::TFluxError("TsuEmulator: shard map / group geometry mismatch");
  }
  for (core::KernelId k = 0;
       k < static_cast<core::KernelId>(mailboxes_.size()); ++k) {
    if (owns_kernel(k)) my_kernels_.push_back(k);
  }
  if (my_kernels_.empty()) {
    throw core::TFluxError(
        "TsuEmulator: group " + std::to_string(options_.group) +
        " owns no kernels (more TSU groups than kernels)");
  }
  low_water_ = options_.prefetch_low_water != 0
                   ? options_.prefetch_low_water
                   : static_cast<std::uint32_t>(2 * my_kernels_.size());
  if (options_.trace) {
    trace_lane_ = options_.trace->emulator_lane(options_.group);
  }
  // Guard lanes follow the TraceLog convention: kernels first, then
  // one lane per emulator group.
  guard_ = GuardHook{options_.guard,
                     static_cast<std::uint16_t>(mailboxes_.size() +
                                                options_.group)};
  fault_ = options_.fault;
}

void TsuEmulator::account_dataplane(core::ThreadId tid,
                                    core::KernelId target) {
  if (options_.dataplane == nullptr ||
      !table_.is_application(tid)) {
    return;
  }
  const core::DataPlane::DispatchAccount account =
      options_.dataplane->account_dispatch(tid, target);
  if (account.cold) {
    ++stats_.affinity_cold;
  } else if (account.hit) {
    ++stats_.affinity_hits;
  } else {
    ++stats_.affinity_misses;
  }
  stats_.cross_shard_bytes += account.cross_shard_bytes;
}

void TsuEmulator::dispatch(core::ThreadId tid) {
  if (fault_ != nullptr && fault_->swallow && tid == fault_->victim) {
    // kLostUpdate second half: the victim was already dispatched one
    // update early; its real zero-dispatch is dropped here so the run
    // still delivers exactly one dispatch.
    fault_->swallow = false;
    return;
  }
  // The consumer's home kernel belongs to this group by construction
  // (the TubGroup routed the update here via the TKT).
  const core::KernelId home = sm_.tkt(tid).kernel;
  assert(owns_kernel(home));

  core::KernelId target = home;
  switch (options_.policy) {
    case core::PolicyKind::kLocality:
      // Prefer the home kernel if it is hungry; otherwise any hungry
      // kernel of this group; otherwise queue at home.
      if (!mailboxes_[home].probably_empty()) {
        for (core::KernelId k : my_kernels_) {
          if (k != home && mailboxes_[k].probably_empty()) {
            target = k;
            break;
          }
        }
      }
      break;
    case core::PolicyKind::kAdaptive:
      // Keep spatial locality while the home backlog is shallow;
      // beyond the threshold, hand the DThread to the least-loaded
      // owned kernel (relaxed occupancy reads - a heuristic, so a
      // stale depth only costs placement, never correctness).
      if (mailboxes_[home].size() > options_.adaptive_backlog) {
        std::size_t best = mailboxes_[home].size();
        for (core::KernelId k : my_kernels_) {
          const std::size_t depth = mailboxes_[k].size();
          if (depth < best) {
            best = depth;
            target = k;
          }
        }
      }
      break;
    case core::PolicyKind::kHier: {
      // kAdaptive within the shard, then escalate: while the home
      // backlog is shallow the DThread stays put; overflow tries
      // sibling kernels of this shard; and only when the whole shard
      // is backlogged may the dispatch be delegated to a remote shard.
      if (mailboxes_[home].size() > options_.adaptive_backlog) {
        std::size_t best = mailboxes_[home].size();
        for (core::KernelId k : my_kernels_) {
          const std::size_t depth = mailboxes_[k].size();
          if (depth < best) {
            best = depth;
            target = k;
          }
        }
        if (best > options_.adaptive_backlog && try_delegate(tid, best)) {
          // Granted away: the receiver dispatches (and counts); the
          // partition slot is still this group's to account.
          if (table_.block(tid) == my_block_ &&
              partition_outstanding_ > 0) {
            --partition_outstanding_;
            maybe_prefetch();
          }
          return;
        }
      }
      break;
    }
    case core::PolicyKind::kAffinity: {
      // Data-plane placement: put the consumer where the largest share
      // of its input bytes is warm, as long as that kernel is owned
      // here and not backlogged *relative to* the shallowest owned
      // mailbox (block activations burst-fill every mailbox, so an
      // absolute depth check would reject affinity exactly when the
      // whole first wave lands; slack = adaptive_backlog). A cold
      // score, a foreign-shard winner, or a missing DataPlane
      // (--no-dataplane) falls back to the kHier ladder.
      std::size_t shallowest = mailboxes_[home].size();
      for (core::KernelId k : my_kernels_) {
        shallowest = std::min(shallowest, mailboxes_[k].size());
      }
      bool placed = false;
      if (options_.dataplane != nullptr &&
          table_.is_application(tid)) {
        const core::AffinityScore s = options_.dataplane->score(tid);
        if (s.total_bytes > 0 &&
            s.best < static_cast<core::KernelId>(mailboxes_.size()) &&
            owns_kernel(s.best) &&
            mailboxes_[s.best].size() <=
                shallowest + options_.adaptive_backlog) {
          target = s.best;
          placed = true;
        }
      }
      if (!placed && mailboxes_[home].size() > options_.adaptive_backlog) {
        std::size_t best = mailboxes_[home].size();
        for (core::KernelId k : my_kernels_) {
          const std::size_t depth = mailboxes_[k].size();
          if (depth < best) {
            best = depth;
            target = k;
          }
        }
        if (best > options_.adaptive_backlog && try_delegate(tid, best)) {
          if (table_.block(tid) == my_block_ &&
              partition_outstanding_ > 0) {
            --partition_outstanding_;
            maybe_prefetch();
          }
          return;
        }
      }
      break;
    }
    case core::PolicyKind::kFifo:
      // Round-robin over the group's kernels.
      target = my_kernels_[rr_next_];
      rr_next_ = (rr_next_ + 1) % my_kernels_.size();
      break;
  }
  ++stats_.dispatches;
  if (guard_.guard != nullptr) {
    guard_.dispatch(tid, guard_.deep(table_.block(tid)));
  }
  if (target == home) {
    ++stats_.home_dispatches;
  } else if (options_.policy != core::PolicyKind::kFifo) {
    ++stats_.steal_dispatches;
    if (options_.policy == core::PolicyKind::kHier ||
        options_.policy == core::PolicyKind::kAffinity) {
      ++stats_.steal_local;
    }
  }
  account_dataplane(tid, target);
  // Recorded before the id is staged: the Dispatch clock is published
  // before the mailbox handoff, so it precedes the receiving kernel's
  // Complete.
  if (options_.trace) {
    options_.trace->record(trace_lane_, core::TraceEvent::kDispatch, tid,
                           target);
  }
  stage(target, tid);

  if (table_.block(tid) == my_block_ &&
      partition_outstanding_ > 0) {
    --partition_outstanding_;
    maybe_prefetch();
  }
}

bool TsuEmulator::try_delegate(core::ThreadId tid, std::size_t local_best) {
  // Inlets/Outlets stay home (block chaining assumes their kernel
  // round trip), and fault-injection runs keep every dispatch local so
  // the armed victim's early-dispatch/swallow pair stays in one
  // emulator.
  if (options_.shard_map == nullptr || options_.num_groups <= 1 ||
      fault_ != nullptr || !table_.is_application(tid)) {
    return false;
  }
  // Least-loaded remote shard (shallowest mailbox, relaxed reads; ties
  // break to the lowest shard id). Depth is a placement heuristic only
  // - a stale read costs balance, never correctness. In-flight grants
  // sit in the victim's TUB ring, not its mailboxes, so they are added
  // back explicitly; otherwise a burst keeps seeing a remote shard as
  // idle and delegates its whole backlog.
  std::uint16_t victim = options_.num_groups;
  std::size_t remote_min = local_best;
  for (std::uint16_t g = 0; g < options_.num_groups; ++g) {
    if (g == options_.group) continue;
    std::size_t g_min = remote_min;
    for (core::KernelId k : options_.shard_map->kernels(g)) {
      g_min = std::min(g_min, mailboxes_[k].size());
    }
    g_min += tubs_.pending_steal_grants(g);
    if (g_min < remote_min) {
      remote_min = g_min;
      victim = g;
    }
  }
  if (victim == options_.num_groups ||
      local_best < remote_min + options_.steal_threshold) {
    return false;
  }
  ++stats_.steal_remote;
  if (options_.trace) options_.trace->publish(trace_lane_);
  // Published on this emulator's dedicated lane (kernel lanes are SPSC
  // and owned by their kernels).
  tubs_.publish_steal_grant(
      victim, tid,
      static_cast<std::uint32_t>(mailboxes_.size() + options_.group));
  return true;
}

void TsuEmulator::dispatch_steal_grant(core::ThreadId tid) {
  tubs_.steal_grant_consumed(options_.group);
  ++stats_.steals_in;
  ++stats_.dispatches;
  // Epoch accounting happens on this emulator's guard lane; the TUB
  // ring's release/acquire pair orders it after the delegator's update
  // accounting.
  if (guard_.guard != nullptr) {
    guard_.dispatch(tid, guard_.deep(table_.block(tid)));
  }
  core::KernelId target = my_kernels_.front();
  std::size_t best = mailboxes_[target].size();
  for (core::KernelId k : my_kernels_) {
    const std::size_t depth = mailboxes_[k].size();
    if (depth < best) {
      best = depth;
      target = k;
    }
  }
  ++stats_.steal_dispatches;
  account_dataplane(tid, target);
  if (options_.trace) {
    options_.trace->record(trace_lane_, core::TraceEvent::kDispatch, tid,
                           target);
  }
  stage(target, tid);
}

void TsuEmulator::stage(core::KernelId target, core::ThreadId tid) {
  mailboxes_[target].stage(tid, [this] {
    if (options_.trace) options_.trace->publish(trace_lane_);
  });
}

void TsuEmulator::flush_outboxes() {
  // One clock store covers every outbox this flush publishes.
  if (options_.trace) options_.trace->publish(trace_lane_);
  for (core::KernelId k : my_kernels_) mailboxes_[k].flush();
}

void TsuEmulator::maybe_prefetch() {
  if (!options_.block_pipeline || my_block_ == core::kInvalidBlock) return;
  const auto next = static_cast<core::BlockId>(my_block_ + 1);
  if (next >= program_.num_blocks()) return;
  if (sm_.shadow_block(options_.group) == next) return;  // already staged
  if (partition_outstanding_ > low_water_) return;
  sm_.preload_shadow(next, options_.group, options_.num_groups);
}

std::size_t TsuEmulator::range_decrement(bool shadow, core::ThreadId lo,
                                         core::ThreadId hi) {
  if (guard_.guard != nullptr &&
      guard_.deep(table_.block(lo))) {
    // Deep-checked block: account every owned member before touching
    // the SM, so a surplus update (e.g. a duplicated publish) trips
    // negative-ready-count instead of underflowing a counter.
    guard_members_.clear();
    sm_.collect_owned(lo, hi, options_.group, options_.num_groups,
                      guard_members_);
    guard_ok_.clear();
    for (core::ThreadId m : guard_members_) {
      if (guard_.update_applied(m)) guard_ok_.push_back(m);
    }
    if (guard_ok_.size() != guard_members_.size()) {
      // Containment: sweep only the healthy members, unit-wise.
      for (core::ThreadId m : guard_ok_) {
        const bool zero =
            shadow ? sm_.decrement_shadow(m, options_.thread_indexing,
                                          &stats_.sm_search_steps)
                   : sm_.decrement(m, options_.thread_indexing,
                                   &stats_.sm_search_steps);
        if (zero) zeroed_.push_back(m);
      }
      return guard_ok_.size();
    }
  }
  return shadow ? sm_.decrement_range_shadow(lo, hi, options_.group,
                                             options_.num_groups, zeroed_)
                : sm_.decrement_range(lo, hi, options_.group,
                                      options_.num_groups, zeroed_);
}

void TsuEmulator::maybe_inject_lost_update(bool shadow, core::ThreadId lo,
                                           core::ThreadId hi) {
  if (fault_ == nullptr ||
      !fault_->is(FaultInjection::Kind::kLostUpdate)) {
    return;
  }
  const core::ThreadId victim = fault_->victim;
  if (victim < lo || victim > hi ||
      !owns_kernel(sm_.tkt(victim).kernel)) {
    return;
  }
  const std::uint32_t count =
      shadow ? sm_.shadow_count(victim) : sm_.count(victim);
  if (count > 0 && fault_->fire()) {
    // Dispatch the victim one update early; the dispatch its real
    // zero will produce is swallowed (dispatch() checks the flag
    // first), so exactly one dispatch still happens.
    dispatch(victim);
    if (shadow) ++shadow_predispatched_;
    fault_->swallow = true;
  }
}

bool TsuEmulator::handle_update(const TubEntry& entry) {
  const auto tid = static_cast<core::ThreadId>(entry.id);
  const bool range = entry.kind == TubEntry::Kind::kRangeUpdate;
  // A range never crosses DDM Blocks (consumer runs are same-block by
  // construction), so its low member locates the whole record.
  const core::BlockId block = table_.block(tid);
  if (block == my_block_) {
    if (range) {
      // Vectorized bulk decrement: one contiguous SM sweep per owned
      // kernel instead of one TKT lookup per member.
      zeroed_.clear();
      const std::size_t n = range_decrement(
          /*shadow=*/false, tid, static_cast<core::ThreadId>(entry.hi));
      stats_.updates_processed += n;
      ++stats_.range_updates_processed;
      stats_.range_members += n;
      for (core::ThreadId z : zeroed_) dispatch(z);
      maybe_inject_lost_update(/*shadow=*/false, tid,
                               static_cast<core::ThreadId>(entry.hi));
    } else {
      if (!guard_.update_applied(tid)) return true;  // underflow shield
      ++stats_.updates_processed;
      if (sm_.decrement(tid, options_.thread_indexing,
                        &stats_.sm_search_steps)) {
        dispatch(tid);
      } else {
        maybe_inject_lost_update(/*shadow=*/false, tid, tid);
      }
    }
    return true;
  }
  if (options_.block_pipeline) {
    // An update can only race one block ahead of this group: a DThread
    // of block b+1 is dispatchable only after OutletDone(b), i.e.
    // after every group (this one included) finished block b's
    // updates. Apply it to the shadow generation, staging it first if
    // the low-water prefetch has not fired yet.
    const auto next = my_block_ == core::kInvalidBlock
                          ? static_cast<core::BlockId>(0)
                          : static_cast<core::BlockId>(my_block_ + 1);
    if (block == next && next < program_.num_blocks()) {
      if (sm_.shadow_block(options_.group) != next) {
        sm_.preload_shadow(next, options_.group, options_.num_groups);
      }
      if (range) {
        zeroed_.clear();
        const std::size_t n = range_decrement(
            /*shadow=*/true, tid, static_cast<core::ThreadId>(entry.hi));
        stats_.updates_processed += n;
        ++stats_.range_updates_processed;
        stats_.range_members += n;
        for (core::ThreadId z : zeroed_) {
          if (options_.trace) {
            options_.trace->record(trace_lane_,
                                   core::TraceEvent::kShadowDecrement, z, 1);
          }
          dispatch(z);
          ++shadow_predispatched_;
        }
        maybe_inject_lost_update(/*shadow=*/true, tid,
                                 static_cast<core::ThreadId>(entry.hi));
        return true;
      }
      if (!guard_.update_applied(tid)) return true;  // underflow shield
      ++stats_.updates_processed;
      const bool zero = sm_.decrement_shadow(tid, options_.thread_indexing,
                                             &stats_.sm_search_steps);
      if (options_.trace) {
        options_.trace->record(trace_lane_,
                               core::TraceEvent::kShadowDecrement, tid,
                               zero ? 1 : 0);
      }
      if (zero) {
        dispatch(tid);
        ++shadow_predispatched_;
      } else {
        maybe_inject_lost_update(/*shadow=*/true, tid, tid);
      }
      return true;
    }
  }
  // Raced ahead of a block this group cannot account yet (only
  // possible with several TSU groups); defer until activation. The
  // entry is stored whole, so deferred ranges replay as ranges. A
  // legitimate defer is always *ahead* of the current block - one for
  // a block this group already moved past is a stale generation.
  if (my_block_ != core::kInvalidBlock && block < my_block_) {
    guard_.stale_apply(tid, core::kInvalidThread, block);
  }
  deferred_updates_.push_back(entry);
  return false;
}

void TsuEmulator::activate_block(core::BlockId block, bool dispatch_inlet) {
  const core::Block& blk = program_.block(block);
  // Activation recorded before any of the block's dispatches.
  if (options_.trace) {
    options_.trace->record(trace_lane_,
                           options_.block_pipeline
                               ? core::TraceEvent::kBlockPromote
                               : core::TraceEvent::kInletLoad,
                           block, options_.group);
  }
  guard_.activate(block, options_.group);
  if (options_.block_pipeline) {
    if (sm_.shadow_block(options_.group) == block) {
      ++stats_.prefetch_hits;
    } else {
      ++stats_.prefetch_misses;
      sm_.preload_shadow(block, options_.group, options_.num_groups);
    }
    sm_.promote_shadow(options_.group, options_.num_groups);
  } else {
    sm_.load_block_partition(block, options_.group, options_.num_groups);
  }
  my_block_ = block;
  ++stats_.blocks_loaded;
  partition_outstanding_ =
      sm_.partition_slots(block, options_.group, options_.num_groups);
  // DThreads already delivered through the shadow path are not
  // outstanding anymore.
  partition_outstanding_ -=
      std::min(partition_outstanding_, shadow_predispatched_);
  shadow_predispatched_ = 0;

  if (dispatch_inlet) dispatch(blk.inlet);
  for (core::ThreadId tid : blk.app_threads) {
    if (table_.ready_count_init(tid) == 0 &&
        owns_kernel(sm_.tkt(tid).kernel)) {
      dispatch(tid);
    }
  }
  // Replay updates that arrived ahead of this activation.
  std::vector<TubEntry> pending;
  pending.swap(deferred_updates_);
  for (const TubEntry& u : pending) {
    if (handle_update(u)) ++stats_.deferred_replays;
  }
  maybe_prefetch();
}

void TsuEmulator::run() {
  if (options_.block_pipeline) {
    // Stage block 0 before anything executes, so the coordinator's
    // activation (and every other group's first LoadBlock) is a hit.
    sm_.preload_shadow(0, options_.group, options_.num_groups);
  }
  if (options_.group == 0) {
    if (options_.block_pipeline) {
      // Arm the program: activate block 0 and dispatch its first wave
      // together with the Inlet (which now only does accounting - its
      // SM load became the flip above).
      activate_block(0, /*dispatch_inlet=*/true);
    } else {
      // Arm the program: the first block's Inlet (homed on kernel 0,
      // which group 0 always owns).
      dispatch(program_.block(0).inlet);
    }
    flush_outboxes();
  }

  std::vector<TubEntry> buf;
  for (;;) {
    tub_.wait_nonempty();
    buf.clear();
    if (tub_.drain(buf) == 0) continue;
    if (options_.trace) options_.trace->receive(trace_lane_);
    ++stats_.drain_sweeps;
    for (const TubEntry& e : buf) {
      switch (e.kind) {
        case TubEntry::Kind::kLoadBlock: {
          const auto block = static_cast<core::BlockId>(e.id);
          // In pipelined mode the Inlet is pure accounting, so nothing
          // orders its broadcast before the block's OutletDone: a
          // backlogged Inlet of block b may land after the coordinator
          // already chained past b. Any broadcast at or behind the
          // current block is stale; re-activating would re-dispatch
          // that block's first wave.
          if (options_.block_pipeline &&
              my_block_ != core::kInvalidBlock && block <= my_block_) {
            break;
          }
          activate_block(block, /*dispatch_inlet=*/false);
          break;
        }
        case TubEntry::Kind::kUpdate:
        case TubEntry::Kind::kRangeUpdate: {
          handle_update(e);
          break;
        }
        case TubEntry::Kind::kStealGrant: {
          dispatch_steal_grant(static_cast<core::ThreadId>(e.id));
          break;
        }
        case TubEntry::Kind::kOutletDone: {
          // Routed to group 0 only (the block-chaining coordinator).
          assert(options_.group == 0);
          const auto block = static_cast<core::BlockId>(e.id);
          // Retire before chaining: any update published to this block
          // from here on is provably stale.
          guard_.retire(block);
          const auto next = static_cast<core::BlockId>(block + 1);
          if (next < program_.num_blocks()) {
            if (options_.block_pipeline) {
              // Coordinator fast path: flip to the (pre)staged next
              // block and push its first wave right now, instead of
              // waiting a full kernel round trip for the Inlet.
              activate_block(next, /*dispatch_inlet=*/true);
            } else {
              dispatch(program_.block(next).inlet);
            }
          } else {
            // Program finished: every emulator (including this one)
            // receives the shutdown through its TUB.
            if (options_.trace) options_.trace->publish(trace_lane_);
            tubs_.broadcast_shutdown();
          }
          break;
        }
        case TubEntry::Kind::kShutdown: {
          // The sentinel rides behind whatever the outbox still holds.
          for (core::KernelId k : my_kernels_) {
            stage(k, core::kInvalidThread);
          }
          flush_outboxes();
          return;
        }
      }
    }
    // End of the sweep: publish every partly filled outbox before
    // waiting on the TUB again, so no ready DThread is held back.
    flush_outboxes();
  }
}

}  // namespace tflux::runtime
