#include "core/dataplane.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace tflux::core {

std::uint64_t footprint_overlap_bytes(const Footprint& producer,
                                      const Footprint& consumer) {
  std::uint64_t total = 0;
  for (const MemRange& w : producer.ranges) {
    // Zero-byte ranges are legal (the verifier warns) but carry no
    // payload; skip them so forwarding never sees a zero-length copy.
    if (!w.write || w.bytes == 0) continue;
    const SimAddr wend = w.addr + w.bytes;
    if (wend < w.addr) continue;  // wrapping range (verifier warns)
    for (const MemRange& r : consumer.ranges) {
      if (r.write || r.bytes == 0) continue;
      const SimAddr rend = r.addr + r.bytes;
      if (rend < r.addr) continue;
      const SimAddr lo = std::max(w.addr, r.addr);
      const SimAddr hi = std::min(wend, rend);
      if (hi > lo) total += hi - lo;
    }
  }
  return total;
}

namespace {

/// Rows built in emission order: (row, item) pairs in any row order.
template <typename T>
using RowItems = std::vector<std::pair<ThreadId, T>>;

/// Stable counting sort of `items` into `rows` rows: each row keeps its
/// items in emission order.
template <typename T>
CsrRows<T> to_csr(std::uint32_t rows, const RowItems<T>& items) {
  CsrRows<T> csr;
  csr.off.assign(std::size_t{rows} + 1, 0);
  for (const auto& [row, item] : items) ++csr.off[row + 1];
  for (std::uint32_t r = 0; r < rows; ++r) csr.off[r + 1] += csr.off[r];
  csr.flat.resize(items.size());
  std::vector<std::uint32_t> fill(csr.off.begin(), csr.off.end() - 1);
  for (const auto& [row, item] : items) csr.flat[fill[row]++] = item;
  return csr;
}

}  // namespace

DataPlaneTables::DataPlaneTables(const Program& program) {
  auto overlap = [&program](ThreadId p, ThreadId c) -> std::uint64_t {
    const DThread& pt = program.thread(p);
    const DThread& ct = program.thread(c);
    if (!pt.is_application() || !ct.is_application()) return 0;
    return footprint_overlap_bytes(pt.footprint, ct.footprint);
  };
  RowItems<Contribution> contributions;
  RowItems<ForwardRun> forwards;
  RowItems<ForwardRun> unit_forwards;

  // Same-block arcs: consumer lists and the builder's consumer runs.
  for (const DThread& t : program.threads()) {
    if (!t.is_application()) continue;
    for (const DThread::ConsumerRun& run : t.consumer_runs) {
      std::uint64_t bytes = 0;
      for (ThreadId c = run.lo; c <= run.hi; ++c) bytes += overlap(t.id, c);
      if (bytes > 0) forwards.push_back({t.id, {run.lo, run.hi, bytes}});
    }
    for (ThreadId c : t.consumers) {
      const std::uint64_t b = overlap(t.id, c);
      if (b == 0) continue;
      contributions.push_back({c, {t.id, b}});
      unit_forwards.push_back({t.id, {c, c, b}});
    }
  }

  // Cross-block arcs reach the TSU only as the block barrier, but the
  // data they imply still moves; batch them like the same-block runs:
  // maximal consecutive-id runs, split at consumer block boundaries
  // (a forward never spans two block activations).
  std::vector<CrossBlockArc> xarcs = program.cross_block_arcs();
  std::sort(xarcs.begin(), xarcs.end(),
            [](const CrossBlockArc& a, const CrossBlockArc& b) {
              return a.producer != b.producer ? a.producer < b.producer
                                              : a.consumer < b.consumer;
            });
  xarcs.erase(std::unique(xarcs.begin(), xarcs.end()), xarcs.end());
  std::vector<ThreadId> cs;
  std::vector<std::uint64_t> bytes;
  for (std::size_t first = 0; first < xarcs.size();) {
    const ThreadId p = xarcs[first].producer;
    cs.clear();
    for (; first < xarcs.size() && xarcs[first].producer == p; ++first) {
      cs.push_back(xarcs[first].consumer);
    }
    bytes.assign(cs.size(), 0);
    for (std::size_t i = 0; i < cs.size(); ++i) {
      bytes[i] = overlap(p, cs[i]);
      if (bytes[i] == 0) continue;
      contributions.push_back({cs[i], {p, bytes[i]}});
      unit_forwards.push_back({p, {cs[i], cs[i], bytes[i]}});
    }
    std::size_t i = 0;
    while (i < cs.size()) {
      std::size_t j = i;
      std::uint64_t run_bytes = bytes[i];
      while (j + 1 < cs.size() && cs[j + 1] == cs[j] + 1 &&
             program.thread(cs[j + 1]).block == program.thread(cs[i]).block) {
        ++j;
        run_bytes += bytes[j];
      }
      if (run_bytes > 0) forwards.push_back({p, {cs[i], cs[j], run_bytes}});
      i = j + 1;
    }
  }
  contributions_ = to_csr(program.num_threads(), contributions);
  forwards_ = to_csr(program.num_threads(), forwards);
  unit_forwards_ = to_csr(program.num_threads(), unit_forwards);
}

DataPlane::DataPlane(const Program& program, const ShardMap* shards)
    : program_(program),
      tables_(program.dataplane_tables()),
      shards_(shards),
      exec_kernel_(new std::atomic<KernelId>[program.num_threads()]) {
  rewind();
}

void DataPlane::rewind() {
  for (ThreadId t = 0; t < program_.num_threads(); ++t) {
    exec_kernel_[t].store(kInvalidKernel, std::memory_order_relaxed);
  }
}

namespace {

/// Warm bytes per kernel for one consumer, deduplicated into a small
/// touched list (consumers have few producers; linear scan beats a
/// full per-kernel array reset).
using WarmList = std::vector<std::pair<KernelId, std::uint64_t>>;

void collect_warm(std::span<const Contribution> contribs,
                  const std::atomic<KernelId>* exec, WarmList& touched) {
  touched.clear();
  for (const Contribution& c : contribs) {
    const KernelId k = exec[c.producer].load(std::memory_order_relaxed);
    if (k == kInvalidKernel) continue;
    bool found = false;
    for (auto& e : touched) {
      if (e.first == k) {
        e.second += c.bytes;
        found = true;
        break;
      }
    }
    if (!found) touched.emplace_back(k, c.bytes);
  }
}

}  // namespace

AffinityScore DataPlane::score(ThreadId consumer) const {
  const std::span<const Contribution> contribs =
      tables_.contributions(consumer);
  if (contribs.empty()) return {};  // no input bytes: cold
  static thread_local WarmList touched;
  collect_warm(contribs, exec_kernel_.get(), touched);
  AffinityScore s;
  for (const auto& [k, b] : touched) {
    s.total_bytes += b;
    if (b > s.best_bytes || (b == s.best_bytes && b > 0 && k < s.best)) {
      s.best = k;
      s.best_bytes = b;
    }
  }
  return s;
}

DataPlane::DispatchAccount DataPlane::account_dispatch(ThreadId consumer,
                                                       KernelId target) const {
  const std::span<const Contribution> contribs =
      tables_.contributions(consumer);
  DispatchAccount account;
  if (contribs.empty()) {  // no input bytes: cold
    account.cold = true;
    return account;
  }
  static thread_local WarmList touched;
  collect_warm(contribs, exec_kernel_.get(), touched);
  std::uint64_t target_bytes = 0;
  std::uint64_t max_bytes = 0;
  std::uint64_t total = 0;
  for (const auto& [k, b] : touched) {
    total += b;
    max_bytes = std::max(max_bytes, b);
    if (k == target) target_bytes = b;
    if (shards_ != nullptr && !shards_->same_shard(k, target)) {
      account.cross_shard_bytes += b;
    }
  }
  if (total == 0) {
    account.cold = true;
    account.cross_shard_bytes = 0;
    return account;
  }
  account.hit = target_bytes == max_bytes;  // ties count as hits
  return account;
}

}  // namespace tflux::core
