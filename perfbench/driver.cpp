// The repository benchmark driver. It runs one named workload against
// the library's public API (apps::build_app, runtime::Runtime,
// runtime::Executor, core::ReferenceScheduler, core::check_trace),
// checks every result, and prints one JSON object on its last line.
// perfbench/run.py builds it, adds host provenance and prints the
// metrics; perfbench/METRICS.md is the metric catalog.
//
//   perfbench_driver --workload checked_fine --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with no instrumentation.
// --trace 1 is the separate traced run: it records the benchmark's own
// spans around every public call it makes (kept in memory, written as
// Chrome trace JSON at the end), reads the public stats structs, and
// reports the per-layer metrics plus the tracing overhead.
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/suite.h"
#include "core/check.h"
#include "core/ddmtrace.h"
#include "core/executor.h"
#include "core/guard.h"
#include "core/scheduler.h"
#include "runtime/executor.h"
#include "runtime/runtime.h"

namespace {

using Clock = std::chrono::steady_clock;
using tflux::apps::AppKind;
using tflux::apps::AppRun;
using tflux::apps::SizeClass;
namespace apps = tflux::apps;
namespace core = tflux::core;
namespace runtime = tflux::runtime;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile, the rule core::LatencyRecorder uses.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ---------------------------------------------------------------------------
// Spans: the benchmark's own trace around each public call it makes.
// ---------------------------------------------------------------------------

struct Span {
  const char* name = "";
  const char* layer = "";
  std::uint64_t id = 0;       ///< run / request id; 0 = set-up
  std::int64_t parent = -1;   ///< index of the enclosing span, -1 = root
  Clock::time_point start{};
  Clock::time_point end{};
  std::uint32_t thread = 0;
};

/// In-memory span store. Disabled logs record nothing and cost one
/// branch per call; enabled ones take a mutex (the serving workload
/// records from the generator and the collector thread).
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  std::int64_t begin(const char* name, const char* layer, std::uint64_t id,
                     std::int64_t parent = -1) {
    if (!enabled_) return -1;
    const Clock::time_point now = Clock::now();
    return add(name, layer, id, parent, now, now);
  }

  void end(std::int64_t index) {
    if (index < 0) return;
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(index)].end = now;
  }

  /// A span whose bounds were timed elsewhere (the executor's own
  /// RunResult timestamps).
  std::int64_t add(const char* name, const char* layer, std::uint64_t id,
                   std::int64_t parent, Clock::time_point start,
                   Clock::time_point end) {
    if (!enabled_) return -1;
    const auto thread = static_cast<std::uint32_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000);
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, layer, id, parent, start, end, thread});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  struct LayerSelf {
    double ms = 0.0;           ///< summed self time
    std::set<std::uint64_t> ids;  ///< operations that entered the layer
  };

  /// Self time (duration minus the union of its child spans) summed
  /// per layer, over spans of operations (id >= 1; set-up is id 0).
  std::map<std::string, LayerSelf> self_by_layer() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<std::size_t>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) {
        children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
      }
    }
    std::map<std::string, LayerSelf> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.id == 0) continue;
      std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
      for (std::size_t c : children[i]) {
        const auto lo = std::max(spans_[c].start, s.start);
        const auto hi = std::min(spans_[c].end, s.end);
        if (lo < hi) cover.emplace_back(lo, hi);
      }
      std::sort(cover.begin(), cover.end());
      double covered = 0.0;
      Clock::time_point reach = s.start;
      for (const auto& [lo, hi] : cover) {
        const auto from = std::max(lo, reach);
        if (hi > from) {
          covered += ms_between(from, hi);
          reach = hi;
        }
      }
      LayerSelf& layer = self[s.layer];
      layer.ms += ms_between(s.start, s.end) - covered;
      layer.ids.insert(s.id);
    }
    return self;
  }

  /// Chrome trace JSON ("X" events; args carry id and parent).
  void write_chrome(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double ts =
          std::chrono::duration<double, std::micro>(s.start - origin_).count();
      const double dur =
          std::chrono::duration<double, std::micro>(s.end - s.start).count();
      out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name
          << "\",\"cat\":\"" << s.layer << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
          << s.thread << ",\"ts\":" << ts << ",\"dur\":" << dur
          << ",\"args\":{\"span\":" << i << ",\"id\":" << s.id
          << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
  }

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  Clock::time_point origin_ = Clock::now();
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, const char* layer,
             std::uint64_t id, std::int64_t parent = -1)
      : log_(log), index_(log.begin(name, layer, id, parent)) {}
  ~ScopedSpan() { log_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int64_t index() const { return index_; }

 private:
  SpanLog& log_;
  std::int64_t index_;
};

/// Cost of recording one span (begin + end), timed on a throwaway log.
double span_cost_ns() {
  SpanLog probe(true);
  constexpr int kSpans = 20000;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    probe.end(probe.begin("probe", "bench", 1));
  }
  return ms_between(t0, Clock::now()) * 1e6 / kSpans;
}

// ---------------------------------------------------------------------------
// Result assembly.
// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// BENCHMARK.json's end_to_end metrics (run.py checks the two agree).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"run_ms_p50", "ms"},
    {"run_ms_p90", "ms"},
    {"serve_p50_ms", "ms"},
    {"serve_p90_ms", "ms"},
    {"serve_goodput_rps", "1/s"},
    {"peak_rss_mb", "MiB"},
};

/// BENCHMARK.json's per_layer metrics. Every workload reports all of
/// them; a metric of a layer the workload does not exercise reads 0.
constexpr MetricDef kPerLayer[] = {
    {"apps.build_ms", "ms"},
    {"apps.validate_ms", "ms"},
    {"apps.reset_ms", "ms"},
    {"core.reference_ms", "ms"},
    {"runtime.ctor_ms", "ms"},
    {"runtime.efficiency", "ratio"},
    {"runtime.ns_per_dthread", "ns"},
    {"runtime.frame_ms", "ms"},
    {"emulator.updates_processed", "count"},
    {"emulator.dispatches", "count"},
    {"emulator.home_frac", "ratio"},
    {"emulator.steal_dispatches", "count"},
    {"emulator.blocks_loaded", "count"},
    {"emulator.prefetch_hit_frac", "ratio"},
    {"emulator.deferred_replays", "count"},
    {"emulator.drain_sweeps", "count"},
    {"emulator.updates_per_sweep", "ratio"},
    {"tub.publishes", "count"},
    {"tub.entries_per_publish", "ratio"},
    {"tub.full_skip_frac", "ratio"},
    {"tub.trylock_failures", "count"},
    {"kernel.app_threads", "count"},
    {"kernel.imbalance", "ratio"},
    {"kernel.mailbox_backlog_peak", "count"},
    {"dataplane.forwards", "count"},
    {"dataplane.bytes_forwarded", "B"},
    {"dataplane.affinity_hit_frac", "ratio"},
    {"dataplane.cross_shard_bytes", "B"},
    {"executor.queue_ms_p50", "ms"},
    {"executor.service_ms_p50", "ms"},
    {"executor.service_ms_p99", "ms"},
    {"executor.client_late_ms_p99", "ms"},
    {"executor.submit_us_p99", "us"},
    {"executor.queue_depth_peak", "count"},
    {"executor.fairness_ratio", "ratio"},
    {"trace.records", "count"},
    {"trace.run_overhead_ms", "ms"},
    {"guard.checks", "count"},
    {"guard.violations", "count"},
    {"check.replay_ms", "ms"},
    {"check.ns_per_record", "ns"},
    {"check.findings", "count"},
    {"span.bench.self_ms", "ms"},
    {"span.apps.self_ms", "ms"},
    {"span.core.reference.self_ms", "ms"},
    {"span.runtime.self_ms", "ms"},
    {"span.runtime.executor.self_ms", "ms"},
    {"span.core.check.self_ms", "ms"},
    {"span.count", "count"},
    {"span.cost_us_per_op", "us"},
    {"span.overhead_frac", "ratio"},
};

/// Metric values by name, filled by a workload.
using Values = std::map<std::string, double>;

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream s;
  s.precision(17);
  s << v;
  return s.str();
}

std::string json_string(const std::string& v) {
  std::string out = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Per-run counter ranges, to show which counters repeat exactly.
class CounterBook {
 public:
  void add(const std::string& name, std::uint64_t v) {
    auto [it, fresh] = ranges_.try_emplace(name, v, v);
    if (!fresh) {
      it->second.first = std::min(it->second.first, v);
      it->second.second = std::max(it->second.second, v);
    }
  }
  const std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>&
  ranges() const {
    return ranges_;
  }

 private:
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> ranges_;
};

/// The counters the benchmark declares deterministic: for one program
/// they repeat exactly across runs and seeds. Every other counter in a
/// CounterBook depends on thread placement and timing.
const std::set<std::string>& deterministic_counters() {
  static const std::set<std::string> names = {
      "kernel.app_threads",       "kernel.threads_executed",
      "emulator.updates_processed", "emulator.dispatches",
      "emulator.blocks_loaded",   "dataplane.forwards",
      "dataplane.bytes_forwarded",
  };
  return names;
}

/// The per-run counters read from one RuntimeStats.
std::vector<std::pair<std::string, std::uint64_t>> run_counters(
    const runtime::RuntimeStats& st) {
  std::uint64_t threads = 0, forwards = 0, bytes = 0, backlog = 0;
  for (const runtime::KernelStats& k : st.kernels) {
    threads += k.threads_executed;
    forwards += k.forwards;
    bytes += k.bytes_forwarded;
    backlog = std::max(backlog, k.mailbox_backlog_peak);
  }
  const runtime::EmulatorStats& e = st.emulator;
  return {
      {"kernel.app_threads", st.total_app_threads_executed()},
      {"kernel.threads_executed", threads},
      {"kernel.mailbox_backlog_peak", backlog},
      {"emulator.updates_processed", e.updates_processed},
      {"emulator.dispatches", e.dispatches},
      {"emulator.home_dispatches", e.home_dispatches},
      {"emulator.steal_dispatches", e.steal_dispatches},
      {"emulator.blocks_loaded", e.blocks_loaded},
      {"emulator.drain_sweeps", e.drain_sweeps},
      {"emulator.prefetch_hits", e.prefetch_hits},
      {"emulator.prefetch_misses", e.prefetch_misses},
      {"emulator.deferred_replays", e.deferred_replays},
      {"tub.publishes", st.tub.publishes},
      {"tub.entries_published", st.tub.entries_published},
      {"tub.full_skips", st.tub.full_skips},
      {"tub.trylock_failures", st.tub.trylock_failures},
      {"dataplane.forwards", forwards},
      {"dataplane.bytes_forwarded", bytes},
      {"dataplane.affinity_hits", e.affinity_hits},
      {"dataplane.affinity_misses", e.affinity_misses},
      {"dataplane.affinity_cold", e.affinity_cold},
      {"dataplane.cross_shard_bytes", e.cross_shard_bytes},
      {"guard.checks", st.guard.checks},
      {"guard.violations", st.guard.violations},
  };
}

/// Per-run means of the runtime-layer counters over the measured runs
/// (or requests), plus per-run ratios. Feeds the runtime.* emulator /
/// tub / kernel / dataplane metrics.
class RuntimeLayers {
 public:
  void add(const runtime::RuntimeStats& st, CounterBook& book,
           const std::string& book_prefix) {
    ++runs_;
    for (const auto& [name, v] : run_counters(st)) {
      sum_[name] += static_cast<double>(v);
      book.add(book_prefix + name, v);
    }
    std::uint64_t max_app = 0, total_app = 0;
    for (const runtime::KernelStats& k : st.kernels) {
      max_app = std::max(max_app, k.app_threads_executed);
      total_app += k.app_threads_executed;
    }
    const double mean_app =
        st.kernels.empty() ? 0.0
                           : static_cast<double>(total_app) /
                                 static_cast<double>(st.kernels.size());
    imbalance_.push_back(ratio(static_cast<double>(max_app), mean_app));
  }

  double mean(const std::string& name) const {
    const auto it = sum_.find(name);
    return it == sum_.end() || runs_ == 0
               ? 0.0
               : it->second / static_cast<double>(runs_);
  }
  double total(const std::string& name) const {
    const auto it = sum_.find(name);
    return it == sum_.end() ? 0.0 : it->second;
  }

  void report(Values& v) const {
    const double dispatches = mean("emulator.dispatches");
    const double hits = mean("emulator.prefetch_hits");
    const double misses = mean("emulator.prefetch_misses");
    const double publishes = mean("tub.publishes");
    const double full_skips = mean("tub.full_skips");
    const double affinity = mean("dataplane.affinity_hits") +
                            mean("dataplane.affinity_misses") +
                            mean("dataplane.affinity_cold");
    for (const char* name :
         {"emulator.updates_processed", "emulator.dispatches",
          "emulator.steal_dispatches", "emulator.blocks_loaded",
          "emulator.deferred_replays", "emulator.drain_sweeps",
          "tub.publishes", "tub.trylock_failures", "kernel.app_threads",
          "kernel.mailbox_backlog_peak", "dataplane.forwards",
          "dataplane.bytes_forwarded", "dataplane.cross_shard_bytes"}) {
      v[name] = mean(name);
    }
    v["emulator.home_frac"] = ratio(mean("emulator.home_dispatches"), dispatches);
    v["emulator.prefetch_hit_frac"] = ratio(hits, hits + misses);
    v["emulator.updates_per_sweep"] = ratio(mean("emulator.updates_processed"),
                                            mean("emulator.drain_sweeps"));
    v["tub.entries_per_publish"] = ratio(mean("tub.entries_published"), publishes);
    v["tub.full_skip_frac"] = ratio(full_skips, publishes + full_skips);
    v["kernel.imbalance"] = median(imbalance_);
    v["dataplane.affinity_hit_frac"] =
        ratio(mean("dataplane.affinity_hits"), affinity);
  }

 private:
  std::uint64_t runs_ = 0;
  std::map<std::string, double> sum_;
  std::vector<double> imbalance_;
};

/// Reads the process's peak resident set (VmHWM) in MiB. peak_rss_mb
/// is read when the first warm-up operation ends: set-up plus one run
/// (serving: one stream), so resident state and one run's transient
/// memory count. Later runs do not: the end-of-run peak creeps with the
/// run count (likely glibc's per-thread arenas keeping freed buffers of
/// each run's fresh threads) and, over ten checked_fine runs of the same
/// code, read either ~171 or ~255 MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

/// Warm-up ends once one window of operation times has a median within
/// a tolerance of the previous window's (at least two windows), or at a
/// time cap. Steadiness, not a fixed count: cold-cache runs of the
/// data-heavy programs read 2-4x slower for about their first second.
class Warmup {
 public:
  /// Native runs: windows of 5 runs within 5%, capped at 5 s.
  Warmup() : Warmup(5, 0.05) {}
  Warmup(std::size_t window, double tolerance)
      : window_size_(window), tolerance_(tolerance) {}

  static constexpr double kCapSeconds = 5.0;

  /// Record one warm-up operation time; returns true once steady or
  /// capped (no more warm-up wanted).
  bool add(double sample_ms) {
    ++ops_;
    window_.push_back(sample_ms);
    if (window_.size() == window_size_) {
      const double m = median(window_);
      window_.clear();
      if (previous_ > 0.0 && std::abs(m - previous_) <= tolerance_ * previous_) {
        steady_ = true;
      }
      previous_ = m;
    }
    return steady_ || elapsed() >= kCapSeconds;
  }

  std::uint64_t ops() const { return ops_; }
  bool steady() const { return steady_; }
  double elapsed() const { return ms_between(start_, Clock::now()) / 1e3; }

 private:
  std::size_t window_size_;
  double tolerance_;
  std::vector<double> window_;
  double previous_ = 0.0;
  bool steady_ = false;
  std::uint64_t ops_ = 0;
  Clock::time_point start_ = Clock::now();
};

/// Host load over a stretch of the measured phase. Foreign time is CPU
/// time the host spent on anything but this process - other processes
/// and hypervisor steal: the host's busy time in /proc/stat minus this
/// process's own CPU time, so the program's own work never counts.
struct HostLoad {
  /// A one-second chunk is loaded above this many foreign CPUs. Every
  /// workload keeps nproc threads busy, so foreign work preempts them
  /// and steal stalls them outright.
  static constexpr double kLoadedCpus = 0.25;

  double wall_s = 0.0;
  double foreign_s = 0.0;  ///< steal included
  double steal_s = 0.0;
  std::size_t chunks = 0;
  std::size_t loaded_chunks = 0;

  void add(const HostLoad& o) {
    wall_s += o.wall_s;
    foreign_s += o.foreign_s;
    steal_s += o.steal_s;
    chunks += o.chunks;
    loaded_chunks += o.loaded_chunks;
  }

  /// A run is marked host_loaded when the host was loaded over the
  /// whole measured phase, or in more than half of its chunks.
  void report(std::map<std::string, std::string>& provenance) const {
    const double foreign = ratio(foreign_s, wall_s);
    provenance["foreign_cpu"] = json_number(foreign);
    provenance["steal_cpu"] = json_number(ratio(steal_s, wall_s));
    provenance["chunks"] = std::to_string(chunks);
    provenance["loaded_chunks"] = std::to_string(loaded_chunks);
    provenance["host_loaded"] =
        foreign > kLoadedCpus || 2 * loaded_chunks > chunks ? "true" : "false";
  }
};

/// Reads the host's and this process's CPU time, and reports the
/// difference since the previous lap.
class HostMeter {
 public:
  HostLoad lap() {
    const Sample now = sample();
    HostLoad d;
    d.wall_s = ms_between(last_.at, now.at) / 1e3;
    d.foreign_s = std::max(0.0, (now.busy_s - last_.busy_s) - (now.own_s - last_.own_s));
    d.steal_s = now.steal_s - last_.steal_s;
    last_ = now;
    return d;
  }

 private:
  struct Sample {
    Clock::time_point at;
    double busy_s = 0.0;   ///< host busy CPU seconds, steal included
    double steal_s = 0.0;
    double own_s = 0.0;    ///< this process's CPU seconds
  };

  static Sample sample() {
    Sample s;
    s.at = Clock::now();
    std::ifstream stat("/proc/stat");
    std::string cpu;
    stat >> cpu;
    // user nice system idle iowait irq softirq steal, in clock ticks
    const double tick = 1.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
    for (int field = 0; field < 8; ++field) {
      double ticks = 0.0;
      stat >> ticks;
      if (field != 3 && field != 4) s.busy_s += ticks * tick;
      if (field == 7) s.steal_s = ticks * tick;
    }
    rusage own{};
    getrusage(RUSAGE_SELF, &own);
    s.own_s = static_cast<double>(own.ru_utime.tv_sec + own.ru_stime.tv_sec) +
              static_cast<double>(own.ru_utime.tv_usec + own.ru_stime.tv_usec) /
                  1e6;
    return s;
  }

  Sample last_ = sample();
};

/// Splits a measurement into one-second chunks and measures each
/// chunk's foreign CPUs, so that timings can leave out the operations of
/// chunks the host loaded (see load_cutoff).
class Chunks {
 public:
  /// Call before each operation; returns the operation's chunk index.
  std::size_t at(Clock::time_point now) {
    if (foreign_.empty() || ms_between(start_, now) >= 1000.0) {
      if (foreign_.empty()) {
        meter_.lap();
      } else {
        close();
      }
      foreign_.push_back(0.0);
      start_ = now;
    }
    return foreign_.size() - 1;
  }

  /// Call once after the last operation.
  void finish() { close(); }

  /// Foreign CPUs during the chunk, steal included.
  double foreign(std::size_t chunk) const { return foreign_[chunk]; }
  const HostLoad& load() const { return load_; }

 private:
  void close() {
    HostLoad d = meter_.lap();
    d.chunks = 1;
    d.loaded_chunks = d.foreign_s > HostLoad::kLoadedCpus * d.wall_s ? 1 : 0;
    foreign_.back() = ratio(d.foreign_s, d.wall_s);
    load_.add(d);
  }

  HostMeter meter_;
  std::vector<double> foreign_;
  HostLoad load_;
  Clock::time_point start_{};
};

/// The highest host load (foreign CPUs of an operation's chunk) whose
/// operations are timed: HostLoad::kLoadedCpus, raised just enough that
/// at least 20 operations, and at least a tenth of all, are timed. Steal
/// on the VM host comes in bursts: over minutes-long episodes most
/// chunks are loaded, and the least loaded ones between them still time
/// the program closest to alone. A program regression cannot hide this
/// way: the program's own CPU time never counts as foreign.
double load_cutoff(std::vector<double> op_loads) {
  if (op_loads.empty()) return HostLoad::kLoadedCpus;
  std::sort(op_loads.begin(), op_loads.end());
  const std::size_t enough =
      std::min(op_loads.size(), std::max<std::size_t>(20, (op_loads.size() + 9) / 10));
  return std::max(HostLoad::kLoadedCpus, op_loads[enough - 1]);
}

/// Everything a workload reports back to main().
struct Outcome {
  Values values;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few diagnoses
  CounterBook counters;
  /// Extra provenance fields; values are JSON numbers or booleans.
  std::map<std::string, std::string> provenance;

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

/// Set-up is repeated (median reported) until kSetupBudgetS is spent,
/// at least kSetupMinReps and at most kSetupMaxReps times, so cheap
/// set-ups still yield a steady median.
constexpr int kSetupMinReps = 5;
constexpr int kSetupMaxReps = 100;
constexpr double kSetupBudgetS = 1.0;

bool more_setup(const std::vector<double>& setup_s) {
  double spent = 0.0;
  for (double s : setup_s) spent += s;
  const auto reps = static_cast<int>(setup_s.size());
  return reps < kSetupMinReps ||
         (reps < kSetupMaxReps && spent < kSetupBudgetS);
}

/// Span layers reported as span.<layer>.self_ms.
const char* const kSpanLayers[] = {"bench", "apps", "core.reference",
                                   "runtime", "runtime.executor",
                                   "core.check"};

/// span.<layer>.self_ms is the layer's self time per operation that
/// entered it (a traced run or request, or a reference run).
void report_spans(const SpanLog& log, std::uint64_t traced_ops,
                  double overhead_frac, Values& v) {
  const auto self = log.self_by_layer();
  for (const char* layer : kSpanLayers) {
    const auto it = self.find(layer);
    v[std::string("span.") + layer + ".self_ms"] =
        it == self.end() ? 0.0
                         : ratio(it->second.ms,
                                 static_cast<double>(it->second.ids.size()));
  }
  const double spans_per_op =
      ratio(static_cast<double>(log.size()), static_cast<double>(traced_ops));
  v["span.count"] = static_cast<double>(log.size());
  v["span.cost_us_per_op"] = spans_per_op * span_cost_ns() / 1e3;
  v["span.overhead_frac"] = overhead_frac;
}

/// Reference single-thread baseline: the program on ReferenceScheduler
/// with one virtual kernel (bodies run on the calling thread). Median
/// of `reps` validated runs, each an operation with its own span id.
double reference_ms(AppRun& app, int reps, SpanLog& spans,
                    std::uint64_t& next_id, Outcome& outcome) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    if (app.reset) app.reset();
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(spans, "ReferenceScheduler::run", "core.reference",
                      next_id++);
      core::ReferenceScheduler sched(app.program, 1);
      sched.run();
    }
    samples.push_back(ms_between(t0, Clock::now()));
    ++outcome.attempted;
    if (!app.validate()) outcome.fail(app.name + ": reference run invalid");
  }
  if (app.reset) app.reset();
  return median(samples);
}

// ---------------------------------------------------------------------------
// Native workloads: one warm Runtime re-run back to back (closed loop).
// ---------------------------------------------------------------------------

struct NativeSpec {
  const char* name;
  AppKind kind;
  SizeClass size;
  std::uint32_t unroll;   ///< 0 = library default
  std::uint16_t kernels;  ///< + 1 emulator thread
  bool checked;           ///< tflux_run --check --guard=full
  /// serve_p90_ms as recorded for this workload (median of 10 seeds on a
  /// 4-vCPU x86-64 VM). Goodput counts the operations that were valid
  /// and took at most twice this long.
  double recorded_p90_ms;
};

/// The untraced TRAPEZ Large run (3 kernels, unroll 1) is measured only
/// inside checked_fine (trace.run_overhead_ms's baseline): on its own,
/// its median read ~60 or ~80 ms depending on which vCPUs the host ran
/// fast at the time, too unsteady for a 25% bound.
constexpr NativeSpec kNativeSpecs[] = {
    {"coarse_dataflow", AppKind::kSusanPipe, SizeClass::kMedium, 0, 3, false,
     102.0},
    {"checked_fine", AppKind::kTrapez, SizeClass::kLarge, 1, 3, true, 251.0},
};

struct NativeOp {
  bool ok = false;
  std::size_t chunk = 0;   ///< Chunks index (measured runs only)
  double load = 0.0;       ///< the chunk's foreign CPUs
  double serve_ms = 0.0;   ///< issue -> validated result
  double run_ms = 0.0;     ///< run(), plus check_trace when checked
  double run_only_ms = 0.0;
  double frame_ms = 0.0;   ///< run() outside the runtime's own clock
  double check_ms = 0.0;
  double validate_ms = 0.0;
  double reset_ms = 0.0;
  std::uint64_t records = 0;
  std::uint64_t findings = 0;
  runtime::RuntimeStats stats;
};

class NativeBench {
 public:
  NativeBench(const NativeSpec& spec, const Args& args)
      : spec_(spec), args_(args), spans_(args.trace) {}

  Outcome run() {
    setup();
    if (args_.trace) {
      reference_ = reference_ms(*app_, 3, spans_, next_id_, outcome_);
    }
    warm_up();
    measure();
    if (args_.trace && spec_.checked) plain_baseline();
    report();
    if (!args_.spans_out.empty() && args_.trace) {
      spans_.write_chrome(args_.spans_out);
    }
    return std::move(outcome_);
  }

 private:
  runtime::RuntimeOptions options() {
    runtime::RuntimeOptions o;
    o.num_kernels = spec_.kernels;
    if (spec_.checked) {
      o.trace = &trace_;
      o.guard.mode = core::GuardMode::kFull;
    }
    return o;
  }

  apps::DdmParams params() const {
    apps::DdmParams p;
    p.num_kernels = spec_.kernels;
    if (spec_.unroll != 0) p.unroll = spec_.unroll;
    return p;
  }

  /// setup_s = build_app + Runtime construction, repeated (see
  /// more_setup); the last bundle is kept for the runs.
  void setup() {
    while (more_setup(setup_s_)) {
      rt_.reset();
      app_.reset();
      const Clock::time_point t0 = Clock::now();
      {
        ScopedSpan span(spans_, "build_app", "apps", 0);
        app_ = std::make_unique<AppRun>(apps::build_app(
            spec_.kind, spec_.size, apps::Platform::kNative, params()));
      }
      const Clock::time_point t1 = Clock::now();
      {
        ScopedSpan span(spans_, "Runtime()", "runtime", 0);
        rt_ = std::make_unique<runtime::Runtime>(app_->program, options());
      }
      const Clock::time_point t2 = Clock::now();
      build_ms_.push_back(ms_between(t0, t1));
      ctor_ms_.push_back(ms_between(t1, t2));
      setup_s_.push_back(ms_between(t0, t2) / 1e3);
    }
  }

  NativeOp op(std::uint64_t id, bool traced) {
    SpanLog quiet(false);
    SpanLog& spans = traced ? spans_ : quiet;
    NativeOp r;
    const Clock::time_point due = Clock::now();
    ScopedSpan root(spans, "op", "bench", id);
    if (app_->reset) {
      ScopedSpan span(spans, "reset", "apps", id, root.index());
      app_->reset();
    }
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(spans, "run", "runtime", id, root.index());
      r.stats = rt_->run();
    }
    const Clock::time_point t1 = Clock::now();
    std::vector<std::string> why;
    if (spec_.checked) {
      core::CheckReport report;
      {
        ScopedSpan span(spans, "check_trace", "core.check", id, root.index());
        report = core::check_trace(app_->program, trace_);
      }
      r.records = trace_.records.size();
      r.findings = report.findings.size();
      if (!report.clean()) why.push_back("ddmcheck findings");
      if (!r.stats.guard_violations.empty() || r.stats.guard.violations != 0) {
        why.push_back("ddmguard violations");
      }
      if (!reconciles(report, r.stats)) {
        why.push_back("ddmcheck tallies differ from RuntimeStats");
      }
    }
    const Clock::time_point t2 = Clock::now();
    bool valid = false;
    {
      ScopedSpan span(spans, "validate", "apps", id, root.index());
      valid = app_->validate();
    }
    const Clock::time_point t3 = Clock::now();
    if (!valid) why.push_back("validate() failed");
    if (r.stats.total_app_threads_executed() != app_->program.num_app_threads()) {
      why.push_back("app DThreads executed != program's");
    }
    r.ok = why.empty();
    r.reset_ms = ms_between(due, t0);
    r.run_only_ms = ms_between(t0, t1);
    r.frame_ms = r.run_only_ms - r.stats.wall_seconds * 1e3;
    r.check_ms = ms_between(t1, t2);
    r.run_ms = ms_between(t0, t2);
    r.validate_ms = ms_between(t2, t3);
    r.serve_ms = ms_between(due, t3);
    ++outcome_.attempted;
    if (!r.ok) {
      std::string msg = std::string(spec_.name) + " run " + std::to_string(id) + ":";
      for (const std::string& w : why) msg += " " + w + ";";
      outcome_.fail(msg);
    }
    return r;
  }

  /// ddmcheck's independent replay must reproduce the runtime's
  /// data-plane and dispatch-routing counters exactly.
  static bool reconciles(const core::CheckReport& report,
                         const runtime::RuntimeStats& st) {
    std::uint64_t forwards = 0, bytes = 0;
    for (const runtime::KernelStats& k : st.kernels) {
      forwards += k.forwards;
      bytes += k.bytes_forwarded;
    }
    const core::DataPlaneTally& d = report.dataplane;
    const core::StealTally& s = report.steals;
    const runtime::EmulatorStats& e = st.emulator;
    return d.forwards == forwards && d.bytes_forwarded == bytes &&
           d.affinity_hits == e.affinity_hits &&
           d.affinity_misses == e.affinity_misses &&
           d.affinity_cold == e.affinity_cold &&
           d.cross_shard_bytes == e.cross_shard_bytes &&
           s.dispatches == e.dispatches && s.home == e.home_dispatches &&
           s.local + s.remote == e.dispatches - e.home_dispatches;
  }

  void warm_up() {
    Warmup rule;
    bool done = rule.add(op(next_id_++, false).run_ms);
    peak_rss_mb_ = peak_rss_mb();
    while (!done) done = rule.add(op(next_id_++, false).run_ms);
    outcome_.provenance["warmup_ops"] = std::to_string(rule.ops());
    outcome_.provenance["warmup_s"] = json_number(rule.elapsed());
    outcome_.provenance["warmup_steady"] = rule.steady() ? "true" : "false";
  }

  /// Untraced: back-to-back runs for --seconds. Traced: alternating
  /// blocks of traced and untraced runs, so the tracing overhead is
  /// measured against interleaved untraced runs of the same process.
  void measure() {
    constexpr int kBlock = 5;
    const Clock::time_point start = Clock::now();
    bool traced_block = false;
    int in_block = 0;
    while (ms_between(start, Clock::now()) < args_.seconds * 1e3 ||
           ops_.size() < 10) {
      const bool traced = args_.trace && traced_block;
      const std::uint64_t id = next_id_++;
      const std::size_t chunk = chunks_.at(Clock::now());
      NativeOp r = op(id, traced);
      r.chunk = chunk;
      layers_.add(r.stats, outcome_.counters, "");
      (traced ? traced_serve_ : untraced_serve_).push_back(r.serve_ms);
      ops_.push_back(std::move(r));
      if (traced) ++traced_ops_;
      if (++in_block == kBlock) {
        in_block = 0;
        traced_block = !traced_block;
      }
    }
    chunks_.finish();
    for (NativeOp& r : ops_) r.load = chunks_.foreign(r.chunk);
    window_s_ = ms_between(start, Clock::now()) / 1e3;
  }

  /// checked_fine only: the same program on an untraced, unguarded
  /// Runtime, for trace.run_overhead_ms.
  void plain_baseline() {
    runtime::RuntimeOptions o;
    o.num_kernels = spec_.kernels;
    runtime::Runtime plain(app_->program, o);
    std::vector<double> samples;
    for (int i = 0; i < 15; ++i) {
      if (app_->reset) app_->reset();
      const Clock::time_point t0 = Clock::now();
      const runtime::RuntimeStats st = plain.run();
      samples.push_back(ms_between(t0, Clock::now()));
      ++outcome_.attempted;
      if (!app_->validate() ||
          st.total_app_threads_executed() != app_->program.num_app_threads()) {
        outcome_.fail("checked_fine: untraced baseline run invalid");
      }
    }
    plain_run_ms_ = median(samples);
  }

  void report() {
    std::vector<double> run, run_only, frame, serve, check, validate, reset,
        loads;
    double records = 0, findings = 0;
    for (const NativeOp& r : ops_) {
      loads.push_back(r.load);
      run_only.push_back(r.run_only_ms);
      frame.push_back(r.frame_ms);
      check.push_back(r.check_ms);
      validate.push_back(r.validate_ms);
      reset.push_back(r.reset_ms);
      records += static_cast<double>(r.records);
      findings += static_cast<double>(r.findings);
    }
    // End-to-end timings: the runs of the least loaded chunks.
    const double cutoff = load_cutoff(loads);
    std::uint64_t good = 0;
    double busy_ms = 0.0;
    for (const NativeOp& r : ops_) {
      if (r.load > cutoff) continue;
      run.push_back(r.run_ms);
      serve.push_back(r.serve_ms);
      busy_ms += r.serve_ms;
      if (r.ok && r.serve_ms <= 2.0 * spec_.recorded_p90_ms) ++good;
    }
    Values& v = outcome_.values;
    if (!args_.trace) {
      v["setup_s"] = median(setup_s_);
      v["run_ms_p50"] = median(run);
      v["run_ms_p90"] = percentile(run, 0.9);
      v["serve_p50_ms"] = median(serve);
      v["serve_p90_ms"] = percentile(serve, 0.9);
      v["serve_goodput_rps"] = static_cast<double>(good) * 1e3 / busy_ms;
      v["peak_rss_mb"] = peak_rss_mb_;
    } else {
      const double run_p50 = median(run_only);
      v["apps.build_ms"] = median(build_ms_);
      v["apps.validate_ms"] = median(validate);
      v["apps.reset_ms"] = app_->reset ? median(reset) : 0.0;
      v["core.reference_ms"] = reference_;
      v["runtime.ctor_ms"] = median(ctor_ms_);
      v["runtime.efficiency"] = ratio(reference_, spec_.kernels * run_p50);
      v["runtime.ns_per_dthread"] =
          ratio(run_p50 * 1e6, layers_.mean("kernel.threads_executed"));
      v["runtime.frame_ms"] = median(frame);
      layers_.report(v);
      if (spec_.checked) {
        const double n = static_cast<double>(ops_.size());
        const double replay = median(check);
        v["trace.records"] = records / n;
        v["trace.run_overhead_ms"] = run_p50 - plain_run_ms_;
        v["guard.checks"] = layers_.mean("guard.checks");
        v["guard.violations"] = layers_.total("guard.violations");
        v["check.replay_ms"] = replay;
        v["check.ns_per_record"] = ratio(replay * 1e6, records / n);
        v["check.findings"] = findings;
      }
      report_spans(spans_, traced_ops_,
                   ratio(median(traced_serve_), median(untraced_serve_)) - 1.0,
                   v);
    }
    outcome_.provenance["runs"] = std::to_string(ops_.size());
    outcome_.provenance["timed_runs"] = std::to_string(run.size());
    outcome_.provenance["timed_load_cutoff"] = json_number(cutoff);
    chunks_.load().report(outcome_.provenance);
    outcome_.provenance["busy_threads"] = std::to_string(spec_.kernels + 1);
    outcome_.provenance["measure_s"] = json_number(window_s_);
    outcome_.provenance["setup_reps"] = std::to_string(setup_s_.size());
  }

  const NativeSpec& spec_;
  const Args& args_;
  SpanLog spans_;
  Outcome outcome_;
  core::ExecTrace trace_;
  std::unique_ptr<AppRun> app_;
  std::unique_ptr<runtime::Runtime> rt_;
  std::vector<double> build_ms_, ctor_ms_, setup_s_;
  std::vector<NativeOp> ops_;
  std::vector<double> traced_serve_, untraced_serve_;
  std::uint64_t traced_ops_ = 0;
  std::uint64_t next_id_ = 1;
  RuntimeLayers layers_;
  Chunks chunks_;
  double reference_ = 0.0;
  double peak_rss_mb_ = 0.0;
  double plain_run_ms_ = 0.0;
  double window_s_ = 0.0;
};

// ---------------------------------------------------------------------------
// serve_open: the resident Executor under an open-loop Poisson stream.
// ---------------------------------------------------------------------------

/// The request mix, one third each. Sizes are chosen so that every
/// request runs for about 1-3 ms: on the VM host, thread hand-offs
/// (wake-ups) ran up to 1.8x slower in some minutes than in others, and
/// the small Table-1 sizes (0.1-1.5 ms, mostly hand-offs) followed that
/// swing. At these sizes hand-offs are a smaller share of each request.
struct ServeApp {
  AppKind kind;
  SizeClass size;
};
constexpr ServeApp kServeMix[] = {{AppKind::kQsort, SizeClass::kLarge},
                                  {AppKind::kFft, SizeClass::kLarge},
                                  {AppKind::kTrapez, SizeClass::kMedium}};
constexpr std::size_t kMixSize = std::size(kServeMix);
constexpr std::uint16_t kServeWidth = 2;
/// Offered load in requests per second (BENCHMARK.json's serve_open
/// entry states the same number; the self-test checks they agree):
/// about a fifth of the ~450 req/s that the mix's mean service time
/// (2.2 ms at width 2 on a 4-vCPU VM) allows. On a VM host, hypervisor
/// steal stalls every in-flight request, and at higher loads a few
/// seconds of steal grew the queue into a backlog.
constexpr double kServeRate = 100.0;
/// Latency limit (due time -> completion) counted by goodput: twice the
/// serve_p90_ms median recorded for this mix (7.4 ms, 6 seeds on a
/// 4-vCPU x86-64 VM), rounded up.
constexpr double kServeLimitMs = 15.0;
/// Registered copies of each app: a request needs a copy whose last
/// result has been validated, so several copies keep the generator from
/// waiting on the validator.
constexpr int kCopiesPerApp = 8;

/// splitmix64: the stream's only randomness, so a seed fixes it exactly.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

struct Arrival {
  double due_s = 0.0;
  std::size_t app = 0;  ///< index into kServeMix
};

/// Poisson arrivals at kServeRate over [0, seconds), uniform app mix.
std::vector<Arrival> make_stream(std::uint64_t seed, double seconds) {
  Rng rng(seed);
  std::vector<Arrival> out;
  double t = 0.0;
  while (true) {
    t += -std::log1p(-rng.uniform()) / kServeRate;
    if (t >= seconds) break;
    out.push_back({t, static_cast<std::size_t>(rng.next() % kMixSize)});
  }
  return out;
}

struct RequestRecord {
  std::size_t app = 0;
  bool ok = false;
  std::size_t chunk = 0;    ///< Chunks index of the due time
  double load = 0.0;        ///< foreign CPUs of its chunk or the one before
  double latency_ms = 0.0;  ///< due -> completion
  double queue_ms = 0.0;
  double service_ms = 0.0;
  double submit_us = 0.0;
  double late_ms = 0.0;     ///< how late the generator submitted
  runtime::RuntimeStats stats;
};

class ServeBench {
 public:
  explicit ServeBench(const Args& args) : args_(args), spans_(args.trace) {}

  Outcome run() {
    setup();
    if (args_.trace) {
      for (std::size_t a = 0; a < kMixSize; ++a) {
        reference_[a] =
            reference_ms(*copies_[a][0].app, 3, spans_, next_id_, outcome_);
      }
    }
    warm_up();
    measure();
    report();
    if (!args_.spans_out.empty() && args_.trace) {
      spans_.write_chrome(args_.spans_out);
    }
    executor_.reset();
    return std::move(outcome_);
  }

 private:
  struct Copy {
    std::unique_ptr<AppRun> app;
    core::ProgramHandle handle = core::kInvalidProgram;
  };

  /// setup_s = build every copy, construct the Executor (its resident
  /// threads start), register every copy - repeated (see more_setup),
  /// keeping the last.
  void setup() {
    apps::DdmParams params;
    params.num_kernels = kServeWidth;
    params.unroll = 4;
    runtime::ExecutorOptions options;
    options.pool_kernels = kServeWidth;
    options.partition_width = kServeWidth;
    while (more_setup(setup_s_)) {
      executor_.reset();
      registry_.reset();
      for (auto& copies : copies_) copies.clear();
      const Clock::time_point t0 = Clock::now();
      for (std::size_t a = 0; a < kMixSize; ++a) {
        for (int c = 0; c < kCopiesPerApp; ++c) {
          ScopedSpan span(spans_, "build_app", "apps", 0);
          copies_[a].push_back({std::make_unique<AppRun>(apps::build_app(
              kServeMix[a].kind, kServeMix[a].size, apps::Platform::kNative,
              params))});
        }
      }
      const Clock::time_point t1 = Clock::now();
      registry_ = std::make_unique<core::ProgramRegistry>();
      {
        ScopedSpan span(spans_, "Executor()", "runtime.executor", 0);
        executor_ = std::make_unique<runtime::Executor>(*registry_, options);
      }
      const Clock::time_point t2 = Clock::now();
      for (auto& copies : copies_) {
        for (Copy& c : copies) {
          ScopedSpan span(spans_, "ProgramRegistry::add", "runtime.executor", 0);
          c.handle = registry_->add(c.app->program, c.app->buffers,
                                    c.app->reset, c.app->name);
        }
      }
      const Clock::time_point t3 = Clock::now();
      build_ms_.push_back(ms_between(t0, t1) / (kMixSize * kCopiesPerApp));
      ctor_ms_.push_back(ms_between(t1, t2));
      setup_s_.push_back(ms_between(t0, t3) / 1e3);
    }
    for (std::size_t a = 0; a < kMixSize; ++a) {
      for (int c = 0; c < kCopiesPerApp; ++c) free_[a].push_back(c);
    }
  }

  int acquire(std::size_t app) {
    std::unique_lock<std::mutex> lock(mu_);
    free_cv_.wait(lock, [&] { return !free_[app].empty(); });
    const int c = free_[app].back();
    free_[app].pop_back();
    return c;
  }

  void release(std::size_t app, int copy) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      free_[app].push_back(copy);
    }
    free_cv_.notify_all();
  }

  struct InFlight {
    std::future<runtime::RunResult> future;
    std::size_t app = 0;
    int copy = 0;
    std::uint64_t id = 0;
    Clock::time_point due{};
    std::size_t chunk = 0;
    double submit_us = 0.0;
    double late_ms = 0.0;
    std::int64_t root = -1;
  };

  /// Runs one stream open loop: the calling thread submits each request
  /// at its due time; a collector thread waits for each future in
  /// submission order, validates the copy's output and frees the copy.
  /// The collector runs at the lowest CPU priority, so checking uses
  /// idle CPU and never competes with the executor's four threads.
  std::vector<RequestRecord> stream(const std::vector<Arrival>& arrivals,
                                    bool traced) {
    SpanLog quiet(false);
    SpanLog& spans = traced ? spans_ : quiet;
    std::vector<RequestRecord> records;
    records.reserve(arrivals.size());
    std::deque<InFlight> pending;
    bool closed = false;
    std::mutex qmu;
    std::condition_variable qcv;
    Chunks chunks;

    std::thread collector([&] {
      setpriority(PRIO_PROCESS, static_cast<id_t>(syscall(SYS_gettid)), 19);
      while (true) {
        InFlight f;
        {
          std::unique_lock<std::mutex> lock(qmu);
          qcv.wait(lock, [&] { return closed || !pending.empty(); });
          if (pending.empty()) return;
          f = std::move(pending.front());
          pending.pop_front();
        }
        RequestRecord rec;
        rec.app = f.app;
        rec.chunk = f.chunk;
        rec.submit_us = f.submit_us;
        rec.late_ms = f.late_ms;
        std::string why;
        try {
          std::optional<runtime::RunResult> result;
          {
            ScopedSpan span(spans, "future.get", "bench", f.id, f.root);
            result = f.future.get();
          }
          const auto done = result->completed_at;
          const auto started = done - std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(
                                              result->run_seconds));
          const auto submitted =
              done - std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(result->latency_seconds));
          spans.add("executor.queue", "runtime.executor", f.id, f.root,
                    submitted, started);
          spans.add("executor.run", "runtime", f.id, f.root, started, done);
          rec.latency_ms = ms_between(f.due, done);
          rec.queue_ms = result->queue_seconds * 1e3;
          rec.service_ms = result->run_seconds * 1e3;
          if (!result->guard_clean) why += " ddmguard violations;";
          const AppRun& app = *copies_[f.app][f.copy].app;
          if (result->stats.total_app_threads_executed() !=
              app.program.num_app_threads()) {
            why += " app DThreads executed != program's;";
          }
          bool valid = false;
          {
            ScopedSpan span(spans, "validate", "apps", f.id, f.root);
            const Clock::time_point v0 = Clock::now();
            valid = app.validate();
            validate_ms_.push_back(ms_between(v0, Clock::now()));
          }
          if (!valid) why += " validate() failed;";
          rec.stats = std::move(result->stats);
        } catch (const std::exception& e) {
          why += std::string(" refused: ") + e.what() + ";";
        }
        spans.end(f.root);
        release(f.app, f.copy);
        rec.ok = why.empty();
        if (!rec.ok) {
          std::lock_guard<std::mutex> lock(fail_mu_);
          outcome_.fail("serve_open request " + std::to_string(f.id) + " (" +
                        apps::to_string(kServeMix[f.app].kind) + "):" + why);
        }
        records.push_back(std::move(rec));
      }
    });

    // Close the queue and join the collector on every exit path.
    const auto close_and_join = [&] {
      {
        std::lock_guard<std::mutex> lock(qmu);
        closed = true;
      }
      qcv.notify_one();
      collector.join();
    };
    try {
      const Clock::time_point start = Clock::now();
      for (const Arrival& a : arrivals) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(a.due_s));
        std::this_thread::sleep_until(due);
        InFlight f;
        f.app = a.app;
        f.due = due;
        f.chunk = chunks.at(due);
        f.id = next_id_++;
        f.root = spans.add("request", "bench", f.id, -1, due, due);
        {
          ScopedSpan wait(spans, "acquire_copy", "bench", f.id, f.root);
          f.copy = acquire(a.app);
        }
        runtime::RunRequest request;
        request.handle = copies_[a.app][f.copy].handle;
        const Clock::time_point s0 = Clock::now();
        f.late_ms = ms_between(due, s0);
        bool submitted = false;
        try {
          ScopedSpan span(spans, "submit", "runtime.executor", f.id, f.root);
          f.future = executor_->submit(request);
          submitted = true;
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(fail_mu_);
          outcome_.fail(std::string("serve_open submit refused: ") + e.what());
        }
        f.submit_us = ms_between(s0, Clock::now()) * 1e3;
        if (!submitted) {
          spans.end(f.root);
          release(f.app, f.copy);
          continue;
        }
        {
          std::lock_guard<std::mutex> lock(qmu);
          pending.push_back(std::move(f));
        }
        qcv.notify_one();
      }
    } catch (...) {
      close_and_join();
      throw;
    }
    close_and_join();
    executor_->drain();
    outcome_.attempted += arrivals.size();
    // A loaded chunk's backlog drains in the next one, so that chunk's
    // requests carry the load of both.
    chunks.finish();
    for (RequestRecord& r : records) {
      r.load = std::max(chunks.foreign(r.chunk),
                        r.chunk > 0 ? chunks.foreign(r.chunk - 1) : 0.0);
    }
    load_.add(chunks.load());
    return records;
  }

  /// Warm-up: one-second open-loop streams, one Warmup sample each (the
  /// stream's median service time), until two consecutive streams agree
  /// within 10% (the sub-millisecond programs jitter more than native
  /// runs), or Warmup::kCapSeconds.
  void warm_up() {
    Warmup rule(1, 0.10);
    std::uint64_t ops = 0;
    for (std::uint64_t s = 0;; ++s) {
      const auto arrivals = make_stream(args_.seed ^ (0xA5A5ull + s), 1.0);
      std::vector<double> service;
      for (const RequestRecord& r : stream(arrivals, false)) {
        service.push_back(r.service_ms);
      }
      ops += arrivals.size();
      if (s == 0) peak_rss_mb_ = peak_rss_mb();
      if (rule.add(median(service))) break;
    }
    validate_ms_.clear();
    load_ = HostLoad();
    executor_->reset_stats_epoch();
    outcome_.provenance["warmup_ops"] = std::to_string(ops);
    outcome_.provenance["warmup_s"] = json_number(rule.elapsed());
    outcome_.provenance["warmup_steady"] = rule.steady() ? "true" : "false";
  }

  /// Untraced: one stream of --seconds. Traced: four quarter-length
  /// streams, alternately untraced and traced, for the overhead.
  void measure() {
    const int parts = args_.trace ? 4 : 1;
    for (int p = 0; p < parts; ++p) {
      const bool traced = args_.trace && p % 2 == 1;
      auto arrivals = make_stream(args_.seed * 0x100000001B3ull + p,
                                  args_.seconds / parts);
      offered_ += arrivals.size();
      auto records = stream(arrivals, traced);
      if (traced) traced_requests_ += records.size();
      for (RequestRecord& r : records) {
        (traced ? traced_latency_ : untraced_latency_).push_back(r.latency_ms);
        requests_.push_back(std::move(r));
      }
    }
    exec_stats_ = executor_->stats();
  }

  /// The geometric mean over the apps of each app's percentile: every
  /// app weighs the same, and the mixed distribution's shape (its
  /// quantiles fall between the apps' clusters) cannot move it.
  static double mix_percentile(const std::vector<double> (&by_app)[kMixSize],
                               double q) {
    double log_sum = 0.0;
    int apps = 0;
    for (const std::vector<double>& samples : by_app) {
      if (samples.empty()) continue;
      log_sum += std::log(percentile(samples, q));
      ++apps;
    }
    return apps == 0 ? 0.0 : std::exp(log_sum / apps);
  }

  void report() {
    std::vector<double> service, queue, submit, late, loads;
    double service_total = 0.0;
    for (const RequestRecord& r : requests_) {
      service.push_back(r.service_ms);
      queue.push_back(r.queue_ms);
      submit.push_back(r.submit_us);
      late.push_back(r.late_ms);
      loads.push_back(r.load);
      service_total += r.service_ms;
      layers_.add(r.stats, outcome_.counters,
                  std::string(apps::to_string(kServeMix[r.app].kind)) + ":");
    }
    // End-to-end timings: the requests of the least loaded chunks.
    const double cutoff = load_cutoff(loads);
    std::vector<double> app_latency[kMixSize], app_service[kMixSize];
    std::uint64_t timed = 0, good = 0;
    for (const RequestRecord& r : requests_) {
      if (r.load > cutoff) continue;
      ++timed;
      app_latency[r.app].push_back(r.latency_ms);
      app_service[r.app].push_back(r.service_ms);
      if (r.ok && r.latency_ms <= kServeLimitMs) ++good;
    }
    Values& v = outcome_.values;
    if (!args_.trace) {
      v["setup_s"] = median(setup_s_);
      v["run_ms_p50"] = mix_percentile(app_service, 0.5);
      v["run_ms_p90"] = mix_percentile(app_service, 0.9);
      v["serve_p50_ms"] = mix_percentile(app_latency, 0.5);
      v["serve_p90_ms"] = mix_percentile(app_latency, 0.9);
      // The offered rate times the share of timed requests that were
      // valid and within the limit.
      v["serve_goodput_rps"] = static_cast<double>(offered_) / args_.seconds *
                               ratio(static_cast<double>(good),
                                     static_cast<double>(timed));
      v["peak_rss_mb"] = peak_rss_mb_;
    } else {
      // Mix-weighted single-thread reference time per request.
      double reference_total = 0.0;
      for (const RequestRecord& r : requests_) {
        reference_total += reference_[r.app];
      }
      v["apps.build_ms"] = median(build_ms_);
      v["apps.validate_ms"] = median(validate_ms_);
      v["core.reference_ms"] =
          reference_total / static_cast<double>(requests_.size());
      v["runtime.ctor_ms"] = median(ctor_ms_);
      v["runtime.efficiency"] =
          ratio(reference_total, kServeWidth * service_total);
      v["runtime.ns_per_dthread"] = ratio(
          service_total * 1e6, layers_.total("kernel.threads_executed"));
      layers_.report(v);
      v["executor.queue_ms_p50"] = median(queue);
      v["executor.service_ms_p50"] = median(service);
      v["executor.service_ms_p99"] = percentile(service, 0.99);
      v["executor.client_late_ms_p99"] = percentile(late, 0.99);
      v["executor.submit_us_p99"] = percentile(submit, 0.99);
      v["executor.queue_depth_peak"] =
          static_cast<double>(exec_stats_.queue_depth_peak);
      v["executor.fairness_ratio"] = core::fairness_ratio(exec_stats_.tenants);
      report_spans(spans_, traced_requests_,
                   ratio(median(traced_latency_), median(untraced_latency_)) -
                       1.0,
                   v);
    }
    outcome_.provenance["runs"] = std::to_string(requests_.size());
    outcome_.provenance["timed_runs"] = std::to_string(timed);
    outcome_.provenance["timed_load_cutoff"] = json_number(cutoff);
    load_.report(outcome_.provenance);
    outcome_.provenance["busy_threads"] = std::to_string(kServeWidth + 2);
    outcome_.provenance["offered_rps"] = json_number(kServeRate);
    outcome_.provenance["offered_requests"] = std::to_string(offered_);
    outcome_.provenance["setup_reps"] = std::to_string(setup_s_.size());
  }

  const Args& args_;
  SpanLog spans_;
  Outcome outcome_;
  std::mutex fail_mu_;
  std::unique_ptr<core::ProgramRegistry> registry_;
  std::vector<Copy> copies_[kMixSize];
  std::unique_ptr<runtime::Executor> executor_;
  std::mutex mu_;
  std::condition_variable free_cv_;
  std::vector<int> free_[kMixSize];
  std::vector<double> build_ms_, ctor_ms_, setup_s_, validate_ms_;
  double reference_[kMixSize] = {};
  std::vector<RequestRecord> requests_;
  std::vector<double> traced_latency_, untraced_latency_;
  std::uint64_t traced_requests_ = 0;
  std::uint64_t offered_ = 0;
  std::uint64_t next_id_ = 1;
  HostLoad load_;  ///< over the measured streams
  double peak_rss_mb_ = 0.0;
  runtime::ExecutorStats exec_stats_;
  RuntimeLayers layers_;
};

// ---------------------------------------------------------------------------

void print_result(const Args& args, const Outcome& o) {
  std::ostringstream out;
  out << "{\"workload\":" << json_string(args.workload)
      << ",\"seed\":" << args.seed << ",\"trace\":" << (args.trace ? 1 : 0)
      << ",\"correct\":" << (o.failed == 0 ? "true" : "false")
      << ",\"attempted\":" << o.attempted << ",\"failed\":" << o.failed
      << ",\"metrics\":{";
  const std::span<const MetricDef> defs =
      args.trace ? std::span<const MetricDef>(kPerLayer)
                 : std::span<const MetricDef>(kEndToEnd);
  std::size_t listed = 0;
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = o.values.find(defs[i].name);
    listed += it != o.values.end() ? 1 : 0;
    out << (i == 0 ? "" : ",") << json_string(defs[i].name) << ":{\"value\":"
        << json_number(it == o.values.end() ? 0.0 : it->second)
        << ",\"unit\":" << json_string(defs[i].unit) << "}";
  }
  if (listed != o.values.size()) {
    throw std::logic_error("a workload set a metric BENCHMARK.json lacks");
  }
  out << "},\"counters\":{";
  bool first = true;
  for (const auto& [name, range] : o.counters.ranges()) {
    const std::string base = name.substr(name.find(':') + 1);
    out << (first ? "" : ",") << json_string(name) << ":{\"min\":"
        << range.first << ",\"max\":" << range.second
        << ",\"declared\":"
        << json_string(deterministic_counters().count(base) ? "exact"
                                                            : "varies")
        << "}";
    first = false;
  }
  out << "},\"failures\":[";
  for (std::size_t i = 0; i < o.failures.size(); ++i) {
    out << (i == 0 ? "" : ",") << json_string(o.failures[i]);
  }
  out << "],\"provenance\":{\"compiler\":" << json_string(__VERSION__)
      << ",\"cxx_flags\":" << json_string(PERFBENCH_CXX_FLAGS);
  for (const auto& [key, value] : o.provenance) {
    out << "," << json_string(key) << ":" << value;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

int usage() {
  std::cerr << "usage: perfbench_driver --workload "
               "coarse_dataflow|checked_fine|serve_open\n"
               "         --seed N --seconds S --trace 0|1 [--spans FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        args.trace = value == "1";
      } else if (key == "--spans") {
        args.spans_out = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (argc % 2 == 0 || args.seconds <= 0.0) return usage();

  try {
    std::optional<Outcome> outcome;
    for (const NativeSpec& spec : kNativeSpecs) {
      if (args.workload == spec.name) outcome = NativeBench(spec, args).run();
    }
    if (args.workload == "serve_open") outcome = ServeBench(args).run();
    if (!outcome) return usage();
    for (const std::string& f : outcome->failures) {
      std::cerr << "FAILED: " << f << "\n";
    }
    print_result(args, *outcome);
    return outcome->failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
}
