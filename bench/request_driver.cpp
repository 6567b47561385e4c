// Open-loop request driver for the resident multi-program executor:
// the BENCH_executor.json producer.
//
// For each pool size (8 and 16 kernels) the driver replays the same
// closed-loop mixed-app request stream (qsort + fft, small, unroll 1)
// two ways on the same kernel count:
//
//   serial   - the pre-executor shape: every request constructs a
//              full-pool Runtime, spawns pool+groups threads, runs one
//              program, joins, tears down;
//   executor - one resident Executor (width-1 tenant partitions,
//              stage depth 2) admitting requests from its bounded
//              queue into long-lived kernel workers.
//
// Each mode runs `--reps` times and the best (max-throughput) rep
// represents it - the machine's scheduler noise is one-sided, so the
// max is the stable estimator. Every rep validates all app results
// against their sequential references; a failed rep fails the bench.
//
// Acceptance gate: at 16 kernels the executor must sustain
// >= `--gate` (default 3.0) the serial throughput. The 8-kernel row
// is reported ungated: a 8-kernel serial baseline only spawns 9
// threads per request, so resident workers buy a smaller (but still
// reported) multiple there. p50/p99 latency for both modes lands in
// the JSON alongside the throughput ratio.
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.h"
#include "json_out.h"
#include "tools/serve.h"

namespace {

using namespace tflux;

tools::ServeOptions stream_options(std::uint16_t pool, bool serial,
                                   std::uint32_t requests) {
  tools::ServeOptions o;
  o.exec.pool_kernels = pool;
  o.exec.partition_width = 1;
  o.exec.stage_depth = 2;
  o.exec.queue_capacity = 64;
  o.requests = requests;
  o.rate = 0.0;  // closed loop: backpressure paces the stream
  o.apps = {apps::AppKind::kQsort, apps::AppKind::kFft};
  o.size = apps::SizeClass::kSmall;
  o.unroll = 1;
  o.serial = serial;
  o.validate = true;
  return o;
}

/// Best-of-N replay of one mode. Returns false when any rep failed
/// validation (the report then carries the failing rep).
bool best_of(const tools::ServeOptions& options, int reps,
             tools::ServeReport& best) {
  for (int r = 0; r < reps; ++r) {
    tools::ServeReport rep;
    std::ostringstream sink;
    if (tools::run_serve(options, sink, &rep) != 0) {
      std::fputs(sink.str().c_str(), stderr);
      best = rep;
      return false;
    }
    if (r == 0 || rep.throughput_rps > best.throughput_rps) best = rep;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::parse_json_flag(argc, argv);
  std::uint32_t requests = 120;
  int reps = 3;
  double gate = 3.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--requests=", 0) == 0) {
      requests = static_cast<std::uint32_t>(std::stoul(arg.substr(11)));
    } else if (arg.rfind("--reps=", 0) == 0) {
      reps = std::stoi(arg.substr(7));
    } else if (arg.rfind("--gate=", 0) == 0) {
      gate = std::stod(arg.substr(7));
    } else {
      std::fprintf(stderr,
                   "usage: request_driver [--requests=N] [--reps=K] "
                   "[--gate=X] [--json FILE]\n");
      return 2;
    }
  }

  bench::JsonWriter json("request_driver");
  bool ok = true;
  std::printf(
      "=== resident executor vs per-request runtime (qsort+fft, small, "
      "unroll 1, %u requests, best of %d) ===\n\n",
      requests, reps);

  for (std::uint16_t pool : {std::uint16_t{8}, std::uint16_t{16}}) {
    const bool gated = pool == 16;
    tools::ServeReport serial;
    tools::ServeReport exec;
    try {
      if (!best_of(stream_options(pool, true, requests), reps, serial) ||
          !best_of(stream_options(pool, false, requests), reps, exec)) {
        std::fprintf(stderr, "request_driver: a rep failed at pool %u\n",
                     pool);
        ok = false;
      }
    } catch (const core::TFluxError& e) {
      std::fprintf(stderr, "request_driver: %s\n", e.what());
      return 2;
    }
    const double speedup = serial.throughput_rps > 0.0
                               ? exec.throughput_rps / serial.throughput_rps
                               : 0.0;
    const bool pass = !gated || speedup >= gate;
    std::printf("pool %2u: serial %8.1f req/s (p50 %6.2f ms, p99 %6.2f ms)\n",
                pool, serial.throughput_rps, serial.latency.p50_seconds * 1e3,
                serial.latency.p99_seconds * 1e3);
    std::printf("         executor %6.1f req/s (p50 %6.2f ms, p99 %6.2f ms)\n",
                exec.throughput_rps, exec.latency.p50_seconds * 1e3,
                exec.latency.p99_seconds * 1e3);
    if (gated) {
      std::printf("         speedup %.2fx  [%s %.1fx]\n\n", speedup,
                  pass ? "gate ok, >=" : "GATE FAIL, <", gate);
    } else {
      std::printf("         speedup %.2fx  (reported, ungated)\n\n", speedup);
    }
    json.begin_row();
    json.field("pool_kernels", static_cast<std::uint64_t>(pool));
    json.field("apps", "qsort,fft");
    json.field("size", "small");
    json.field("unroll", std::uint32_t{1});
    json.field("requests", requests);
    json.field("reps", reps);
    json.field("partition_width", std::uint32_t{1});
    json.field("stage_depth", std::uint32_t{2});
    json.field("serial_rps", serial.throughput_rps);
    json.field("serial_p50_seconds", serial.latency.p50_seconds);
    json.field("serial_p99_seconds", serial.latency.p99_seconds);
    json.field("executor_rps", exec.throughput_rps);
    json.field("executor_p50_seconds", exec.latency.p50_seconds);
    json.field("executor_p99_seconds", exec.latency.p99_seconds);
    json.field("executor_queue_depth_peak",
               static_cast<std::uint64_t>(exec.queue_depth_peak));
    json.field("executor_fairness_ratio", exec.fairness_ratio);
    json.field("speedup", speedup);
    json.field("gated", gated);
    json.field("gate", gated ? gate : 0.0);
    json.field("validated", serial.validated && exec.validated);
    json.field("pass", pass && serial.validated && exec.validated);
    if (gated && !pass) ok = false;
    if (!serial.validated || !exec.validated) ok = false;
  }

  if (!json.write_file(json_path)) return 1;
  if (!ok) {
    std::printf("request_driver: FAILED\n");
    return 1;
  }
  std::printf("request_driver: all gates passed\n");
  return 0;
}
