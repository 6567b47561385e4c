// Overhead of ddmcheck execution tracing (RuntimeOptions::trace) on
// the native TFluxSoft runtime. Tracing must be cheap enough to leave
// on while reproducing results: each event is an append to the
// actor's own lane stamped with the lane's Lamport clock, with no
// shared counter and no background thread. This bench runs each
// workload with tracing off (the default null sink - one predictable
// branch per event) and on (fresh trace per run), and reports the
// relative wall-time cost. Target: < 5% traced on real benchmarks.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/suite.h"
#include "core/builder.h"
#include "core/ddmtrace.h"
#include "json_out.h"
#include "runtime/runtime.h"

namespace {

using namespace tflux;

/// ~0.5us of untraceable arithmetic per DThread body: a worst case for
/// tracing, which adds a fixed cost per event to tiny DThreads.
void spin_body(const core::ExecContext&) {
  volatile std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 400; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
}

core::Program make_spin_program(std::uint16_t kernels, int blocks,
                                int width) {
  core::ProgramBuilder b("spin_" + std::to_string(blocks) + "x" +
                         std::to_string(width));
  for (int blk = 0; blk < blocks; ++blk) {
    const core::BlockId id = b.add_block();
    for (int i = 0; i < width; ++i) {
      b.add_thread(id, "t", spin_body);
    }
  }
  return b.build(core::BuildOptions{.num_kernels = kernels});
}

struct ModeResult {
  double wall_ms_min = 0.0;
  double wall_ms_median = 0.0;
  std::uint64_t records = 0;  ///< trace records of the first run
};

ModeResult measure(const core::Program& program, std::uint16_t kernels,
                   bool traced, int repeats) {
  std::vector<double> walls;
  ModeResult r;
  for (int i = 0; i < repeats; ++i) {
    core::ExecTrace trace;
    runtime::RuntimeOptions options;
    options.num_kernels = kernels;
    if (traced) options.trace = &trace;
    runtime::Runtime rt(program, options);
    const runtime::RuntimeStats st = rt.run();
    walls.push_back(st.wall_seconds * 1e3);
    if (i == 0) r.records = trace.records.size();
  }
  std::sort(walls.begin(), walls.end());
  r.wall_ms_min = walls.front();
  r.wall_ms_median = walls[walls.size() / 2];
  return r;
}

struct Workload {
  std::string name;
  core::Program program;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::parse_json_flag(argc, argv);
  bench::JsonWriter json("trace_overhead");

  // REPEATS=N environment override keeps the CI smoke cheap.
  int repeats = 15;
  if (const char* env = std::getenv("REPEATS")) {
    repeats = std::max(1, std::atoi(env));
  }

  std::printf("=== ddmcheck tracing overhead (TFluxSoft, best of %d) "
              "===\n\n", repeats);
  std::printf("%-10s %-8s | %10s %10s %9s %10s\n", "workload", "kernels",
              "off_ms", "on_ms", "overhead", "records");
  std::printf("--------------------+----------------------------------"
              "--------\n");

  bool app_under_5pct = true;
  for (std::uint16_t kernels : {2, 4}) {
    std::vector<Workload> workloads;
    // Worst case: tiny spin DThreads across many block transitions.
    workloads.push_back(
        {"spin", make_spin_program(kernels, 16, 8 * kernels)});
    // Realistic case: a shipped benchmark at bench-sized parameters.
    apps::DdmParams params;
    params.num_kernels = kernels;
    params.unroll = 8;
    params.tsu_capacity = 64;
    workloads.push_back(
        {"trapez", apps::build_app(apps::AppKind::kTrapez,
                                   apps::SizeClass::kSmall,
                                   apps::Platform::kNative, params)
                       .program});

    for (const Workload& w : workloads) {
      const ModeResult off = measure(w.program, kernels, false, repeats);
      const ModeResult on = measure(w.program, kernels, true, repeats);
      const double overhead_pct =
          (on.wall_ms_min / off.wall_ms_min - 1.0) * 100.0;
      if (w.name == "trapez" && overhead_pct >= 5.0) {
        app_under_5pct = false;
      }
      std::printf("%-10s %-8u | %10.4f %10.4f %8.2f%% %10llu\n",
                  w.name.c_str(), kernels, off.wall_ms_min,
                  on.wall_ms_min, overhead_pct,
                  static_cast<unsigned long long>(on.records));

      for (const bool traced : {false, true}) {
        const ModeResult& r = traced ? on : off;
        json.begin_row();
        json.field("workload", w.name);
        json.field("kernels", static_cast<std::uint32_t>(kernels));
        json.field("traced", traced);
        json.field("wall_ms_min", r.wall_ms_min);
        json.field("wall_ms_median", r.wall_ms_median);
        json.field("records", r.records);
        if (traced) json.field("overhead_pct", overhead_pct);
      }
    }
  }
  std::printf("\nexpected: tracing off is the do-nothing branch "
              "(baseline); tracing on stays\nunder 5%% on real "
              "benchmarks (spin bodies bound the worst case). %s\n",
              app_under_5pct ? "(holds on this sweep)"
                             : "(did NOT hold - see numbers)");
  return json.write_file(json_path) ? 0 : 2;
}
