#include "runtime/runtime.h"

#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/frame.h"

namespace tflux::runtime {

Runtime::Runtime(const core::Program& program, RuntimeOptions options)
    : program_(program), options_(std::move(options)) {
  validate_options(options_, "Runtime", "num_kernels");
}

Runtime::~Runtime() = default;

RuntimeStats Runtime::run() {
  ++runs_;
  RunFrame frame(program_, options_, std::move(trace_log_));

  // Kernel k runs on CPU k and emulator g on CPU num_kernels + g: the
  // frame's role numbering is exactly that order.
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(frame.num_roles());
  for (std::uint16_t role = 0; role < frame.num_roles(); ++role) {
    threads.emplace_back([this, &frame, role] {
      if (options_.pin_threads) pin_self_to_cpu(role);
      frame.run_role(role);
    });
  }
  for (std::thread& t : threads) t.join();
  const auto t1 = std::chrono::steady_clock::now();

  if (options_.trace != nullptr) {
    frame.fill_trace(*options_.trace);
    trace_log_ = frame.release_trace_log();
  }
  RuntimeStats stats =
      frame.stats(std::chrono::duration<double>(t1 - t0).count());
  stats.epoch = runs_;
  return stats;
}

}  // namespace tflux::runtime
