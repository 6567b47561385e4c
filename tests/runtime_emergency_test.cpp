// Emergency-flush integration: when a run ends abnormally the trace
// prefix must still reach disk marked `truncated`, and feeding it to
// the ddmcheck verifier must yield the single truncated-trace finding
// (not a pile of bogus lifecycle findings). Covers both abnormal
// paths the runtime supports:
//   - an exception unwinding through Runtime::run (the TraceLog
//     destructor flushes), tested in-process;
//   - exit() mid-run (the atexit hook flushes), tested as an exit
//     test in a child process so the parent can inspect the file the
//     dying child left behind.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/builder.h"
#include "core/check.h"
#include "core/ddmtrace.h"
#include "core/error.h"
#include "core/program.h"
#include "runtime/guard_hooks.h"
#include "runtime/runtime.h"

extern "C" int __lsan_is_turned_off() {
  // exit() mid-run deliberately leaks the run's live objects; leak
  // checking the death-test child would report them all.
  return 1;
}

namespace tflux {
namespace {

core::Program make_two_block_program(bool exit_in_second_block) {
  core::ProgramBuilder builder("emergency");
  for (int i = 0; i < 2; ++i) {
    const core::BlockId blk = builder.add_block();
    const std::string s = std::to_string(i);
    core::ThreadBody body = {};
    if (exit_in_second_block && i == 1) {
      body = [](const core::ExecContext&) { std::exit(7); };
    }
    const core::ThreadId a = builder.add_thread(blk, "a" + s, body);
    const core::ThreadId b = builder.add_thread(blk, "b" + s, {});
    builder.add_arc(a, b);
  }
  core::BuildOptions options;
  options.num_kernels = 1;
  return builder.build(options);
}

/// One block holding one DThread (plus its Inlet and Outlet).
core::Program make_one_thread_program() {
  core::ProgramBuilder builder("emergency");
  builder.add_thread(builder.add_block(), "a0", {});
  core::BuildOptions options;
  options.num_kernels = 1;
  return builder.build(options);
}

TEST(RuntimeEmergencyTest, ExceptionUnwindingRunPersistsTruncatedTrace) {
  // Arm a run that throws after the TraceLog exists (fault injection
  // without --guard=full is rejected inside run()); the unwind must
  // hand the emergency writer a trace marked truncated.
  const core::Program program = make_two_block_program(false);
  core::ExecTrace trace;
  core::ExecTrace dumped;
  bool called = false;
  runtime::RuntimeOptions options;
  options.num_kernels = 1;
  options.trace = &trace;
  options.trace_emergency = [&](core::ExecTrace& partial) {
    called = true;
    dumped = partial;
  };
  options.inject_fault.kind =
      runtime::FaultInjection::Kind::kDoublePublish;  // guard off: throws
  runtime::Runtime rt(program, options);
  EXPECT_THROW((void)rt.run(), core::TFluxError);

  ASSERT_TRUE(called);
  EXPECT_TRUE(dumped.truncated);
  EXPECT_EQ(dumped.program, program.name());

  const core::CheckReport report = core::check_trace(program, dumped);
  ASSERT_EQ(report.findings.size(), 1u) << report.to_string(program);
  EXPECT_EQ(report.findings[0].code, core::FindingCode::kTruncatedTrace);
}

TEST(RuntimeEmergencyTest, WarmRuntimeThatThrowsPersistsOnlyItsOwnPrefix) {
  // A Runtime hands its trace lanes from run to run. A run that throws
  // inside its frame must still flush them as a truncated trace of
  // that run alone, and the next run must trace like a fresh Runtime.
  // The frame's one throw is the fault-injection check, and it depends
  // on the Program: the named victim must exist, so swapping in a
  // smaller program under the Runtime makes exactly one run throw.
  const core::Program two_blocks = make_two_block_program(false);
  core::Program program = two_blocks;
  core::ThreadId victim = 0;
  while (program.thread(victim).label != "b1") ++victim;
  core::ExecTrace trace;
  std::vector<core::ExecTrace> dumps;
  runtime::RuntimeOptions options;
  options.num_kernels = 1;
  options.trace = &trace;
  options.trace_emergency = [&](core::ExecTrace& partial) {
    dumps.push_back(partial);
  };
  options.guard.mode = core::GuardMode::kFull;
  options.inject_fault.kind = runtime::FaultInjection::Kind::kDoublePublish;
  options.inject_fault.victim = victim;
  ASSERT_FALSE(program.thread(victim).consumers.empty());

  runtime::Runtime rt(program, options);
  (void)rt.run();  // warms the lanes; the guard trip dumps a prefix
  ASSERT_FALSE(trace.truncated);
  const std::size_t warm_records = trace.records.size();
  ASSERT_GT(warm_records, 0u);
  const core::CheckReport warm = core::check_trace(program, trace);

  program = make_one_thread_program();
  ASSERT_GE(victim, program.num_threads());
  dumps.clear();
  EXPECT_THROW((void)rt.run(), core::TFluxError);
  ASSERT_EQ(dumps.size(), 1u);
  EXPECT_TRUE(dumps[0].truncated);
  EXPECT_TRUE(dumps[0].records.empty())
      << "the warm run's records leaked into the failed run's trace";
  const core::CheckReport failed = core::check_trace(program, dumps[0]);
  ASSERT_EQ(failed.findings.size(), 1u) << failed.to_string(program);
  EXPECT_EQ(failed.findings[0].code, core::FindingCode::kTruncatedTrace);

  program = two_blocks;
  (void)rt.run();
  EXPECT_FALSE(trace.truncated);
  ASSERT_EQ(trace.records.size(), warm_records);
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    ASSERT_EQ(trace.records[i].seq, i);
  }
  const core::CheckReport next = core::check_trace(program, trace);
  ASSERT_EQ(next.findings.size(), warm.findings.size())
      << next.to_string(program);
  for (std::size_t i = 0; i < next.findings.size(); ++i) {
    EXPECT_EQ(next.findings[i].code, warm.findings[i].code);
    EXPECT_NE(next.findings[i].code, core::FindingCode::kTruncatedTrace);
  }
}

TEST(RuntimeEmergencyTest, SaveLoadRoundTripKeepsTheTruncatedMark) {
  core::ExecTrace trace;
  trace.program = "emergency";
  trace.truncated = true;
  core::TraceRecord r{};
  r.seq = 1;
  r.event = core::TraceEvent::kDispatch;
  r.a = 0;
  r.b = 0;
  trace.records.push_back(r);
  const core::ExecTrace loaded = core::load_trace(core::save_trace(trace));
  EXPECT_TRUE(loaded.truncated);
  ASSERT_EQ(loaded.records.size(), 1u);
  EXPECT_EQ(loaded.records[0].event, core::TraceEvent::kDispatch);
}

// The child half of the exit test: run until a second-block DThread
// calls exit(7). The atexit hook drains the trace lanes and the
// emergency writer persists them to `path`.
void run_until_exit(const std::string& path) {
  const core::Program program = make_two_block_program(true);
  static core::ExecTrace trace;  // static: outlives the exit() unwind
  runtime::RuntimeOptions options;
  options.num_kernels = 1;
  options.trace = &trace;
  options.trace_emergency = [path](core::ExecTrace& partial) {
    std::ofstream out(path);
    out << core::save_trace(partial);
  };
  runtime::Runtime rt(program, options);
  (void)rt.run();  // never returns; exit(7) fires mid-block-1
}

TEST(RuntimeEmergencyExitTest, ExitMidRunLeavesACheckableTruncatedTrace) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string path =
      ::testing::TempDir() + "emergency_exit.ddmtrace";
  std::remove(path.c_str());
  EXPECT_EXIT(run_until_exit(path), ::testing::ExitedWithCode(7), "");

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "child did not persist " << path;
  std::ostringstream text;
  text << in.rdbuf();
  const core::ExecTrace dumped = core::load_trace(text.str());
  EXPECT_TRUE(dumped.truncated);
  EXPECT_FALSE(dumped.records.empty());

  // tflux_check's verdict on the prefix: the truncated-trace
  // diagnostic - block 0 completed, block 1 stopped mid-flight, and
  // none of that may masquerade as a lifecycle violation.
  const core::Program program = make_two_block_program(true);
  const core::CheckReport report = core::check_trace(program, dumped);
  bool truncated_reported = false;
  for (const core::CheckFinding& f : report.findings) {
    if (f.code == core::FindingCode::kTruncatedTrace) {
      truncated_reported = true;
    } else {
      ADD_FAILURE() << "unexpected finding: " << f.to_string(program);
    }
  }
  EXPECT_TRUE(truncated_reported) << report.to_string(program);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tflux
