// Program-static tables: the flat ThreadTable mirrors every DThread's
// protocol facts, a copied Program builds its own tables, and a
// ProgramTestPeer mutation drops the cached tables so the next replay
// sees it.
#include "core/program.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "apps/suite.h"
#include "core/builder.h"
#include "core/check.h"
#include "testing/program_test_peer.h"

namespace tflux::core {
namespace {

void expect_table_matches(const Program& program) {
  const ThreadTable& table = program.thread_table();
  std::size_t arcs = 0;
  for (const DThread& t : program.threads()) {
    ASSERT_EQ(table.block(t.id), t.block) << "thread " << t.id;
    ASSERT_EQ(table.ready_count_init(t.id), t.ready_count_init)
        << "thread " << t.id;
    ASSERT_EQ(table.home_kernel(t.id), t.home_kernel) << "thread " << t.id;
    ASSERT_EQ(table.kind(t.id), t.kind) << "thread " << t.id;
    ASSERT_EQ(table.is_application(t.id), t.is_application());
    ASSERT_EQ(table.arc_index(t.id), arcs) << "thread " << t.id;
    ASSERT_TRUE(std::ranges::equal(table.consumers(t.id), t.consumers))
        << "thread " << t.id;
    arcs += t.consumers.size();
  }
  EXPECT_EQ(table.num_arcs(), arcs);
}

TEST(ThreadTableTest, MatchesTheDThreadsOfEveryShippedAppAndSize) {
  for (apps::AppKind kind : apps::all_apps()) {
    for (apps::SizeClass size : {apps::SizeClass::kSmall,
                                 apps::SizeClass::kMedium,
                                 apps::SizeClass::kLarge}) {
      SCOPED_TRACE(std::string(apps::to_string(kind)) + " " +
                   apps::to_string(size));
      const apps::AppRun run =
          apps::build_app(kind, size, apps::Platform::kNative, {});
      expect_table_matches(run.program);
    }
  }
}

/// a -> b in one block; ids a=0, b=1, inlet=2, outlet=3.
Program make_chain() {
  ProgramBuilder b("chain");
  const BlockId b0 = b.add_block();
  const ThreadId a = b.add_thread(b0, "a", {});
  const ThreadId x = b.add_thread(b0, "b", {});
  b.add_arc(a, x);
  return b.build(BuildOptions{.num_kernels = 1});
}

TEST(ThreadTableTest, CopiedProgramRebuildsItsTable) {
  const Program program = make_chain();
  const ThreadTable& original = program.thread_table();
  EXPECT_EQ(&original, &program.thread_table());  // built once

  const Program copy = program;
  EXPECT_NE(&copy.thread_table(), &original);
  expect_table_matches(copy);

  Program assigned;
  (void)assigned.thread_table();
  assigned = program;
  EXPECT_NE(&assigned.thread_table(), &original);
  expect_table_matches(assigned);
}

void add(ExecTrace& t, TraceEvent event, std::uint32_t a, std::uint32_t b) {
  TraceRecord r;
  r.seq = t.records.size();
  r.event = event;
  r.a = a;
  r.b = b;
  t.records.push_back(r);
}

TEST(ThreadTableTest, PeerMutationIsSeenByTheNextReplay) {
  Program program = make_chain();
  ExecTrace trace;
  trace.kernels = 1;
  trace.groups = 1;
  trace.pipelined = false;
  add(trace, TraceEvent::kDispatch, 2, 0);  // inlet
  add(trace, TraceEvent::kComplete, 2, 0);
  add(trace, TraceEvent::kInletLoad, 0, 0);
  add(trace, TraceEvent::kDispatch, 0, 0);  // a
  add(trace, TraceEvent::kComplete, 0, 0);
  add(trace, TraceEvent::kUpdate, 0, 1);
  add(trace, TraceEvent::kDispatch, 1, 0);  // b
  add(trace, TraceEvent::kComplete, 1, 0);
  add(trace, TraceEvent::kUpdate, 1, 3);
  add(trace, TraceEvent::kDispatch, 3, 0);  // outlet
  add(trace, TraceEvent::kComplete, 3, 0);
  add(trace, TraceEvent::kOutletDone, 0, 0);
  const CheckReport clean = check_trace(program, trace);
  ASSERT_TRUE(clean.clean()) << clean.to_string(program);

  // b now claims two producers; the trace delivered one update before
  // its dispatch. A stale table would still replay it clean.
  ProgramTestPeer::thread(program, 1).ready_count_init = 2;
  const CheckReport report = check_trace(program, trace);
  ASSERT_FALSE(report.clean());
  EXPECT_EQ(report.findings.front().code, CheckDiag::kPrematureDispatch);
  EXPECT_EQ(report.findings.front().thread, 1u);
  EXPECT_EQ(program.thread_table().ready_count_init(1), 2u);
}

}  // namespace
}  // namespace tflux::core
