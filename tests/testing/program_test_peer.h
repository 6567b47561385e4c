// Test-only backdoor into core::Program. ProgramBuilder cannot emit a
// Program with inconsistent Ready Counts or sink counts (it computes
// them), so verifier tests corrupt a well-formed Program through this
// peer to simulate the bugs ddmlint exists to catch (e.g. a hand-built
// TSU image or a miscompiled preprocessor output). Every accessor drops
// the Program's cached tables, so the next run or replay sees the
// corruption.
#pragma once

#include "core/program.h"

namespace tflux::core {

class ProgramTestPeer {
 public:
  static DThread& thread(Program& program, ThreadId id) {
    program.drop_tables();
    return program.threads_[id];
  }
  static Block& block(Program& program, BlockId id) {
    program.drop_tables();
    return program.blocks_[id];
  }
  static std::vector<CrossBlockArc>& cross_block_arcs(Program& program) {
    program.drop_tables();
    return program.cross_block_arcs_;
  }
};

}  // namespace tflux::core
