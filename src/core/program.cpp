#include "core/program.h"

#include <limits>

#include "core/dataplane.h"
#include "core/error.h"

namespace tflux::core {

ThreadTable::ThreadTable(const Program& program) {
  const std::uint32_t n = program.num_threads();
  block_.reserve(n);
  ready_count_init_.reserve(n);
  home_kernel_.reserve(n);
  kind_.reserve(n);
  consumers_.off.reserve(std::size_t{n} + 1);
  for (const DThread& t : program.threads()) {
    block_.push_back(t.block);
    ready_count_init_.push_back(t.ready_count_init);
    home_kernel_.push_back(t.home_kernel);
    kind_.push_back(t.kind);
    consumers_.flat.insert(consumers_.flat.end(), t.consumers.begin(),
                           t.consumers.end());
    if (consumers_.flat.size() > std::numeric_limits<std::uint32_t>::max()) {
      throw TFluxError("ThreadTable: more than 2^32 consumer arcs");
    }
    consumers_.off.push_back(
        static_cast<std::uint32_t>(consumers_.flat.size()));
  }
}

// Programs are immutable after ProgramBuilder, so the tables never go
// stale (ProgramTestPeer drops them explicitly); the lock makes
// concurrent first users build them once.
const DataPlaneTables& Program::dataplane_tables() const {
  std::lock_guard<std::mutex> lock(tables_cache_.mutex);
  if (!tables_cache_.dataplane) {
    tables_cache_.dataplane = std::make_shared<const DataPlaneTables>(*this);
  }
  return *tables_cache_.dataplane;
}

const ThreadTable& Program::thread_table() const {
  std::lock_guard<std::mutex> lock(tables_cache_.mutex);
  if (!tables_cache_.threads) {
    tables_cache_.threads = std::make_shared<const ThreadTable>(*this);
  }
  return *tables_cache_.threads;
}

void Program::drop_tables() {
  std::lock_guard<std::mutex> lock(tables_cache_.mutex);
  if (tables_cache_.dataplane) {
    tables_cache_.dropped.push_back(std::move(tables_cache_.dataplane));
  }
  if (tables_cache_.threads) {
    tables_cache_.dropped.push_back(std::move(tables_cache_.threads));
  }
}

}  // namespace tflux::core
