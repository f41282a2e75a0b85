#include "src/core/sweep.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "src/common/arena.h"

namespace coopfs {
namespace {

// One result slot per job, padded to its own cache line(s): adjacent jobs
// finish on different workers, and an unpadded vector would put several
// result headers on one line, bouncing it between cores on every store.
struct alignas(64) PaddedResultSlot {
  Result<SimulationResult> value{Status::Internal("job never ran")};
};

}  // namespace

std::vector<Result<SimulationResult>> RunSimulationsParallel(
    const Trace& trace, const std::vector<SimulationJob>& jobs, std::size_t threads) {
  const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (threads == 0) {
    threads = hardware;
  }
  // Never oversubscribe: replay is CPU-bound, so threads beyond the core
  // count cannot add throughput — they only add context switches and, with
  // per-worker arenas, multiply the resident working set that timesliced
  // workers then thrash through one core's cache. Asking for 8 threads on a
  // 4-core host runs 4.
  threads = std::min({threads, jobs.size(), hardware});

  std::vector<PaddedResultSlot> slots(jobs.size());
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    Arena arena;
    for (std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
         index < jobs.size(); index = next.fetch_add(1, std::memory_order_relaxed)) {
      const SimulationJob& job = jobs[index];
      // Each job starts from an empty (but, after the first job, fully
      // page-warmed) allocation window.
      arena.Reset();
      SimulationConfig config = job.config;
      config.arena = &arena;
      Simulator simulator(config, &trace);
      auto policy = MakePolicy(job.kind, job.params);
      slots[index].value = simulator.Run(*policy);
    }
  };
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back(worker);
    }
    for (std::thread& thread : pool) {
      thread.join();
    }
  }

  std::vector<Result<SimulationResult>> results;
  results.reserve(jobs.size());
  for (PaddedResultSlot& slot : slots) {
    results.push_back(std::move(slot.value));
  }
  return results;
}

}  // namespace coopfs
