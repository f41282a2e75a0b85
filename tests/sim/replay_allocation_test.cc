// Proves the steady-state replay path performs zero heap allocations once
// the per-run arena is warm.
//
// This TU overrides the global allocation operators and forwards every
// acquisition to the profiler's allocation counter
// (Profiler::RecordAllocation); the library itself never touches the global
// allocator, so the counters are exact for this process. The probe policy
// wraps a real policy and snapshots the counter at the simulator's warm-up
// boundary and after every subsequent event — the difference is the heap
// traffic of the post-warm-up replay loop alone, excluding simulator
// construction and result materialization.
//
// Two properties are pinned:
//   * with a warmed arena (one throwaway run, then Arena::Reset), the
//     post-warm-up replay loop allocates exactly zero times — the property
//     the parallel-sweep fix rests on;
//   * the arena acquires no new chunks across repeated Reset+run cycles
//     (heap traffic in Arena::stats() terms), so sweeps are allocation-free
//     from the second job onward.
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "src/common/arena.h"
#include "src/common/profiler.h"
#include "src/core/policy_factory.h"
#include "src/sim/simulator.h"
#include "src/trace/workload.h"
#include "tests/testing/scripted.h"

// ---- Global allocation hooks (this TU owns the process's operator new) ----

namespace {

void* CountedAlloc(std::size_t size) {
  coopfs::Profiler::RecordAllocation();
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::size_t alignment) {
  coopfs::Profiler::RecordAllocation();
  const std::size_t padded = (size + alignment - 1) / alignment * alignment;
  void* p = std::aligned_alloc(alignment, padded != 0 ? padded : alignment);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t alignment) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(alignment));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace coopfs {
namespace {

// Forwards every Policy call to the wrapped policy while watching the
// profiler's allocation counter. Tick() runs once per trace event with the
// clock already advanced, so counting ticks mirrors the simulator's own
// warm-up accounting: once `warmup_events` ticks have passed, the counter
// is snapshotted, and every later tick refreshes the end-of-window reading.
class AllocationProbePolicy : public Policy {
 public:
  AllocationProbePolicy(std::unique_ptr<Policy> inner, std::uint64_t warmup_events)
      : inner_(std::move(inner)), warmup_events_(warmup_events) {}

  std::string Name() const override { return inner_->Name(); }
  std::size_t ClientCacheBlocks(const SimulationConfig& config) const override {
    return inner_->ClientCacheBlocks(config);
  }
  std::size_t ServerCacheBlocks(const SimulationConfig& config) const override {
    return inner_->ServerCacheBlocks(config);
  }
  void Attach(SimContext& context) override { inner_->Attach(context); }
  ReadOutcome Read(ClientId client, BlockId block) override {
    return inner_->Read(client, block);
  }
  void Write(ClientId client, BlockId block) override { inner_->Write(client, block); }
  void Delete(ClientId client, FileId file) override { inner_->Delete(client, file); }
  void ReadAttr(ClientId client, FileId file) override { inner_->ReadAttr(client, file); }
  void Reboot(ClientId client) override { inner_->Reboot(client); }

  void Tick() override {
    ++events_;
    if (events_ == warmup_events_) {
      at_warmup_ = Profiler::AllocationCount();
      at_end_ = at_warmup_;
    } else if (events_ > warmup_events_) {
      at_end_ = Profiler::AllocationCount();
    }
    inner_->Tick();
  }

  bool SawWarmupBoundary() const { return events_ >= warmup_events_; }
  std::uint64_t SteadyStateAllocations() const { return at_end_ - at_warmup_; }

 private:
  std::unique_ptr<Policy> inner_;
  std::uint64_t warmup_events_;
  std::uint64_t events_ = 0;
  std::uint64_t at_warmup_ = 0;
  std::uint64_t at_end_ = 0;
};

class ReplayAllocationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Four clients keep every Directory::HolderList copy within its inline
    // capacity; spills would be heap traffic by design (copies must outlive
    // the arena).
    WorkloadConfig workload = SmallTestWorkloadConfig(11);
    workload.num_clients = 4;
    workload.num_events = 30'000;
    trace_ = new Trace(GenerateWorkload(workload));
  }
  static void TearDownTestSuite() {
    delete trace_;
    trace_ = nullptr;
  }

  static SimulationConfig ArenaConfig(Arena* arena) {
    SimulationConfig config = TinyConfig(64, 256);
    config.warmup_events = trace_->size() / 2;
    config.arena = arena;
    return config;
  }

  static Trace* trace_;
};

Trace* ReplayAllocationTest::trace_ = nullptr;

TEST_F(ReplayAllocationTest, SteadyStateReplayIsAllocationFreeOnWarmArena) {
  for (PolicyKind kind : {PolicyKind::kBaseline, PolicyKind::kNChance}) {
    Arena arena;
    const SimulationConfig config = ArenaConfig(&arena);

    // Warm-up run: grows the arena's chunk list and faults its pages, and
    // sizes the policy's own structures for this trace.
    {
      Simulator warm(config, trace_);
      auto policy = MakePolicy(kind, {});
      const auto result = warm.Run(*policy);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
    }
    arena.Reset();

    // Measured run on the warmed arena: the post-warm-up replay loop must
    // not touch the global heap at all.
    Simulator simulator(config, trace_);
    AllocationProbePolicy probe(MakePolicy(kind, {}), config.warmup_events);
    const auto result = simulator.Run(probe);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_TRUE(probe.SawWarmupBoundary());
    EXPECT_EQ(probe.SteadyStateAllocations(), 0u)
        << probe.Name() << ": post-warm-up replay hit the heap";
  }
}

TEST_F(ReplayAllocationTest, ArenaAcquiresNoChunksAfterTheFirstRun) {
  Arena arena;
  const SimulationConfig config = ArenaConfig(&arena);
  auto run_once = [&] {
    arena.Reset();
    Simulator simulator(config, trace_);
    auto policy = MakePolicy(PolicyKind::kNChance, {});
    const auto result = simulator.Run(*policy);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  };
  run_once();
  const Arena::Stats warm = arena.stats();
  for (int i = 0; i < 3; ++i) {
    run_once();
  }
  const Arena::Stats after = arena.stats();
  EXPECT_EQ(after.chunk_allocations, warm.chunk_allocations)
      << "repeat runs forced new arena chunks";
  EXPECT_EQ(after.chunks, warm.chunks);
}

}  // namespace
}  // namespace coopfs
