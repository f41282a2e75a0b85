// Hit-count oracle for Baseline: a reference model that shares no code with
// the simulator's caches, directory or policies.
//
// The model is the plain client/server hierarchy of paper §3 written out
// with one std::list + std::unordered_map LRU per client and one for the
// server. A read hits the reader's cache, else the server's, else disk, and
// a miss installs the block at the server (on a disk read) and at the
// reader. A write-through write invalidates the other clients' copies, then
// refreshes or inserts the block at the server and at the writer. A
// whole-file delete removes every cached block of the file, and a reboot
// empties the client's cache. The Sprite trace is replayed at every cache
// size of Figures 11 and 12, and Baseline's local, server and disk counts
// must equal the model's exactly (trace-driven comparison, Jain '89).
#include <algorithm>
#include <cstdint>
#include <functional>
#include <list>
#include <ostream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/baseline.h"
#include "src/sim/simulator.h"
#include "src/trace/warmup.h"
#include "src/trace/workload.h"

namespace coopfs {
namespace {

constexpr std::uint64_t kEvents = 100'000;
constexpr std::size_t kBlocksPerMiB = 128;  // 8 KB blocks.

struct BlockKey {
  FileId file;
  BlockIndex index;
  friend bool operator==(const BlockKey&, const BlockKey&) = default;
};

struct BlockKeyHash {
  std::size_t operator()(const BlockKey& key) const {
    return std::hash<std::uint64_t>{}((std::uint64_t{key.file} << 32) ^ key.index);
  }
};

// A fixed-capacity LRU set of blocks; the front of `order_` is the most
// recently used block.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  // Moves `key` to the front if present.
  bool Touch(const BlockKey& key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      return false;
    }
    order_.splice(order_.begin(), order_, it->second);
    return true;
  }

  // Touches `key`, or inserts it at the front after evicting the back if
  // the set is full.
  void Refresh(const BlockKey& key) {
    if (capacity_ == 0 || Touch(key)) {
      return;
    }
    if (order_.size() == capacity_) {
      index_.erase(order_.back());
      order_.pop_back();
      ++evictions_;
    }
    order_.push_front(key);
    index_.emplace(key, order_.begin());
  }

  void Erase(const BlockKey& key) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      order_.erase(it->second);
      index_.erase(it);
    }
  }

  void Clear() {
    order_.clear();
    index_.clear();
  }

  std::uint64_t evictions() const { return evictions_; }

 private:
  std::size_t capacity_;
  std::list<BlockKey> order_;
  std::unordered_map<BlockKey, std::list<BlockKey>::iterator, BlockKeyHash> index_;
  std::uint64_t evictions_ = 0;
};

struct ReferenceCounts {
  std::uint64_t local = 0;
  std::uint64_t server = 0;
  std::uint64_t disk = 0;
  std::uint64_t client_evictions = 0;
  std::uint64_t server_evictions = 0;
};

ReferenceCounts RunReference(const Trace& trace, std::size_t client_blocks,
                             std::size_t server_blocks, std::uint64_t warmup_events) {
  std::uint32_t num_clients = 0;
  for (const TraceEvent& event : trace) {
    num_clients = std::max(num_clients, event.client + 1);
  }
  std::vector<ReferenceLru> clients(num_clients, ReferenceLru(client_blocks));
  ReferenceLru server(server_blocks);
  std::unordered_map<FileId, std::unordered_set<BlockIndex>> file_blocks;

  ReferenceCounts counts;
  std::uint64_t index = 0;
  for (const TraceEvent& event : trace) {
    const bool counted = index++ >= warmup_events;
    const BlockKey key{event.block.file, event.block.block};
    ReferenceLru& own = clients[event.client];
    switch (event.type) {
      case EventType::kRead:
        file_blocks[key.file].insert(key.index);
        if (own.Touch(key)) {
          counts.local += counted ? 1 : 0;
        } else {
          if (server.Touch(key)) {
            counts.server += counted ? 1 : 0;
          } else {
            counts.disk += counted ? 1 : 0;
            server.Refresh(key);
          }
          own.Refresh(key);
        }
        break;
      case EventType::kWrite:
        file_blocks[key.file].insert(key.index);
        for (ClientId c = 0; c < num_clients; ++c) {
          if (c != event.client) {
            clients[c].Erase(key);
          }
        }
        server.Refresh(key);
        own.Refresh(key);
        break;
      case EventType::kDelete:
        for (BlockIndex block : file_blocks[key.file]) {
          const BlockKey doomed{key.file, block};
          for (ReferenceLru& client : clients) {
            client.Erase(doomed);
          }
          server.Erase(doomed);
        }
        file_blocks.erase(key.file);
        break;
      case EventType::kReboot:
        own.Clear();
        break;
      case EventType::kReadAttr:
        ADD_FAILURE() << "the reference model does not replay read-attribute events";
        break;
    }
  }
  for (const ReferenceLru& client : clients) {
    counts.client_evictions += client.evictions();
  }
  counts.server_evictions = server.evictions();
  return counts;
}

const Trace& SpriteTrace() {
  static const Trace trace = [] {
    WorkloadConfig workload = SpriteWorkloadConfig(1);
    workload.num_events = kEvents;
    workload.mean_reboots_per_client = 2.0;
    return GenerateWorkload(workload);
  }();
  return trace;
}

struct CacheSizes {
  std::size_t client_mib;
  std::size_t server_mib;
};

void PrintTo(const CacheSizes& sizes, std::ostream* out) {
  *out << "client" << sizes.client_mib << "_server" << sizes.server_mib;
}

class BaselineReference : public ::testing::TestWithParam<CacheSizes> {};

TEST_P(BaselineReference, BaselineCountsEqualTheReferenceModel) {
  const CacheSizes& sizes = GetParam();
  const Trace& trace = SpriteTrace();
  const std::uint64_t warmup = SpriteWarmupEvents(kEvents);

  SimulationConfig config;
  config.WithClientCacheMiB(sizes.client_mib).WithServerCacheMiB(sizes.server_mib);
  config.warmup_events = warmup;
  ASSERT_EQ(config.client_cache_blocks, sizes.client_mib * kBlocksPerMiB);
  BaselinePolicy policy;
  Result<SimulationResult> result = Simulator(config, &trace).Run(policy);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const ReferenceCounts expected = RunReference(trace, sizes.client_mib * kBlocksPerMiB,
                                                sizes.server_mib * kBlocksPerMiB, warmup);
  auto level = [&result](CacheLevel which) {
    return result->level_counts.Get(static_cast<std::size_t>(which));
  };
  EXPECT_EQ(level(CacheLevel::kLocalMemory), expected.local);
  EXPECT_EQ(level(CacheLevel::kRemoteClient), 0u);
  EXPECT_EQ(level(CacheLevel::kServerMemory), expected.server);
  EXPECT_EQ(level(CacheLevel::kServerDisk), expected.disk);
  // Not vacuous: below the trace's footprint the model's caches evict (the
  // client caches at 16 MiB and below, the server cache at 128 MiB and
  // below), so the comparison covers LRU replacement, not only fills.
  if (sizes.client_mib <= 16) {
    EXPECT_GT(expected.client_evictions, 0u);
  }
  if (sizes.server_mib <= 128) {
    EXPECT_GT(expected.server_evictions, 0u);
  }
}

// The 13 cache sizes of Figure 11 (clients at 2-64 MiB, 128 MiB server) and
// Figure 12 (server at 32-1,024 MiB, 16 MiB clients); both figures share
// the 16 MiB / 128 MiB point.
INSTANTIATE_TEST_SUITE_P(
    Figures11And12, BaselineReference,
    ::testing::Values(CacheSizes{2, 128}, CacheSizes{4, 128}, CacheSizes{8, 128},
                      CacheSizes{16, 128}, CacheSizes{32, 128}, CacheSizes{64, 128},
                      CacheSizes{16, 32}, CacheSizes{16, 64}, CacheSizes{16, 256},
                      CacheSizes{16, 512}, CacheSizes{16, 768}, CacheSizes{16, 1024}),
    [](const ::testing::TestParamInfo<CacheSizes>& row) {
      return "client" + std::to_string(row.param.client_mib) + "_server" +
             std::to_string(row.param.server_mib);
    });

}  // namespace
}  // namespace coopfs
