#include "src/trace/workload.h"

#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "src/trace/event_source.h"
#include "src/trace/trace_stats.h"

namespace coopfs {
namespace {

TEST(WorkloadTest, DeterministicForSameConfig) {
  const WorkloadConfig config = SmallTestWorkloadConfig(123);
  const Trace a = GenerateWorkload(config);
  const Trace b = GenerateWorkload(config);
  EXPECT_EQ(a, b);
}

TEST(WorkloadTest, DifferentSeedsGiveDifferentTraces) {
  const Trace a = GenerateWorkload(SmallTestWorkloadConfig(1));
  const Trace b = GenerateWorkload(SmallTestWorkloadConfig(2));
  EXPECT_NE(a, b);
}

TEST(WorkloadTest, ProducesRequestedEventCount) {
  WorkloadConfig config = SmallTestWorkloadConfig(5);
  config.num_events = 5000;
  const Trace trace = GenerateWorkload(config);
  // Deletes are emitted in addition to the budgeted read/write accesses.
  EXPECT_GE(trace.size(), config.num_events);
  EXPECT_LE(trace.size(), config.num_events + config.num_events / 10);
}

TEST(WorkloadTest, TimestampsNonDecreasing) {
  const Trace trace = GenerateWorkload(SmallTestWorkloadConfig(7));
  for (std::size_t i = 1; i < trace.size(); ++i) {
    ASSERT_LE(trace[i - 1].timestamp, trace[i].timestamp) << "at event " << i;
  }
}

TEST(WorkloadTest, ClientIdsInRange) {
  const WorkloadConfig config = SmallTestWorkloadConfig(7);
  const Trace trace = GenerateWorkload(config);
  std::unordered_set<ClientId> seen;
  for (const TraceEvent& event : trace) {
    ASSERT_LT(event.client, config.num_clients);
    seen.insert(event.client);
  }
  // All clients participate.
  EXPECT_EQ(seen.size(), config.num_clients);
}

TEST(WorkloadTest, DeletedFilesAreNeverTouchedAgain) {
  const Trace trace = GenerateWorkload(SmallTestWorkloadConfig(11));
  std::unordered_set<FileId> deleted;
  for (const TraceEvent& event : trace) {
    if (event.type == EventType::kDelete) {
      // A file is deleted at most once.
      ASSERT_TRUE(deleted.insert(event.block.file).second)
          << "double delete of file " << event.block.file;
    } else {
      ASSERT_FALSE(deleted.contains(event.block.file))
          << "file " << event.block.file << " used after delete";
    }
  }
  EXPECT_FALSE(deleted.empty()) << "temp class should produce deletes";
}

TEST(WorkloadTest, BlockIndicesWithinFileSize) {
  // Block indices for any file never exceed the maximum configured file
  // size across classes.
  WorkloadConfig config = SmallTestWorkloadConfig(13);
  std::uint32_t max_blocks = 0;
  for (const auto& cls : config.classes) {
    max_blocks = std::max(max_blocks, cls.max_blocks);
  }
  const Trace trace = GenerateWorkload(config);
  for (const TraceEvent& event : trace) {
    ASSERT_LT(event.block.block, max_blocks);
  }
}

TEST(WorkloadTest, MixContainsReadsAndWrites) {
  const TraceStats stats = ComputeTraceStats(GenerateWorkload(SmallTestWorkloadConfig(17)));
  EXPECT_GT(stats.num_reads, stats.num_writes);  // Read-dominated, like Sprite.
  EXPECT_GT(stats.num_writes, 0u);
}

TEST(WorkloadTest, ActivitySkewMakesSomeClientsMuchBusier) {
  WorkloadConfig config = SmallTestWorkloadConfig(19);
  config.num_clients = 16;
  config.num_events = 50'000;
  config.activity_zipf_s = 1.0;
  const TraceStats stats = ComputeTraceStats(GenerateWorkload(config));
  std::uint64_t busiest = 0;
  std::uint64_t quietest = ~0ull;
  for (const auto& [client, reads] : stats.reads_per_client) {
    busiest = std::max(busiest, reads);
    quietest = std::min(quietest, reads);
  }
  EXPECT_GT(busiest, quietest * 4) << "expected strong activity skew";
}

TEST(WorkloadTest, SpriteConfigMatchesPaperScale) {
  const WorkloadConfig config = SpriteWorkloadConfig();
  EXPECT_EQ(config.num_clients, 42u);
  EXPECT_EQ(config.num_events, 700'000u);
  EXPECT_EQ(config.duration, static_cast<Micros>(2) * 24 * 3600 * 1'000'000);
  EXPECT_FALSE(config.emit_read_attrs);
  EXPECT_EQ(config.snoop_filter_blocks, 0u);
}

TEST(WorkloadTest, AuspexConfigMatchesPaperScale) {
  const WorkloadConfig config = AuspexWorkloadConfig();
  EXPECT_EQ(config.num_clients, 237u);
  EXPECT_EQ(config.num_events, 5'000'000u);
  EXPECT_TRUE(config.emit_read_attrs);
  EXPECT_GT(config.snoop_filter_blocks, 0u);
}

TEST(WorkloadTest, SnoopedTraceSuppressesImmediateRereads) {
  // With a snoop filter, a read of a block never re-appears as a read until
  // the block could have left the filter (i.e. no two consecutive visible
  // reads of the same block by the same client without eviction pressure).
  WorkloadConfig config = SmallTestWorkloadConfig(23);
  config.snoop_filter_blocks = 64;
  config.emit_read_attrs = true;
  config.num_events = 10'000;
  const Trace trace = GenerateWorkload(config);

  // A visible read means the block was absent from the client's 64-block
  // local filter. Within any window of fewer than 64 filter touches (reads
  // and writes) the filter cannot have evicted, so a visible re-read inside
  // such a window would prove the filter is broken.
  struct Window {
    std::unordered_set<std::uint64_t> touched;
    int touches = 0;
  };
  std::unordered_map<ClientId, Window> windows;
  std::size_t attrs = 0;
  for (const TraceEvent& event : trace) {
    if (event.type == EventType::kReadAttr) {
      ++attrs;
      continue;
    }
    if (event.type == EventType::kDelete) {
      continue;  // Deleted files never recur (checked elsewhere).
    }
    Window& window = windows[event.client];
    if (event.type == EventType::kRead) {
      ASSERT_FALSE(window.touched.contains(event.block.Pack()))
          << "visible re-read while the snoop filter cannot have evicted";
    }
    window.touched.insert(event.block.Pack());
    if (++window.touches >= 60) {  // Just under the 64-block capacity.
      window = Window{};
    }
  }
  EXPECT_GT(attrs, 0u) << "snooped mode should surface read-attribute hints";
}

// 64-bit FNV-1a over every event's timestamp, client, packed block and type,
// fed byte by byte little-endian so the digest is the same on every host.
std::uint64_t TraceDigest(const WorkloadConfig& config) {
  std::uint64_t hash = 14695981039346656037ull;
  const auto mix = [&hash](std::uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      hash ^= (value >> (8 * i)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  const std::unique_ptr<EventSource> source = MakeWorkloadEventSource(config);
  std::vector<TraceEvent> chunk(4096);
  for (std::size_t n = source->NextChunk(std::span<TraceEvent>(chunk)); n > 0;
       n = source->NextChunk(std::span<TraceEvent>(chunk))) {
    for (std::size_t i = 0; i < n; ++i) {
      mix(static_cast<std::uint64_t>(chunk[i].timestamp), 8);
      mix(chunk[i].client, 4);
      mix(chunk[i].block.Pack(), 8);
      mix(static_cast<std::uint64_t>(chunk[i].type), 1);
    }
  }
  return hash;
}

// Snooped traces pinned to digests recorded from a generator that dropped a
// deleted temp file's blocks by scanning every client's snoop filter. A
// filter that kept any of those blocks would evict differently and change
// which reads stay visible, so each digest moves if a delete leaves a block
// behind.
TEST(WorkloadTest, SnoopedTracesMatchPinnedDigests) {
  WorkloadConfig delete_heavy = SmallTestWorkloadConfig(29);
  delete_heavy.num_clients = 3;
  delete_heavy.num_events = 60'000;
  delete_heavy.snoop_filter_blocks = 24;
  delete_heavy.emit_read_attrs = true;
  delete_heavy.classes[2].select_weight = 0.4;  // Temp files: 30% of opens, not 5%.

  struct Case {
    const char* name;
    WorkloadConfig config;
    std::uint64_t digest;
  };
  const auto auspex = [](std::uint64_t seed) {
    WorkloadConfig config = AuspexWorkloadConfig(seed);
    config.num_events = 250'000;
    return config;
  };
  const Case cases[] = {
      {"auspex_250k_seed1", auspex(1), 0xef4934f92b45baffull},
      {"auspex_250k_seed2", auspex(2), 0x09fd27b1c7036e3bull},
      {"delete_heavy_3_clients", delete_heavy, 0x075a8b80e96f3ee3ull},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(TraceDigest(c.config), c.digest) << c.name;
  }
}

TEST(LeffWorkloadTest, DeterministicAndWellFormed) {
  LeffWorkloadConfig config;
  config.num_events = 10'000;
  const Trace a = GenerateLeffWorkload(config);
  const Trace b = GenerateLeffWorkload(config);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), config.num_events);
  for (const TraceEvent& event : a) {
    ASSERT_EQ(event.type, EventType::kRead);
    ASSERT_LT(event.client, config.num_clients);
    ASSERT_LT(event.block.file, config.num_objects);
    ASSERT_EQ(event.block.block, 0u);
  }
}

TEST(LeffWorkloadTest, SharedFractionControlsOverlap) {
  // With shared_fraction = 1 every client draws from the same permutation,
  // so the most popular object overall should dominate; with 0, popularity
  // spreads across per-client favourites.
  LeffWorkloadConfig shared;
  shared.shared_fraction = 1.0;
  shared.num_events = 20'000;
  LeffWorkloadConfig private_only = shared;
  private_only.shared_fraction = 0.0;

  auto top_object_count = [](const Trace& trace) {
    std::unordered_map<FileId, std::uint64_t> counts;
    for (const TraceEvent& event : trace) {
      ++counts[event.block.file];
    }
    std::uint64_t top = 0;
    for (const auto& [file, count] : counts) {
      top = std::max(top, count);
    }
    return top;
  };

  EXPECT_GT(top_object_count(GenerateLeffWorkload(shared)),
            top_object_count(GenerateLeffWorkload(private_only)) * 2);
}

class WorkloadSeedProperty : public ::testing::TestWithParam<std::uint64_t> {};

// Property: every generated trace is well-formed regardless of seed.
TEST_P(WorkloadSeedProperty, WellFormedForAnySeed) {
  WorkloadConfig config = SmallTestWorkloadConfig(GetParam());
  config.num_events = 3000;
  const Trace trace = GenerateWorkload(config);
  EXPECT_GE(trace.size(), config.num_events);
  Micros last = 0;
  for (const TraceEvent& event : trace) {
    ASSERT_GE(event.timestamp, last);
    last = event.timestamp;
    ASSERT_LT(event.client, config.num_clients);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkloadSeedProperty,
                         ::testing::Values(0ull, 1ull, 42ull, 777ull, 123456789ull));

}  // namespace
}  // namespace coopfs
