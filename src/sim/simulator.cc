#include "src/sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <span>
#include <vector>

#include "src/common/logging.h"
#include "src/common/profiler.h"
#include "src/engine/cache_engine.h"
#include "src/obs/snapshot_sampler.h"
#include "src/obs/stream_stats.h"

namespace coopfs {

namespace {

// Events pulled per EventSource chunk: the replay loop's only per-trace
// buffer (96 KB), sized to amortize the virtual-call overhead to nothing
// while staying cache-resident.
constexpr std::size_t kReplayChunkEvents = 4096;

// Reads the instantaneous StateProbe gauges off the live context. O(cached
// blocks); runs only at sample boundaries, never per event. Client caches
// are materialized lazily (scale-out: most of a million clients never issue
// an access), so untouched clients contribute capacity but no contents.
StateProbe BuildStateProbe(SimContext& context) {
  StateProbe probe;
  for (ClientId c = 0; c < context.num_clients(); ++c) {
    if (const BlockCache* cache = context.client_cache_if_materialized(c)) {
      probe.client_blocks_used += cache->size();
      probe.recirculating_copies += cache->RecirculatingCount();
      probe.dirty_blocks += cache->DirtyCount();
    }
    probe.client_blocks_capacity += context.client_cache_capacity_blocks();
  }
  for (std::uint32_t s = 0; s < context.num_servers(); ++s) {
    const BlockCache& cache = context.server_cache(s);
    probe.server_blocks_used += cache.size();
    probe.server_blocks_capacity += cache.capacity();
  }
  const Directory::DuplicationCounts dup = context.directory().CountDuplication();
  probe.singlet_blocks = dup.singlets;
  probe.duplicate_blocks = dup.duplicates;
  probe.directory_blocks = dup.singlets + dup.duplicates;
  for (std::size_t kind = 0; kind < kNumServerLoadKinds; ++kind) {
    probe.load_units[kind] = context.server_load().Units(static_cast<ServerLoadKind>(kind));
  }
  return probe;
}

}  // namespace

Simulator::Simulator(SimulationConfig config, const Trace* trace) : config_(config) {
  assert(trace != nullptr);
  owned_source_ = std::make_shared<MaterializedEventSource>(trace);
  source_ = owned_source_.get();
  num_clients_ = config.num_clients;
  if (num_clients_ == 0) {
    for (const TraceEvent& event : *trace) {
      num_clients_ = std::max(num_clients_, event.client + 1);
    }
  }
}

Simulator::Simulator(SimulationConfig config, EventSource* source)
    : config_(config), source_(source) {
  assert(source_ != nullptr);
  num_clients_ = config.num_clients != 0 ? config.num_clients : source_->NumClientsHint();
}

Result<SimulationResult> Simulator::Run(Policy& policy, const ContextInspector& inspect) {
  COOPFS_PROFILE_SCOPE("sim/run");
  source_->Reset();
  std::vector<TraceEvent> chunk(kReplayChunkEvents);
  std::size_t chunk_size = source_->NextChunk(std::span<TraceEvent>(chunk));
  if (chunk_size == 0) {
    return Status::InvalidArgument("empty trace");
  }
  if (num_clients_ == 0) {
    return Status::InvalidArgument("no clients");
  }

  // The replay loop is the engine's single-shard fast path: one client of
  // the same CacheEngine API the serve harness drives concurrently. The
  // engine binds to this run's config and policy and performs the identical
  // per-operation sequence the pre-engine loop inlined here, so replay stays
  // byte-identical (the engine-oracle ctest holds that line).
  CacheEngine engine(config_, num_clients_, policy);
  SimContext& context = engine.context();

  // Event-level tracing (src/obs/trace_recorder.h). The simulator opens and
  // closes read spans itself; policies annotate them through SimContext.
  TraceRecorder* tracer = config_.trace_recorder;
  if (tracer != nullptr) {
    tracer->BeginRun(policy.Name(), num_clients_);
  }

  // State sampling (src/obs/snapshot_sampler.h): the one sampler a replay
  // runs is the attached config_.snapshot_sampler, if any.
  const Micros first_timestamp = chunk.front().timestamp;
  SnapshotSampler* sampler = config_.snapshot_sampler;
  if (sampler != nullptr) {
    sampler->BeginRun(policy.Name(), num_clients_, config_.sample_interval, first_timestamp);
  }

  SimulationResult result;
  result.policy_name = policy.Name();

  // Metrics accounting: exact per-client arrays (kFull) or the O(K)
  // streaming collector (kBounded, src/obs/stream_stats.h). The collector
  // is seeded from the config so identical replays summarize identically;
  // its memory depends only on its options, never on num_clients_.
  std::unique_ptr<StreamStatsCollector> stream;
  if (config_.metrics_detail == MetricsDetail::kBounded) {
    StreamStatsOptions stream_options;
    stream_options.seed = config_.seed;
    stream = std::make_unique<StreamStatsCollector>(stream_options);
  } else {
    result.per_client.resize(num_clients_);
  }

  std::uint64_t index = 0;
  Micros last_timestamp = first_timestamp;
  while (chunk_size > 0) {
    for (std::size_t ci = 0; ci < chunk_size; ++ci) {
      const TraceEvent& event = chunk[ci];
      context.set_now(event.timestamp);
      context.set_accounting(index >= config_.warmup_events);
      context.CountEvent();
      if (tracer != nullptr) {
        tracer->SetEventContext(index, event.timestamp);
      }
      if (event.client >= num_clients_) {
        return Status::InvalidArgument("event client id out of range at event " +
                                       std::to_string(index));
      }
      // Sample boundaries fire before the event that crosses them: the
      // emitted windows cover [previous boundary, boundary) in event time.
      if (sampler != nullptr) {
        if (sampler->SampleDue(event.timestamp)) {
          COOPFS_PROFILE_SCOPE("sim/sample_state");
          sampler->CaptureDue(event.timestamp, BuildStateProbe(context));
        }
        if (index == config_.warmup_events && index > 0) {
          COOPFS_PROFILE_SCOPE("sim/sample_state");
          sampler->CaptureWarmupEnd(event.timestamp, BuildStateProbe(context));
        }
        sampler->OnEvent();
      }
      engine.Tick();
      switch (event.type) {
        case EventType::kRead: {
          COOPFS_PROFILE_SCOPE("sim/read");
          const EngineOutcome engine_outcome = engine.Lookup(event.client, event.block);
          const ReadOutcome& outcome = engine_outcome.read;
          const Micros latency = engine_outcome.latency_us;
          const bool counted = context.accounting();
          if (sampler != nullptr) {
            sampler->RecordRead(event.client, outcome.level, latency, counted);
          }
          if (counted) {
            const auto level = static_cast<std::size_t>(outcome.level);
            result.level_counts.Add(level);
            result.level_time_us[level] += static_cast<double>(latency);
            ++result.reads;
            if (stream != nullptr) {
              stream->OnRead(event.client, event.block, outcome.level, latency);
            } else {
              ClientReadStats& client_stats = result.per_client[event.client];
              ++client_stats.reads;
              client_stats.total_time_us += static_cast<double>(latency);
            }
            result.latency_histogram.Add(static_cast<double>(latency));
          }
          break;
        }
        case EventType::kWrite: {
          COOPFS_PROFILE_SCOPE("sim/write");
          engine.Admit(event.client, event.block);
          break;
        }
        case EventType::kDelete: {
          COOPFS_PROFILE_SCOPE("sim/delete");
          engine.Evict(event.client, event.block.file);
          break;
        }
        case EventType::kReadAttr: {
          COOPFS_PROFILE_SCOPE("sim/readattr");
          engine.ReadAttr(event.client, event.block.file);
          break;
        }
        case EventType::kReboot: {
          COOPFS_PROFILE_SCOPE("sim/reboot");
          engine.Reboot(event.client);
          break;
        }
      }
      ++index;
    }
    last_timestamp = chunk[chunk_size - 1].timestamp;
    chunk_size = source_->NextChunk(std::span<TraceEvent>(chunk));
  }

  // Close the final (partial) windows at the last trace timestamp.
  if (sampler != nullptr) {
    COOPFS_PROFILE_SCOPE("sim/sample_state");
    sampler->CaptureRunEnd(last_timestamp, BuildStateProbe(context));
  }

  COOPFS_PROFILE_SCOPE("sim/finalize");

  if (stream != nullptr) {
    result.bounded = stream->Summarize(num_clients_);
  }
  result.server_load = context.server_load();
  result.counters = context.counters();
  result.writes = context.write_stats().writes;
  result.flushed_writes = context.write_stats().flushed;
  result.absorbed_writes = context.write_stats().absorbed;
  result.lost_writes = context.write_stats().lost;
  if (inspect) {
    inspect(context);
  }
  COOPFS_LOG(kInfo) << result.ToString();
  return result;
}

}  // namespace coopfs
