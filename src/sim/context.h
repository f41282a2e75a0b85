// Shared simulation state operated on by cooperative caching policies.
//
// SimContext owns the simulated machines' caches (one BlockCache per client
// plus the server cache), the server's directory of client cache contents,
// policy randomness, the simulation clock, and the server-load tracker. The
// Simulator builds a fresh context per run; policies manipulate it through
// the hooks in policy.h.
#ifndef COOPFS_SRC_SIM_CONTEXT_H_
#define COOPFS_SRC_SIM_CONTEXT_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <vector>

#include "src/cache/block_cache.h"
#include "src/cache/directory.h"
#include "src/common/arena.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/model/server_load.h"
#include "src/obs/snapshot_sampler.h"
#include "src/obs/trace_recorder.h"
#include "src/sim/config.h"
#include "src/sim/counters.h"

namespace coopfs {

class SimContext {
 public:
  // Directory shards resolved from the config (see config.h): explicit
  // counts are honored; 0 derives one shard per 16k clients, clamped to
  // [1, 64], so paper-scale runs keep the single-shard layout.
  static std::uint32_t ResolveDirectoryShards(const SimulationConfig& config,
                                              std::uint32_t num_clients) {
    if (config.directory_shards != 0) {
      return config.directory_shards;
    }
    std::uint32_t shards = 1;
    while (shards < 64 && static_cast<std::uint64_t>(shards) * 16384 < num_clients) {
      shards <<= 1;
    }
    return shards;
  }

  SimContext(const SimulationConfig& config, std::uint32_t num_clients,
             std::size_t client_cache_blocks, std::size_t server_cache_blocks)
      : config_(config),
        num_clients_(num_clients),
        arena_(config.arena),
        directory_(config.arena, ResolveDirectoryShards(config, num_clients)),
        rng_(config.seed),
        tracer_(config.trace_recorder),
        sampler_(config.snapshot_sampler),
        client_cache_blocks_(client_cache_blocks) {
    directory_.set_op_counter(&counters_.directory_ops);
    if (tracer_ != nullptr) {
      directory_.set_observer(tracer_);
    }
    // Client caches materialize lazily on first access (client_cache):
    // scale-out populations leave most of a million clients untouched, and
    // an eagerly built BlockCache slab per client would be O(clients x
    // capacity) memory. Replay results are unaffected — a never-accessed
    // cache is indistinguishable from an empty one.
    client_caches_.resize(num_clients);
    // The configured server memory is divided evenly among the servers.
    const std::uint32_t servers = std::max<std::uint32_t>(1, config.num_servers);
    server_caches_.reserve(servers);
    for (std::uint32_t s = 0; s < servers; ++s) {
      server_caches_.push_back(MakeCache(server_cache_blocks / servers));
    }
    // Pre-size the directory so steady-state replay rarely (in practice
    // never) rehashes. The derived default is half the aggregate cache
    // capacity; a workload that exceeds the hint pays one amortized table
    // growth, visible in the "flat_map/rehash" profiler span. An explicit
    // hint is honored exactly.
    const std::size_t reserve_blocks =
        config.index_reserve_blocks != 0
            ? config.index_reserve_blocks
            : (num_clients * client_cache_blocks + server_cache_blocks) / 2;
    directory_.Reserve(reserve_blocks, reserve_blocks / 8 + 1);
  }

  const SimulationConfig& config() const { return config_; }
  std::uint32_t num_clients() const { return num_clients_; }
  std::uint32_t num_servers() const { return static_cast<std::uint32_t>(server_caches_.size()); }

  BlockCache& client_cache(ClientId c) {
    CachePtr& slot = client_caches_[c];
    if (!slot) {
      slot = MakeCache(client_cache_blocks_);
      if (client_victim_classes_.has_value()) {
        slot->TrackVictimClasses(*client_victim_classes_);
      }
    }
    return *slot;
  }

  // Client caches keep N-Chance victim-class sublists for recirculation
  // counts up to `max_count` (see BlockCache), from now on and for every
  // cache materialized later. N-Chance policies call this on attach; server
  // caches and other policies' caches never track.
  void TrackClientVictimClasses(std::uint8_t max_count) {
    client_victim_classes_ = max_count;
    for (CachePtr& cache : client_caches_) {
      if (cache) {
        cache->TrackVictimClasses(max_count);
      }
    }
  }

  // The cache if this client has ever been touched, else null (state
  // sampling/validation: never materializes, so probing a million-client
  // context stays O(touched clients) memory).
  const BlockCache* client_cache_if_materialized(ClientId c) const {
    return client_caches_[c].get();
  }

  // Per-client cache capacity in blocks (identical for all clients;
  // unmaterialized caches count toward capacity gauges at this size).
  std::size_t client_cache_capacity_blocks() const { return client_cache_blocks_; }

  // The server responsible for `file` (files are hash-striped; with one
  // server this is always server 0, the paper's configuration).
  std::uint32_t ServerFor(FileId file) const {
    return num_servers() == 1
               ? 0u
               : static_cast<std::uint32_t>(
                     std::hash<coopfs::BlockId>{}(BlockId{file, 0}) % num_servers());
  }

  BlockCache& server_cache_for(BlockId block) { return *server_caches_[ServerFor(block.file)]; }
  BlockCache& server_cache(std::uint32_t server = 0) { return *server_caches_[server]; }
  Directory& directory() { return directory_; }
  Rng& rng() { return rng_; }

  Micros now() const { return now_; }
  void set_now(Micros now) { now_ = now; }

  // Metrics are collected only after warm-up; load charges before that are
  // dropped.
  bool accounting() const { return accounting_; }
  void set_accounting(bool on) { accounting_ = on; }

  ServerLoadTracker& server_load() { return server_load_; }

  // ---- Replay counters (tracing extension; see counters.h) ----
  // Unlike the server-load charges below, these are NOT warm-up gated: they
  // trace simulator work over the whole run.
  const SimCounters& counters() const { return counters_; }
  void CountEvent() { ++counters_.events_replayed; }
  void CountRemoteForward() { ++counters_.remote_forwards; }
  void CountRecirculation() { ++counters_.recirculations; }
  void CountInvalidation() { ++counters_.invalidations; }

  // ---- Event-level tracing (no-ops unless a recorder is attached) ----
  // The Simulator drives span open/close directly on the recorder; these
  // hooks are the policy-facing annotation points. See trace_recorder.h.
  TraceRecorder* tracer() { return tracer_; }

  // Annotates the open read span with the remote client whose memory
  // supplied the data. Policies with remote hits the server never sees
  // (private remote caches, hash partitions) call this directly; server-
  // forwarded hits go through ChargeRemoteClientHit below.
  void TraceForward(ClientId holder) {
    if (tracer_ != nullptr) {
      tracer_->AnnotateForward(holder);
    }
    if (sampler_ != nullptr) {
      sampler_->NoteForward(holder);
    }
  }
  void TraceWrite(ClientId writer, BlockId block) {
    if (tracer_ != nullptr) {
      tracer_->RecordWrite(writer, block);
    }
  }
  // `writer` is kNoClient for whole-file deletes.
  void TraceInvalidation(BlockId block, ClientId holder, ClientId writer) {
    if (tracer_ != nullptr) {
      tracer_->RecordInvalidation(block, holder, writer);
    }
  }
  // `count` is the recirculation count remaining on the forwarded copy.
  void TraceRecirculation(ClientId from, ClientId to, BlockId block, int count) {
    if (tracer_ != nullptr) {
      tracer_->RecordRecirculation(from, to, block, count);
    }
  }

  // ---- Server-load charging (no-ops during warm-up) ----
  void ChargeServerMemoryHit() {
    if (accounting_) {
      server_load_.ChargeServerMemoryHit();
    }
  }
  // `holder` is the client the server forwarded the read to (recorded on the
  // open trace span; pass kNoClient only if genuinely unknown).
  void ChargeRemoteClientHit(ClientId holder) {
    CountRemoteForward();
    TraceForward(holder);
    if (accounting_) {
      server_load_.ChargeRemoteClientHit();
    }
  }
  void ChargeDiskHit() {
    if (accounting_) {
      server_load_.ChargeDiskHit();
    }
  }
  void ChargeSmallMessages(std::uint64_t messages) {
    if (accounting_) {
      server_load_.ChargeSmallMessages(messages);
    }
  }

  // ---- Delayed-write accounting (extension) ----
  struct WriteStats {
    std::uint64_t writes = 0;     // Write operations observed.
    std::uint64_t flushed = 0;    // Dirty blocks written back to the server.
    std::uint64_t absorbed = 0;   // Writes that died before flushing
                                  // (overwritten or file deleted).
    std::uint64_t lost = 0;       // Dirty blocks lost to a client reboot.
  };
  WriteStats& write_stats() { return write_stats_; }
  void CountWrite() {
    if (accounting_) {
      ++write_stats_.writes;
    }
  }
  void CountFlush() {
    if (accounting_) {
      ++write_stats_.flushed;
    }
  }
  void CountAbsorbedWrite() {
    if (accounting_) {
      ++write_stats_.absorbed;
    }
  }
  void CountLostWrite() {
    if (accounting_) {
      ++write_stats_.lost;
    }
  }

 private:
  // Caches live either on the heap (no arena) or placement-constructed in
  // the arena, in which case the deleter runs the destructor but leaves the
  // memory for the arena to reclaim wholesale.
  struct CacheDeleter {
    bool arena_backed = false;
    void operator()(BlockCache* cache) const {
      if (arena_backed) {
        cache->~BlockCache();
      } else {
        delete cache;
      }
    }
  };
  using CachePtr = std::unique_ptr<BlockCache, CacheDeleter>;

  CachePtr MakeCache(std::size_t capacity_blocks) {
    if (arena_ == nullptr) {
      return CachePtr(new BlockCache(capacity_blocks), CacheDeleter{false});
    }
    void* memory = arena_->Allocate(sizeof(BlockCache), alignof(BlockCache));
    return CachePtr(new (memory) BlockCache(capacity_blocks, arena_), CacheDeleter{true});
  }

  const SimulationConfig& config_;
  std::uint32_t num_clients_;
  Arena* arena_ = nullptr;
  std::vector<CachePtr> client_caches_;
  std::vector<CachePtr> server_caches_;
  Directory directory_;
  Rng rng_;
  Micros now_ = 0;
  bool accounting_ = false;
  ServerLoadTracker server_load_;
  WriteStats write_stats_;
  SimCounters counters_;
  TraceRecorder* tracer_ = nullptr;
  SnapshotSampler* sampler_ = nullptr;
  std::size_t client_cache_blocks_ = 0;
  std::optional<std::uint8_t> client_victim_classes_;  // Max tracked count.
};

}  // namespace coopfs

#endif  // COOPFS_SRC_SIM_CONTEXT_H_
