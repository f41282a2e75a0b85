// Concurrency-safe cooperative-cache engine: the one narrow interface that
// trace replay and the serve harness share.
//
// CacheEngine packages a Policy over a SimContext (client BlockCaches,
// server cache, sharded Directory, clock, RNG) behind the operations a
// file-system client issues: Lookup (read path), Admit (write-through put),
// Evict (whole-file purge), ReadAttr (attribute refresh), Reboot and Tick.
// Forwarding a miss to a peer that holds the block is part of the read
// path, as in the paper (§2.2-2.4): each policy's Read queries the
// directory itself, so the engine offers no separate holder query.
//
// Two construction modes share one code path:
//
//   * Single-shard fast path — binds to a caller-owned Policy and
//     SimulationConfig, takes no locks, and performs exactly the operation
//     sequence the pre-engine Simulator performed, so trace replay through
//     the engine is byte-identical to the legacy loop (the engine-oracle
//     ctest holds that line for every registered policy).
//
//   * Sharded concurrent mode — the engine builds `shards` independent
//     worlds, each with its own SimContext, its own Policy instance (from a
//     caller-supplied factory), and its own mutex. Requests route to a shard
//     by the SplitMix64 finalizer of the file id — the same routing the
//     sharded Directory uses internally — so every operation touches
//     exactly one shard and takes exactly one lock (Reboot, which is
//     per-client rather than per-file, visits shards one at a time and never
//     holds two locks). Per-shard cache capacities are the configured
//     capacities divided by the shard count, keeping aggregate memory equal
//     to the configuration. Invariants (directory/holder agreement, cache
//     capacity, N-Chance singlet coherence) hold per shard and are checked
//     by the serve stress suite via CheckCacheDirectoryConsistency.
//
// src/serve builds the live multi-node harness on top of this layer;
// docs/serving.md describes the architecture and the latency model.
#ifndef COOPFS_SRC_ENGINE_CACHE_ENGINE_H_
#define COOPFS_SRC_ENGINE_CACHE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/sim/config.h"
#include "src/sim/context.h"
#include "src/sim/policy.h"

namespace coopfs {

// Latency charged for one read outcome under `config` (paper §3, Figure 3):
// memory_copy + hops x per_hop + block_transfer (if the 8 KB block crossed
// the network) + disk access time (if the read reached disk). Moved here
// from the Simulator so the serve layer charges the same constants.
Micros OutcomeLatency(const ReadOutcome& outcome, const SimulationConfig& config);

// Latency charged for one write-through put under `config`: the client
// copies the block (memory_copy), ships it to the server (block_transfer),
// and waits for the acknowledgement (request + reply small-message hops).
// The replay path never uses this — the paper charges reads only (§3) — but
// the serve harness reports put latency with the same Table 1 constants.
Micros WriteLatency(const SimulationConfig& config);

// One completed engine read: where it was satisfied and what it cost.
struct EngineOutcome {
  ReadOutcome read;
  Micros latency_us = 0;
};

// Builds one policy instance per shard in concurrent mode. Kept as a
// callback so the engine layer stays below src/core (the factory there
// closes over PolicyKind + PolicyParams).
using EnginePolicyFactory = std::function<std::unique_ptr<Policy>()>;

class CacheEngine {
 public:
  // Single-shard fast path: binds to the caller's config and policy, both of
  // which must outlive the engine. No locks are taken on any operation.
  CacheEngine(const SimulationConfig& config, std::uint32_t num_clients, Policy& policy);

  // Sharded concurrent mode: builds `shards` (rounded up to a power of two,
  // minimum 1) independent worlds. Each shard copies `config` with cache
  // capacities divided by the shard count and a distinct derived seed;
  // unsynchronized observers (trace recorder, snapshot sampler, arena) are
  // detached. Every operation is safe to call from any thread.
  CacheEngine(const SimulationConfig& config, std::uint32_t num_clients,
              const EnginePolicyFactory& factory, std::uint32_t shards);

  CacheEngine(const CacheEngine&) = delete;
  CacheEngine& operator=(const CacheEngine&) = delete;

  // Read path: exactly the pre-engine Simulator's kRead sequence — note the
  // block, open the trace span (if a recorder is attached), dispatch to the
  // policy, convert the outcome to latency, close the span.
  EngineOutcome Lookup(ClientId client, BlockId block);

  // Write-through put: note the block, then Policy::Write — invalidate other
  // copies, install in the server cache, cache at the writer. Returns the
  // modeled put latency (WriteLatency); the replay path ignores it.
  Micros Admit(ClientId client, BlockId block);

  // Whole-file purge (Policy::Delete): every cached copy and all directory
  // state for `file` is dropped.
  void Evict(ClientId client, FileId file);

  // NFS read-attribute refresh (Policy::ReadAttr).
  void ReadAttr(ClientId client, FileId file);

  // Client machine restart: everything it cached is lost, in every shard.
  // In concurrent mode shards are visited one at a time (never two locks),
  // so the reboot is not atomic across shards — peers may observe a shard
  // already wiped while another still holds copies, which is exactly the
  // partial state a staggered real-world reboot exposes.
  void Reboot(ClientId client);

  // Clock-driven policy work (delayed-write flushing). Visits every shard.
  void Tick();

  // Concurrent-mode clock: advances the owning shard's simulated clock to
  // `now` (monotonically — stale timestamps from racing clients never move
  // it backwards), then performs the operation.
  EngineOutcome Lookup(ClientId client, BlockId block, Micros now);
  Micros Admit(ClientId client, BlockId block, Micros now);

  // Toggles post-warm-up metrics accounting in every shard's context.
  void SetAccounting(bool on);

  std::uint32_t num_shards() const { return static_cast<std::uint32_t>(shards_.size()); }
  bool synchronized() const { return synchronized_; }

  // Shard that owns `file`'s blocks (SplitMix64 routing, matching
  // Directory::ShardIndexFor).
  std::uint32_t ShardForFile(FileId file) const {
    return static_cast<std::uint32_t>(SplitMix64(file).Next() & shard_mask_);
  }

  // Direct shard state access for the replay fast path (shard 0 is the only
  // shard), tests, and post-drain validation. NOT synchronized: concurrent-
  // mode callers must quiesce client threads first.
  SimContext& context(std::uint32_t shard = 0) { return *shards_[shard]->context; }
  const SimulationConfig& shard_config(std::uint32_t shard = 0) const {
    return *shards_[shard]->config;
  }

 private:
  struct Shard {
    // Owned in concurrent mode (per-shard capacity/seed copy); null on the
    // fast path, where `config` aliases the caller's.
    std::unique_ptr<const SimulationConfig> owned_config;
    const SimulationConfig* config = nullptr;
    std::unique_ptr<SimContext> context;
    std::unique_ptr<Policy> owned_policy;  // Null on the fast path.
    Policy* policy = nullptr;
    std::mutex mu;
  };

  Shard& ShardForBlock(BlockId block) { return *shards_[ShardForFile(block.file)]; }

  // No-op on the fast path; locks the shard in concurrent mode.
  std::unique_lock<std::mutex> Guard(Shard& shard) {
    return synchronized_ ? std::unique_lock<std::mutex>(shard.mu)
                         : std::unique_lock<std::mutex>();
  }

  EngineOutcome LookupLocked(Shard& shard, ClientId client, BlockId block);
  Micros AdmitLocked(Shard& shard, ClientId client, BlockId block);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint32_t shard_mask_ = 0;
  bool synchronized_ = false;
};

}  // namespace coopfs

#endif  // COOPFS_SRC_ENGINE_CACHE_ENGINE_H_
