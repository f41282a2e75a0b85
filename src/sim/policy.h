// Cooperative caching policy interface and shared base behaviour.
//
// A Policy implements the read path of one cooperative caching algorithm
// (paper §2) over the shared SimContext, and reports where each read was
// satisfied. The algorithms share one hierarchy and differ in how a local
// miss may use other clients' memory, so PolicyBase owns the shared read
// rungs, the one eviction path (which writes dirty victims back),
// write-through + write-invalidate consistency (§3), delayed writes,
// whole-file deletes, reboots and NFS read-attribute refresh. Policies
// override the hooks that differ.
#ifndef COOPFS_SRC_SIM_POLICY_H_
#define COOPFS_SRC_SIM_POLICY_H_

#include <deque>
#include <optional>
#include <string>

#include "src/sim/context.h"

namespace coopfs {

// Where and how one read was satisfied. The simulator converts this to
// latency: memory_copy + (block transfer if data crossed the network) +
// hops x per-hop + (disk access if the read reached disk).
struct ReadOutcome {
  CacheLevel level = CacheLevel::kLocalMemory;
  int hops = 0;               // Small-packet network hops on the read path.
  bool data_transfer = false;  // Did the 8 KB block cross the network?
};

class Policy {
 public:
  virtual ~Policy() = default;

  virtual std::string Name() const = 0;

  // Client/server cache capacities this policy wants (the best case doubles
  // client memory; Centrally Coordinated shrinks the locally managed part).
  virtual std::size_t ClientCacheBlocks(const SimulationConfig& config) const {
    return config.client_cache_blocks;
  }
  virtual std::size_t ServerCacheBlocks(const SimulationConfig& config) const {
    return config.server_cache_blocks;
  }

  // Binds the policy to a fresh context before a run.
  virtual void Attach(SimContext& context) = 0;

  virtual ReadOutcome Read(ClientId client, BlockId block) = 0;
  virtual void Write(ClientId client, BlockId block) = 0;
  virtual void Delete(ClientId client, FileId file) = 0;
  virtual void ReadAttr(ClientId client, FileId file) = 0;

  // Client machine restart: everything it cached is lost. Extension beyond
  // the paper (workstation churn); the default in PolicyBase handles the
  // local cache + directory, with OnClientReboot for policy-private state.
  virtual void Reboot(ClientId client) = 0;

  // Called once per trace event, before dispatch, with the clock already
  // advanced. Policies with time-driven behaviour (delayed-write flushing)
  // override this.
  virtual void Tick() {}
};

// Shared machinery. Each policy builds its Read from the read rungs below.
class PolicyBase : public Policy {
 public:
  void Attach(SimContext& context) override {
    ctx_ = &context;
    flush_queue_.clear();
    OnAttach();
  }

  // Write-through + write-invalidate (paper §3): invalidate every other
  // client copy (one small invalidation message each, Figure 6 "Other"),
  // install the new data in the server cache, then cache it at the writer
  // through the policy's normal insertion path.
  void Write(ClientId client, BlockId block) override;

  // Whole-file delete: purge every cached copy and all directory state.
  void Delete(ClientId client, FileId file) override;

  // NFS read-attribute hint (paper §4.4): refresh the LRU position of the
  // file's blocks cached at this client, approximating the local hits the
  // snooped trace cannot show.
  void ReadAttr(ClientId client, FileId file) override;

  // Drops everything the rebooting client cached (cache + directory), then
  // calls OnClientReboot for policy-private structures. Dirty (unflushed)
  // blocks are lost — the delayed-write reliability trade-off.
  void Reboot(ClientId client) override;

  // Flushes delayed writes whose hold time has expired.
  void Tick() override;

 protected:
  SimContext& ctx() { return *ctx_; }

  // Called once per run after ctx() is available.
  virtual void OnAttach() {}

  // Makes room (if needed) and inserts `block` at the MRU position of
  // `client`'s cache, registering the copy in the directory. No-op if the
  // local cache has zero capacity; touches instead if already present.
  void CacheLocally(ClientId client, BlockId block);

  // Shared read rung, inline because every read starts here: a local hit
  // renews the copy's LRU position and calls OnLocalHit. Returns nullopt on
  // a miss.
  std::optional<ReadOutcome> ReadLocal(ClientId client, BlockId block) {
    CacheEntry* entry = ctx().client_cache(client).Touch(block);
    if (entry == nullptr) {
      return std::nullopt;
    }
    entry->last_ref = ctx().now();
    OnLocalHit(client, *entry);
    return ReadOutcome{CacheLevel::kLocalMemory, 0, false};
  }

  // Shared read rung: a server-memory hit over `hops` hops (3 if a peer
  // relayed the request) charges the server, calls OnBlockReplicated, then
  // caches the block locally. Returns nullopt on a miss.
  std::optional<ReadOutcome> ReadServerMemory(ClientId client, BlockId block, int hops = 2);

  // The last read rung. Under delayed writes another client's dirty copy is
  // newer than disk, so the server forwards the read there (always 3 hops,
  // DASH-style, paper §5); otherwise disk serves it over `hops` hops through
  // the server cache. Either way the block is then cached locally.
  ReadOutcome ReadDisk(ClientId client, BlockId block, int hops = 2);

  // Hook: `client` hit its own copy. N-Chance turns a recirculating copy
  // back into normal local data.
  virtual void OnLocalHit(ClientId client, CacheEntry& entry) {
    (void)client;
    (void)entry;
  }

  // Hook: server memory is supplying a copy of `block` to a client. N-Chance
  // clears the other holders' singlet state.
  virtual void OnBlockReplicated(BlockId block) { (void)block; }

  // The one eviction path, run while `client`'s cache is full: SelectVictim,
  // then FlushIfDirty (the server must have the data before the copy leaves),
  // then DisposeVictim. Policies override those hooks, not this.
  virtual void EvictForInsert(ClientId client);

  // Default: the LRU entry (nullptr if none). Weighted LRU overrides it.
  virtual CacheEntry* SelectVictim(ClientId client);

  // Disposes of a written-back victim. Default: drops it. Direct spills it
  // into the private remote cache; N-Chance forwards singlets.
  virtual void DisposeVictim(ClientId client, CacheEntry& victim);

  // Ensures `block` is resident in the server cache (after a disk fetch or
  // a write-through), evicting LRU server blocks as needed through
  // OnServerEvict. No-op if the server cache has zero capacity.
  void InstallInServerCache(BlockId block);

  // Destination of blocks evicted from the server cache. Default: dropped
  // (the disk always has every block). Centrally Coordinated forwards the
  // victim into the globally managed client memory (paper §2.3).
  virtual void OnServerEvict(BlockId block) { (void)block; }

  // Invalidation hook for policy-private stores (private remote caches,
  // the coordinated global cache). `writer` is kNoClient for deletes.
  virtual void OnInvalidateExtra(BlockId block, ClientId writer) {
    (void)block;
    (void)writer;
  }

  // Reboot hook for policy-private stores hosted at `client` (its private
  // remote cache, its hash partition, its share of the global cache).
  virtual void OnClientReboot(ClientId client) { (void)client; }

  // Removes `block` from `client`'s cache and the directory.
  void DropLocal(ClientId client, BlockId block);

  // Delayed writes: if `client`'s copy of `block` is dirty, write it back to
  // the server now. Call before dropping a copy outside EvictForInsert.
  void FlushIfDirty(ClientId client, BlockId block);

 private:
  bool delayed_writes() const {
    return ctx_->config().write_policy == WritePolicy::kDelayedWrite;
  }

  // One scheduled write-back.
  struct PendingFlush {
    Micros due;
    ClientId client;
    BlockId block;
  };

  SimContext* ctx_ = nullptr;
  std::deque<PendingFlush> flush_queue_;
};

}  // namespace coopfs

#endif  // COOPFS_SRC_SIM_POLICY_H_
