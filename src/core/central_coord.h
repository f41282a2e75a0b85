// Centrally Coordinated Caching (paper §2.3) and the unrealizable best case
// (paper §3).
//
// Each client's cache is statically split: a locally managed section
// (greedy, as in the baseline) and a globally managed section the server
// runs as an LRU extension of its own cache. Blocks the server evicts from
// its memory drop into the global distributed cache, replacing its LRU
// entry; a read satisfied from the global cache renews the entry. Reads go
// local section -> server memory -> global cache (server-forwarded, 3 hops)
// -> disk.
//
// The best case of §3 is the same machinery with each client's memory
// doubled: a full-size locally managed cache (private local hit rates) plus
// a full-size globally managed share (global hit rate of one big cache).
#ifndef COOPFS_SRC_CORE_CENTRAL_COORD_H_
#define COOPFS_SRC_CORE_CENTRAL_COORD_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/cache/lru_map.h"
#include "src/sim/policy.h"

namespace coopfs {

class CentralCoordPolicy : public PolicyBase {
 public:
  // `coordinated_fraction` of each client's cache is server-managed (paper
  // default: 0.8). Figure 9 sweeps it.
  explicit CentralCoordPolicy(double coordinated_fraction = 0.8)
      : coordinated_fraction_(coordinated_fraction) {}

  std::string Name() const override;

  std::size_t ClientCacheBlocks(const SimulationConfig& config) const override;

  ReadOutcome Read(ClientId client, BlockId block) override;

  // Introspection for tests: is `block` resident in the globally managed
  // distributed cache? Only valid between Attach and the next Attach.
  bool GlobalCacheContains(BlockId block) const {
    return global_cache_.has_value() && global_cache_->Contains(block.Pack());
  }

 protected:
  // Best-case constructor path (see BestCasePolicy).
  CentralCoordPolicy(double coordinated_fraction, bool best_case_doubling)
      : coordinated_fraction_(coordinated_fraction), best_case_doubling_(best_case_doubling) {}

  void OnAttach() override;

  // Server evictions feed the globally managed client memory.
  void OnServerEvict(BlockId block) override;

  // Writes/deletes invalidate the globally managed copy.
  void OnInvalidateExtra(BlockId block, ClientId writer) override;

  // A rebooting client loses the globally managed entries it hosts.
  void OnClientReboot(ClientId client) override;

  // Total capacity of the globally managed distributed cache, in blocks.
  std::size_t GlobalCacheBlocks(const SimulationConfig& config, std::uint32_t num_clients) const;

 private:
  // Host assignment for globally managed entries. Placement does not change
  // any reported metric (every remote client costs the same); round-robin
  // keeps the per-client distribution even, as the static partition would.
  ClientId NextHost();

  double coordinated_fraction_;
  bool best_case_doubling_ = false;
  std::optional<LruMap<std::uint64_t, ClientId>> global_cache_;
  std::uint32_t next_host_ = 0;
};

// The paper's unrealizable best case: global hit rate of a single unified
// cache with the local hit rates of fully private caches.
class BestCasePolicy : public CentralCoordPolicy {
 public:
  BestCasePolicy() : CentralCoordPolicy(1.0, /*best_case_doubling=*/true) {}

  std::string Name() const override { return "Best Case"; }
};

}  // namespace coopfs

#endif  // COOPFS_SRC_CORE_CENTRAL_COORD_H_
