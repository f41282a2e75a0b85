// Direct Client Cooperation (paper §2.1).
//
// An active client uses an idle peer's memory as private backing store for
// its own cache overflow, with no server involvement: blocks evicted from
// the local cache spill into the client's private remote cache, and local
// misses probe it (2 network hops) before asking the server. Other clients
// never benefit from one client's remote cache.
//
// Following the paper's optimistic evaluation assumption (§4.1), every
// client holds a *permanent* private remote cache (default: equal to its
// local cache, "effectively doubling" it); Figure 8 sweeps this size.
#ifndef COOPFS_SRC_CORE_DIRECT_COOP_H_
#define COOPFS_SRC_CORE_DIRECT_COOP_H_

#include <memory>
#include <string>
#include <vector>

#include "src/cache/block_cache.h"
#include "src/sim/policy.h"

namespace coopfs {

class DirectCoopPolicy : public PolicyBase {
 public:
  // `remote_cache_blocks` is each client's private remote cache capacity;
  // 0 means "equal to the local cache size" (the paper's default).
  explicit DirectCoopPolicy(std::size_t remote_cache_blocks = 0)
      : remote_cache_blocks_(remote_cache_blocks) {}

  // Per-client remote capacities (element c = client c's remote cache, in
  // blocks; clients beyond the vector get zero). Used for the paper's
  // §4.2.1 what-if: "only the most active 10% of clients are able to
  // recruit a cooperative cache".
  explicit DirectCoopPolicy(std::vector<std::size_t> per_client_remote_blocks)
      : remote_cache_blocks_(0), per_client_remote_blocks_(std::move(per_client_remote_blocks)) {}

  std::string Name() const override { return "Direct Cooperation"; }

  ReadOutcome Read(ClientId client, BlockId block) override;

 protected:
  void OnAttach() override;

  // Local evictions spill into the private remote cache instead of dying.
  void DisposeVictim(ClientId client, CacheEntry& victim) override;

  // Writes and deletes must invalidate private remote copies too.
  void OnInvalidateExtra(BlockId block, ClientId writer) override;

  // Reboot loses the client's recruitment state along with its memory; its
  // private remote cache must be re-recruited from scratch.
  void OnClientReboot(ClientId client) override;

 private:
  std::size_t remote_cache_blocks_;
  std::vector<std::size_t> per_client_remote_blocks_;
  std::vector<std::unique_ptr<BlockCache>> remote_caches_;
};

}  // namespace coopfs

#endif  // COOPFS_SRC_CORE_DIRECT_COOP_H_
