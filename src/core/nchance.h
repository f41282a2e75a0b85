// N-Chance Forwarding (paper §2.4).
//
// Extends Greedy Forwarding so clients cooperate to preferentially keep
// *singlets* — blocks cached by exactly one client. When a client evicts a
// singlet it sets the block's recirculation count to n and forwards it to a
// random peer instead of discarding it; a recirculating block that drifts
// to the end of a peer's LRU list is decremented and forwarded again until
// the count reaches zero. Referencing a singlet turns it back into normal
// local data at the requester.
//
// Implemented details from the paper:
//   * ripple prevention: a client receiving a recirculated block never
//     forwards one to make space; it uses the modified replacement rule
//     (discard its oldest duplicated block, else the oldest recirculating
//     block with the fewest recirculations remaining);
//   * message optimizations: directory updates piggyback on miss requests
//     (uncharged); at most one is-this-a-singlet query per block lifetime —
//     recirculating copies and flag-marked singlets are never re-queried;
//     queries cost two small messages ("Other" server load, Figure 6);
//   * a holder whose recirculating singlet is fetched by another client
//     discards its copy; a flag-marked singlet that becomes duplicated has
//     its flag reset.
//
// n = 0 degenerates to exactly Greedy Forwarding.
#ifndef COOPFS_SRC_CORE_NCHANCE_H_
#define COOPFS_SRC_CORE_NCHANCE_H_

#include <string>

#include "src/core/greedy.h"

namespace coopfs {

class NChancePolicy : public GreedyPolicy {
 public:
  // `recirculation_count` is the paper's n. Default 2 (paper §4.1).
  explicit NChancePolicy(int recirculation_count = 2) : n_(recirculation_count) {}

  std::string Name() const override {
    return "N-Chance (n=" + std::to_string(n_) + ")";
  }

  int recirculation_count() const { return n_; }

 protected:
  // With n > 0, client caches track victim classes for the ripple-free
  // replacement rule (MakeSpaceWithoutForwarding).
  void OnAttach() override;

  void OnLocalHit(ClientId client, CacheEntry& entry) override;
  void OnRemoteHit(ClientId client, ClientId holder, BlockId block) override;
  void OnBlockReplicated(BlockId block) override;

  // A victim evicted to admit a new block: duplicates are dropped, singlets
  // with recirculations left are forwarded to a peer.
  void DisposeVictim(ClientId client, CacheEntry& victim) override;

  // Forward-target selection for a recirculating singlet. The paper's base
  // algorithm picks uniformly at random; the idle-aware variant (§2.4's
  // suggested enhancement) overrides this. Returns kNoClient if no peer.
  virtual ClientId PickForwardTarget(ClientId client);

 private:
  // Delivers a recirculated singlet to `peer` with `count` recirculations
  // remaining, applying the modified replacement rule if the peer is full.
  void ReceiveForwarded(ClientId peer, BlockId block, int count);

  // Modified replacement for a peer admitting a recirculated block: evict
  // the oldest duplicated block; else the oldest recirculating block with
  // the fewest recirculations remaining; else the plain LRU block. Reads
  // the cache's victim-class sublists, so its work is the queries it
  // charges plus at most n empty count classes.
  void MakeSpaceWithoutForwarding(ClientId peer);

  int n_;
};

}  // namespace coopfs

#endif  // COOPFS_SRC_CORE_NCHANCE_H_
