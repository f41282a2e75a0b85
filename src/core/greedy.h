// Greedy Forwarding (paper §2.2).
//
// Client caches remain greedily (locally) managed, but the server's
// directory of client cache contents lets it forward a missing read to any
// client caching the block; that client replies directly to the requester
// (3 network hops total). Cache contents are not coordinated, so duplicates
// persist.
//
// GreedyPolicy is also the base of N-Chance Forwarding (greedy is N-Chance
// with n = 0), which overrides OnRemoteHit below and PolicyBase's hooks.
#ifndef COOPFS_SRC_CORE_GREEDY_H_
#define COOPFS_SRC_CORE_GREEDY_H_

#include <string>

#include "src/sim/policy.h"

namespace coopfs {

class GreedyPolicy : public PolicyBase {
 public:
  std::string Name() const override { return "Greedy Forwarding"; }

  ReadOutcome Read(ClientId client, BlockId block) override;

 protected:
  // Called when the server forwards `client`'s read to `holder`. N-Chance
  // discards the holder's copy if it was a recirculating singlet and clears
  // stale singlet flags.
  virtual void OnRemoteHit(ClientId client, ClientId holder, BlockId block) {
    (void)client;
    (void)holder;
    (void)block;
  }
};

}  // namespace coopfs

#endif  // COOPFS_SRC_CORE_GREEDY_H_
