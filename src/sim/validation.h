// Post-run invariant checks over a SimContext (used by the property tests
// and available to embedders as a debugging aid).
#ifndef COOPFS_SRC_SIM_VALIDATION_H_
#define COOPFS_SRC_SIM_VALIDATION_H_

#include "src/common/status.h"
#include "src/sim/context.h"

namespace coopfs {

// Verifies that the server directory and the client caches agree:
//   * every cached block at client c has c in its directory holder set;
//   * every directory holder entry corresponds to a cached block;
//   * no cache exceeds its capacity;
//   * N-Chance metadata is coherent: a copy that is recirculating or
//     flag-marked singlet really is the only client copy;
//   * in client caches that track victim classes, each entry sits on the
//     sublist its recirculation count and singlet flag call for, and each
//     sublist is in LRU-stamp order.
// Returns the first violation found.
Status CheckCacheDirectoryConsistency(SimContext& context);

}  // namespace coopfs

#endif  // COOPFS_SRC_SIM_VALIDATION_H_
