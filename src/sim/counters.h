// Lightweight replay counters (observability extension).
//
// The paper's metrics (hit levels, load units) describe *what* an algorithm
// achieved; these counters describe *what the simulator did* to get there:
// events replayed, server-forwarded reads, N-Chance recirculations,
// write/delete invalidations, directory mutations. They are cheap enough to
// leave on (one increment per event), so every run collects them. Unlike
// the paper metrics they are NOT gated on warm-up: they count the whole
// run, including the warm-up prefix.
#ifndef COOPFS_SRC_SIM_COUNTERS_H_
#define COOPFS_SRC_SIM_COUNTERS_H_

#include <cstdint>

namespace coopfs {

struct SimCounters {
  // Trace events dispatched by Simulator::Run (all types, warm-up included).
  std::uint64_t events_replayed = 0;

  // Reads the server forwarded to a caching client (paper §2: the
  // cooperative hit path; Figure 6's "Hit Remote Client" segment counts the
  // same requests in load units).
  std::uint64_t remote_forwards = 0;

  // Evicted singlets recirculated to a random peer instead of discarded
  // (N-Chance, paper §2.4; zero for every other policy).
  std::uint64_t recirculations = 0;

  // Per-copy invalidations sent for writes and whole-file deletes
  // (write-invalidate consistency, paper §3).
  std::uint64_t invalidations = 0;

  // Server directory mutations: holder additions/removals and block erasures
  // (the bookkeeping the paper's piggybacked updates amortize, §2.4). A
  // whole-file delete erases every block the trace has referenced, cached
  // by a client or not, so runs with zero-capacity client caches count
  // their deletes too.
  std::uint64_t directory_ops = 0;

  friend bool operator==(const SimCounters&, const SimCounters&) = default;
};

}  // namespace coopfs

#endif  // COOPFS_SRC_SIM_COUNTERS_H_
