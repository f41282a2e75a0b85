// Zero-cost-when-disabled scoped-timer profiler ("coopfs.profile/v1").
//
// The simulator's wall-clock behavior (not the simulated metrics — those are
// deterministic) is tracked by RAII spans placed on the hot phases: trace
// generation/decode, event replay, policy eviction, directory mutation,
// metrics finalization. A disabled profiler costs one relaxed atomic load
// and a branch per span, so the instrumentation stays compiled in
// everywhere; bench/perf_harness keeps the replay_serial_* series honest
// about that claim.
//
// Spans nest: each thread keeps a cursor into its private call tree, so
// "policy/evict" under "sim/write" and under "sim/read" aggregate
// separately. Trees are merged into a process-wide registry when a thread
// exits (covering RunSimulationsParallel workers) and when Snapshot() runs
// (covering the calling thread), under one mutex — the per-span hot path is
// lock-free and touches only thread-local state.
//
// Timings come from std::chrono::steady_clock and are inherently
// non-deterministic; the *structure* (span names, nesting, counts for a
// fixed workload) is reproducible. Export is a single "coopfs.profile/v1"
// JSON document plus a sorted self-time table for terminals.
#ifndef COOPFS_SRC_COMMON_PROFILER_H_
#define COOPFS_SRC_COMMON_PROFILER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace coopfs {

// Schema identifier of the exported document. Bump on any backward-
// incompatible change; additive fields keep the version.
inline constexpr std::string_view kProfileSchema = "coopfs.profile/v1";

class Profiler {
 public:
  // One aggregated span in a merged snapshot. Children are sorted by name so
  // identical aggregates serialize to identical bytes.
  struct Node {
    std::string name;
    std::uint64_t count = 0;     // Completed spans.
    std::uint64_t total_ns = 0;  // Inclusive wall time.
    std::vector<Node> children;

    std::uint64_t ChildrenTotalNs() const;
    // Exclusive time: total minus children (clamped at zero — children can
    // nominally exceed the parent by clock-read granularity).
    std::uint64_t SelfNs() const;

    friend bool operator==(const Node&, const Node&) = default;
  };

  // Process-wide switch. Spans opened while disabled record nothing, even if
  // the profiler is enabled before they close.
  static void Enable(bool on);
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  // Drops all aggregated data: the global registry and the calling thread's
  // live tree. Must not be called with spans open on the calling thread.
  static void Reset();

  // Merged aggregate: the global registry (threads that exited) plus the
  // calling thread's live tree. Non-destructive; other still-running threads
  // are not included until they exit.
  static std::vector<Node> Snapshot();

  // Snapshot serialized as a "coopfs.profile/v1" document.
  static std::string ToJson();

  // Snapshot rendered as the sorted self-time table.
  static std::string SelfTimeTable(std::size_t max_rows = 0);

  // Renders the snapshot, self-validates by re-parsing, writes to `path`.
  static Status WriteFile(const std::string& path);

  // ---- Heap-allocation counter ----
  //
  // Process-wide relaxed count of global operator new calls. The library
  // never overrides the global allocator itself; a TU that does
  // (tests/sim/replay_allocation_test.cc) records every allocation here,
  // and the steady-state replay test asserts the delta across a warmed-up
  // arena-backed run is zero. Always safe to read; zero until someone feeds
  // it.
  static void RecordAllocation() {
    allocation_count_.fetch_add(1, std::memory_order_relaxed);
  }
  static std::uint64_t AllocationCount() {
    return allocation_count_.load(std::memory_order_relaxed);
  }

 private:
  friend class ProfileSpan;
  static std::atomic<bool> enabled_;
  static std::atomic<std::uint64_t> allocation_count_;
};

// ---- Document helpers (shared by the class above, tools, and tests) ----

std::string ProfileToJson(const std::vector<Profiler::Node>& roots);

// Parses and structurally validates a "coopfs.profile/v1" document. The
// returned forest re-serializes to the input bytes exactly.
Result<std::vector<Profiler::Node>> ParseProfileDocument(std::string_view text);

// Structural validation only (parse + discard).
Status ValidateProfileDocument(std::string_view text);

// Flattened per-name totals, sorted by self time (descending, then name).
struct ProfileFlatRow {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};
std::vector<ProfileFlatRow> FlattenProfileBySelfTime(const std::vector<Profiler::Node>& roots);

// The self-time table for an arbitrary forest (max_rows 0 = all rows).
std::string ProfileSelfTimeTable(const std::vector<Profiler::Node>& roots,
                                 std::size_t max_rows = 0);

// RAII span. Use through COOPFS_PROFILE_SCOPE; `name` must be a string
// literal (or otherwise outlive the process) — nodes store the pointer.
class ProfileSpan {
 public:
  explicit ProfileSpan(const char* name) {
    if (Profiler::enabled()) {
      Begin(name);
    }
  }
  ~ProfileSpan() {
    if (node_ != nullptr) {
      End();
    }
  }

  ProfileSpan(const ProfileSpan&) = delete;
  ProfileSpan& operator=(const ProfileSpan&) = delete;

 private:
  void Begin(const char* name);
  void End();

  void* node_ = nullptr;  // internal::LiveNode of the enclosing thread tree.
  std::chrono::steady_clock::time_point start_{};
};

#define COOPFS_PROFILE_CONCAT_INNER(a, b) a##b
#define COOPFS_PROFILE_CONCAT(a, b) COOPFS_PROFILE_CONCAT_INNER(a, b)

// Times the enclosing scope under `name` when the profiler is enabled.
#define COOPFS_PROFILE_SCOPE(name) \
  ::coopfs::ProfileSpan COOPFS_PROFILE_CONCAT(coopfs_profile_span_, __LINE__)(name)

}  // namespace coopfs

#endif  // COOPFS_SRC_COMMON_PROFILER_H_
