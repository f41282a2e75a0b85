// Periodic simulation-state sampling ("coopfs.timeseries/v1").
//
// The middle tier of the observability stack: coopfs.metrics/v1 gives one
// aggregate per run, coopfs.events/v1 one record per event; the sampler
// gives one snapshot per N microseconds of *simulated* time, capturing what
// the aggregates average away — how cache occupancy fills, how N-Chance
// keeps the duplicate fraction down, how server load and fairness drift as
// client memory absorbs reads (the paper's §2.4/§4 dynamics).
//
// The Simulator drives the sampler exactly like the TraceRecorder: attach
// one through SimulationConfig::snapshot_sampler and every crossing of an
// interval boundary (plus warm-up end and run end) emits a StateSample. A
// sample combines:
//
//   * window accumulators — reads observed since the previous sample,
//     per-level counted reads and their charged latency (accumulated in the
//     same order as SimulationResult, so per-window counts sum exactly to
//     the run aggregates), and per-client read/donated/benefited triplets
//     for fairness plots;
//   * instantaneous gauges (StateProbe) — cache occupancy, directory size,
//     singlet vs. duplicate block counts, recirculating copies, dirty
//     blocks, cumulative server-load units — computed from live simulation
//     state by the Simulator at the boundary.
//
// Zero-read intervals are emitted explicitly (one sample per crossed
// boundary) so downstream plots never interpolate across gaps.
//
// Sampling is deterministic: boundaries are anchored at the first trace
// timestamp, all state derives from the simulated replay, and the JSONL
// serialization uses fixed key order with shortest-round-trip doubles —
// identical runs export identical bytes regardless of wall clock or
// RunSimulationsParallel thread count (each concurrent job must use its own
// sampler, as with TraceRecorder).
#ifndef COOPFS_SRC_OBS_SNAPSHOT_SAMPLER_H_
#define COOPFS_SRC_OBS_SNAPSHOT_SAMPLER_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/sketch.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/model/server_load.h"
#include "src/obs/trace_sink.h"

namespace coopfs {

// Schema identifier on the JSONL header line. Bump on any backward-
// incompatible change; additive fields keep the version.
inline constexpr std::string_view kTimeseriesSchema = "coopfs.timeseries/v1";

// Instantaneous gauges read off the live simulation state at a sample
// boundary. Occupancy covers the caches the simulation context owns (client
// local caches and the server cache); policy-private structures (e.g.
// Direct Cooperation's remote sections) are not visible here.
struct StateProbe {
  std::uint64_t client_blocks_used = 0;       // Across all client caches.
  std::uint64_t client_blocks_capacity = 0;
  std::uint64_t server_blocks_used = 0;       // Across all server caches.
  std::uint64_t server_blocks_capacity = 0;
  std::uint64_t directory_blocks = 0;         // Blocks with >= 1 client copy.
  std::uint64_t singlet_blocks = 0;           // Exactly one client copy.
  std::uint64_t duplicate_blocks = 0;         // Two or more client copies.
  std::uint64_t recirculating_copies = 0;     // N-Chance copies in flight.
  std::uint64_t dirty_blocks = 0;             // Delayed-write dirty copies.
  // Cumulative post-warm-up server load units per Figure 6 segment; diff
  // consecutive samples for per-window load.
  std::array<std::uint64_t, kNumServerLoadKinds> load_units{};

  friend bool operator==(const StateProbe&, const StateProbe&) = default;
};

// Why a sample was captured.
enum class SampleTrigger : std::uint8_t {
  kInterval = 0,   // An interval boundary was crossed.
  kWarmupEnd = 1,  // Metrics accounting switched on.
  kRunEnd = 2,     // The trace ended (closes the final partial window).
};

const char* SampleTriggerName(SampleTrigger trigger);
bool SampleTriggerFromName(std::string_view name, SampleTrigger& trigger);

// Per-client window accounting (fairness: the paper's Figure 7 concern that
// cooperation taxes some clients for others' benefit). Post-warm-up only.
struct ClientWindowStats {
  std::uint64_t reads = 0;      // Counted reads this client issued.
  std::uint64_t donated = 0;    // Reads this client's cache served for others.
  std::uint64_t benefited = 0;  // This client's reads served by a peer cache.

  friend bool operator==(const ClientWindowStats&, const ClientWindowStats&) = default;
};

// One window-local heavy reader (Space-Saving entry): `reads` overcounts
// the truth by at most `error`. Collected instead of full triplets when
// per-client accounting is off and SnapshotSamplerOptions::window_top_k
// is set, so fairness signals survive the O(N) -> O(K) cut.
struct WindowTopClient {
  ClientId client = 0;
  std::uint64_t reads = 0;
  std::uint64_t error = 0;

  friend bool operator==(const WindowTopClient&, const WindowTopClient&) = default;
};

struct StateSample {
  std::uint64_t index = 0;  // Sample number within the run.
  SampleTrigger trigger = SampleTrigger::kInterval;
  // Interval boundary (kInterval, exclusive window end) or the timestamp of
  // the triggering event (kWarmupEnd / kRunEnd).
  Micros time = 0;
  // Trace events replayed strictly before this sample was captured.
  std::uint64_t events_replayed = 0;

  // ---- Window accumulators (since the previous sample) ----
  std::uint64_t window_reads = 0;  // All reads, warm-up included.
  // Counted (post-warm-up) reads by satisfying level and the latency charged
  // to each, accumulated exactly as SimulationResult accumulates them.
  std::array<std::uint64_t, kNumCacheLevels> level_reads{};
  std::array<double, kNumCacheLevels> level_time_us{};
  // Per-client triplets; empty unless per-client accounting is enabled for
  // the run (see SnapshotRun::per_client_mode).
  std::vector<ClientWindowStats> clients;

  // Window top-K heaviest readers (count desc, client asc); empty unless
  // per-client accounting is off and window_top_k > 0.
  std::vector<WindowTopClient> top_clients;

  // ---- Instantaneous gauges ----
  StateProbe state;

  std::uint64_t CountedReads() const;
  double CountedTimeUs() const;

  friend bool operator==(const StateSample&, const StateSample&) = default;
};

// How the run resolved per-client triplet collection (recorded on the run's
// JSONL line so O(N)-vs-O(K) decisions are never silent).
enum class PerClientMode : std::uint8_t {
  kFull = 0,     // Triplets collected for every client.
  kAutoOff = 1,  // Auto-disabled: num_clients exceeded per_client_ceiling.
  kOff = 2,      // Explicitly disabled by options.
};

const char* PerClientModeName(PerClientMode mode);
bool PerClientModeFromName(std::string_view name, PerClientMode& mode);

// One simulation run's samples.
struct SnapshotRun {
  std::string policy;
  std::uint32_t num_clients = 0;
  Micros interval = 0;    // 0 = no interval boundaries (warm-up/run end only).
  Micros start_time = 0;  // First trace timestamp; boundaries anchor here.
  PerClientMode per_client_mode = PerClientMode::kFull;
  std::vector<StateSample> samples;

  friend bool operator==(const SnapshotRun&, const SnapshotRun&) = default;
};

struct SnapshotSamplerOptions {
  // Collect ClientWindowStats triplets. Unset (the default) = automatic:
  // triplets are collected only while num_clients <= per_client_ceiling,
  // so attaching the default sampler to a 100k-client run cannot silently
  // allocate O(N) per window. Explicit true/false overrides the ceiling.
  std::optional<bool> include_per_client;

  // Client-count ceiling for the automatic mode above.
  std::uint32_t per_client_ceiling = 4096;

  // When triplets are off, keep a Space-Saving top-K of each window's
  // heaviest readers instead (StateSample::top_clients); 0 disables.
  std::uint32_t window_top_k = 8;
};

// Not synchronized: concurrently executing runs (RunSimulationsParallel)
// must each attach their own sampler, or none.
class SnapshotSampler {
 public:
  explicit SnapshotSampler(SnapshotSamplerOptions options = {}) : options_(options) {}

  const SnapshotSamplerOptions& options() const { return options_; }

  // ---- Driver interface (called by the Simulator) ----

  // Starts a new run and resets window state. `interval` <= 0 disables
  // interval boundaries; warm-up-end and run-end samples still fire.
  void BeginRun(std::string policy, std::uint32_t num_clients, Micros interval,
                Micros start_time);

  // True if `timestamp` has reached the next interval boundary (the caller
  // then builds a StateProbe and calls CaptureDue).
  bool SampleDue(Micros timestamp) const {
    return interval_ > 0 && !runs_.empty() && timestamp >= next_boundary_;
  }

  // Emits one kInterval sample per boundary crossed up to `timestamp`. All
  // emitted samples share `probe` (no events ran between the boundaries).
  void CaptureDue(Micros timestamp, const StateProbe& probe);

  // Closes the current window at warm-up end / run end.
  void CaptureWarmupEnd(Micros timestamp, const StateProbe& probe);
  void CaptureRunEnd(Micros timestamp, const StateProbe& probe);

  // Called once per replayed trace event, after the boundary check.
  void OnEvent() { ++events_replayed_; }

  // Annotates the in-flight read with the remote client whose cache supplies
  // the data (mirrors TraceRecorder::AnnotateForward); consumed by the next
  // RecordRead.
  void NoteForward(ClientId holder) { pending_holder_ = holder; }

  // Accumulates one replayed read into the current window.
  void RecordRead(ClientId client, CacheLevel level, Micros latency, bool counted);

  const std::vector<SnapshotRun>& runs() const { return runs_; }

 private:
  void Emit(SampleTrigger trigger, Micros time, const StateProbe& probe);

  SnapshotSamplerOptions options_;
  std::vector<SnapshotRun> runs_;

  // Open-window state of the current run.
  Micros interval_ = 0;
  Micros next_boundary_ = 0;
  std::uint64_t events_replayed_ = 0;
  std::uint64_t window_reads_ = 0;
  std::array<std::uint64_t, kNumCacheLevels> level_reads_{};
  std::array<double, kNumCacheLevels> level_time_us_{};
  std::vector<ClientWindowStats> clients_;
  // Window heavy-reader tracker; engaged only when the current run has
  // triplets off and window_top_k > 0 (O(K), cleared at each boundary).
  std::optional<SpaceSaving> window_top_;
  ClientId pending_holder_ = kNoClient;
};

// A parsed timeseries document: header metadata plus the sampled runs.
struct TimeseriesDocument {
  std::string coopfs_version;
  TraceExportMetadata metadata;
  std::vector<SnapshotRun> runs;
};

// ---- JSONL ("coopfs.timeseries/v1") ----

std::string TimeseriesToJsonl(const std::vector<SnapshotRun>& runs,
                              const TraceExportMetadata& metadata);

// Renders, self-validates by re-parsing, and writes to `path`.
Status WriteTimeseriesJsonl(const std::vector<SnapshotRun>& runs,
                            const TraceExportMetadata& metadata, const std::string& path);

// Parses a complete JSONL document, validating structure as it goes. The
// returned runs re-serialize to the input bytes exactly.
Result<TimeseriesDocument> ParseTimeseriesJsonl(std::string_view text);

// Structural validation only (parse + discard).
Status ValidateTimeseriesDocument(std::string_view text);

}  // namespace coopfs

#endif  // COOPFS_SRC_OBS_SNAPSHOT_SAMPLER_H_
