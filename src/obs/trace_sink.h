// Serialization sinks for recorded event traces ("coopfs.events/v1").
//
// Two export formats for TraceRecorder data (see trace_recorder.h):
//
//   * JSONL — one JSON object per line: a header line (schema tag, version,
//     workload provenance), then per run a run line followed by its read
//     spans and op records merged in sequence order. Line-oriented so
//     multi-hundred-MB traces can be grepped and streamed without a DOM.
//     The canonical machine format; tools/coopfs_inspect consumes it.
//
//   * Chrome trace_event JSON — the "traceEvents" array format understood by
//     ui.perfetto.dev and chrome://tracing. Each run becomes a process
//     (named after the policy) and each client that its records name a
//     thread ("client <id>", in id order); reads are complete ("X") events
//     with their charged latency as duration, discrete records are instant
//     ("i") events.
//
// Both serializations are deterministic: identical recorded runs produce
// identical bytes (fixed key order, shortest round-trip doubles), so the
// determinism tests compare exports bit-for-bit. ParseEventsJsonl inverts
// the JSONL writer exactly, which the round-trip tests also exploit.
#ifndef COOPFS_SRC_OBS_TRACE_SINK_H_
#define COOPFS_SRC_OBS_TRACE_SINK_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/json.h"
#include "src/common/status.h"
#include "src/obs/trace_recorder.h"

namespace coopfs {

// Schema identifier on the JSONL header line. Bump on any backward-
// incompatible change; additive fields keep the version.
inline constexpr std::string_view kEventsSchema = "coopfs.events/v1";

// Snake_case schema name per cache level (index-aligned with CacheLevel and
// identical to the level field names of "coopfs.metrics/v1").
const char* CacheLevelSchemaName(CacheLevel level);

// Inverse of CacheLevelSchemaName; false if `name` is not a level name.
bool CacheLevelFromSchemaName(std::string_view name, CacheLevel& level);

// Provenance recorded on the header line.
struct TraceExportMetadata {
  std::uint64_t seed = 0;          // Workload seed.
  std::uint64_t trace_events = 0;  // Events in the replayed trace.
  std::string workload;            // Free-form workload label ("" = omitted).
  // Timeseries only: the sampler's configured client-count ceiling for
  // automatic per-client collection (0 = not recorded). Written to the
  // coopfs.timeseries/v1 header so auto-disable decisions on the run lines
  // can be interpreted; ignored by the events writer.
  std::uint32_t per_client_ceiling = 0;
};

// A parsed events document: header metadata plus the recorded runs.
struct EventsDocument {
  std::string coopfs_version;
  TraceExportMetadata metadata;
  std::vector<TraceRun> runs;
};

// ---- JSONL framing, shared with "coopfs.timeseries/v1" ----
//
// Both JSONL documents are a header line, then run lines 0, 1, ..., each
// followed by its records. The header carries the schema tag,
// coopfs_version, seed and trace_events, plus workload and
// per_client_ceiling when set; every later line carries its "type" and its
// "run" index.

// Appends `json` to `out` as one more line.
void AppendJsonlLine(std::string& out, const JsonWriter& json);

// Appends the header line of a `schema` document.
void AppendJsonlHeader(std::string& out, std::string_view schema,
                       const TraceExportMetadata& metadata);

// Reads that framing: fills `coopfs_version` and `metadata` from the header,
// hands each run line to `on_run` once its index is the next one, and each
// record line of the latest run to `on_record` with its type. Errors are
// kDataLoss naming `what` ("events", "timeseries") and the line.
Status ParseJsonlRuns(
    std::string_view text, std::string_view schema, std::string_view what,
    std::string& coopfs_version, TraceExportMetadata& metadata,
    const std::function<Status(const JsonValue&)>& on_run,
    const std::function<Status(const std::string& type, const JsonValue&)>& on_record);

// ---- JSONL ("coopfs.events/v1") ----

std::string EventsToJsonl(const std::vector<TraceRun>& runs,
                          const TraceExportMetadata& metadata);

// Renders, self-validates by re-parsing, and writes to `path`.
Status WriteEventsJsonl(const std::vector<TraceRun>& runs, const TraceExportMetadata& metadata,
                        const std::string& path);

// Parses a complete JSONL document, validating structure as it goes (schema
// tag, line types, required fields, known levels/kinds). The returned runs
// re-serialize to the input bytes exactly.
Result<EventsDocument> ParseEventsJsonl(std::string_view text);

// Structural validation only (parse + discard).
Status ValidateEventsDocument(std::string_view text);

// ---- Chrome trace_event / Perfetto ----

std::string PerfettoTraceJson(const std::vector<TraceRun>& runs);

Status WritePerfettoTrace(const std::vector<TraceRun>& runs, const std::string& path);

}  // namespace coopfs

#endif  // COOPFS_SRC_OBS_TRACE_SINK_H_
