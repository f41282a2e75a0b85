// Structured export of simulation metrics (observability subsystem).
//
// Everything the paper's evaluation reports — per-level hit counts and
// latencies (Figures 4-5), abstract server-load units (Figure 6), per-client
// response times (Figure 7) — lives in SimulationResult. MetricsExporter
// serializes one or more results, plus the configuration that produced them,
// to a stable versioned JSON document ("coopfs.metrics/v1", see
// docs/metrics_schema.md) so external tooling can diff runs across commits
// without scraping text tables.
//
// The serialization is deterministic: identical results produce identical
// bytes (keys in fixed order, doubles in shortest round-trip form). The
// parallel-sweep determinism tests rely on this to compare runs bit-for-bit.
#ifndef COOPFS_SRC_OBS_METRICS_EXPORTER_H_
#define COOPFS_SRC_OBS_METRICS_EXPORTER_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/common/json.h"
#include "src/common/status.h"
#include "src/sim/config.h"
#include "src/sim/metrics.h"

namespace coopfs {

// Schema identifier embedded in every exported document. Bump the version
// suffix on any backward-incompatible change (field removal/rename or
// meaning change); purely additive fields keep the version.
inline constexpr std::string_view kMetricsSchema = "coopfs.metrics/v1";

// Documents are written with a 2-space indent. `detail` = kBounded
// suppresses the exact O(num_clients) "per_client" array even when a result
// carries one, keeping the export itself O(K); results collected under
// SimulationConfig::metrics_detail == kBounded emit their "bounded" summary
// object either way (additive field).
class MetricsExporter {
 public:
  explicit MetricsExporter(MetricsDetail detail = MetricsDetail::kFull) : detail_(detail) {}

  // Records the configuration block to embed (optional but recommended:
  // downstream tooling uses it to group comparable runs).
  void SetConfig(const SimulationConfig& config);

  // Adds one result series to the document, in call order.
  void AddResult(const SimulationResult& result);

  std::size_t num_results() const { return results_.size(); }

  // Renders the full document.
  std::string ToJson() const;

  // Renders and writes the document to `path` (with a trailing newline).
  Status WriteFile(const std::string& path) const;

 private:
  MetricsDetail detail_;
  bool have_config_ = false;
  SimulationConfig config_;
  std::vector<SimulationResult> results_;
};

// Serializes a single result as a standalone JSON object (the element shape
// of the document's "results" array). Used directly by tests and by the
// determinism harness to fingerprint runs.
std::string SimulationResultToJson(const SimulationResult& result,
                                   MetricsDetail detail = MetricsDetail::kFull);

// Writes `config` as the document's "config" object shape. Shared between
// the metrics exporter and the coopfs.run/v1 manifest writer so a manifest's
// resolved configs are field-for-field comparable with metrics documents.
void WriteSimulationConfigJson(JsonWriter& json, const SimulationConfig& config);

// Writes the shared provenance header fields (git_sha, build_type,
// host_threads) into the currently open object. Used by the metrics
// exporter and the coopfs.run/v1 manifest writer so both documents pin the
// same build.
void WriteProvenanceJson(JsonWriter& json);

// Validates that `json` parses and structurally conforms to
// "coopfs.metrics/v1": schema tag, results array, and per-result required
// fields with the documented types. Returns the first violation found.
Status ValidateMetricsDocument(std::string_view json);

}  // namespace coopfs

#endif  // COOPFS_SRC_OBS_METRICS_EXPORTER_H_
