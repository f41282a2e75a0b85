#include "src/obs/metrics_exporter.h"

#include <algorithm>
#include <thread>

#include "src/common/build_info.h"
#include "src/common/version.h"

namespace coopfs {

namespace {

constexpr int kIndent = 2;

// Stable snake_case field name per cache level, index-aligned with
// CacheLevel. These are schema names: do not reword without a version bump.
constexpr const char* kLevelFields[kNumCacheLevels] = {
    "local_memory",
    "remote_client",
    "server_memory",
    "server_disk",
};

constexpr const char* kLoadFields[kNumServerLoadKinds] = {
    "hit_server_memory",
    "hit_remote_client",
    "hit_disk",
    "other",
};

}  // namespace

void WriteSimulationConfigJson(JsonWriter& json, const SimulationConfig& config) {
  json.BeginObject();
  json.Key("client_cache_blocks").Value(static_cast<std::uint64_t>(config.client_cache_blocks));
  json.Key("server_cache_blocks").Value(static_cast<std::uint64_t>(config.server_cache_blocks));
  json.Key("block_size_bytes").Value(static_cast<std::uint64_t>(kBlockSizeBytes));
  json.Key("num_servers").Value(static_cast<std::uint64_t>(config.num_servers));
  json.Key("num_clients").Value(static_cast<std::uint64_t>(config.num_clients));
  json.Key("warmup_events").Value(config.warmup_events);
  json.Key("seed").Value(config.seed);
  json.Key("write_policy")
      .Value(config.write_policy == WritePolicy::kWriteThrough ? "write_through"
                                                               : "delayed_write");
  json.Key("network").BeginObject();
  json.Key("memory_copy_us").Value(static_cast<std::int64_t>(config.network.memory_copy));
  json.Key("per_hop_us").Value(static_cast<std::int64_t>(config.network.per_hop));
  json.Key("block_transfer_us").Value(static_cast<std::int64_t>(config.network.block_transfer));
  json.EndObject();
  json.Key("disk_access_us").Value(static_cast<std::int64_t>(config.disk.access_time));
  json.Key("metrics_detail").Value(MetricsDetailName(config.metrics_detail));
  if (config.metrics_detail == MetricsDetail::kBounded) {
    json.Key("bounded_top_k").Value(static_cast<std::uint64_t>(StreamStatsOptions{}.top_k));
  }
  json.EndObject();
}

void WriteProvenanceJson(JsonWriter& json) {
  // Build/host provenance, mirroring coopfs.run/v1 manifests. Constant for
  // a given binary on a given host, so byte-determinism across runs and
  // thread widths is unaffected.
  json.Key("git_sha").Value(BuildGitSha());
  json.Key("build_type").Value(BuildType());
  json.Key("host_threads")
      .Value(static_cast<std::uint64_t>(
          std::max(1u, std::thread::hardware_concurrency())));
}

namespace {

// The "bounded" result object: the StreamSummary collected by a
// MetricsDetail::kBounded run (additive coopfs.metrics/v1 field; see
// docs/metrics_schema.md).
void WriteStreamSummaryJson(JsonWriter& json, const StreamSummary& summary) {
  json.BeginObject();
  json.Key("top_k").Value(static_cast<std::uint64_t>(summary.top_k));
  json.Key("counted_reads").Value(summary.counted_reads);
  json.Key("top_blocks").BeginArray();
  for (const TopBlockEntry& entry : summary.top_blocks) {
    json.BeginObject();
    json.Key("file").Value(static_cast<std::uint64_t>(entry.block.file));
    json.Key("block").Value(static_cast<std::uint64_t>(entry.block.block));
    json.Key("reads").Value(entry.reads);
    json.Key("error").Value(entry.error);
    json.Key("levels").BeginArray();
    for (std::uint64_t count : entry.level_reads) {
      json.Value(count);
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.Key("top_clients").BeginArray();
  for (const TopClientEntry& entry : summary.top_clients) {
    json.BeginObject();
    json.Key("client").Value(static_cast<std::uint64_t>(entry.client));
    json.Key("reads").Value(entry.reads);
    json.Key("error").Value(entry.error);
    json.EndObject();
  }
  json.EndArray();
  json.Key("latency").BeginObject();
  json.Key("samples").Value(summary.latency_samples);
  json.Key("reservoir_capacity").Value(static_cast<std::uint64_t>(summary.reservoir_capacity));
  json.Key("p50_us").Value(summary.latency_p50_us);
  json.Key("p90_us").Value(summary.latency_p90_us);
  json.Key("p99_us").Value(summary.latency_p99_us);
  json.Key("p999_us").Value(summary.latency_p999_us);
  json.Key("mean_us").Value(summary.latency_mean_us);
  json.Key("min_us").Value(summary.latency_min_us);
  json.Key("max_us").Value(summary.latency_max_us);
  json.EndObject();
  json.Key("fairness").BeginObject();
  json.Key("top_client_share").Value(summary.top_client_share);
  json.Key("cov_reads_per_client").Value(summary.cov_reads_per_client);
  json.Key("gini_read_latency").Value(summary.gini_read_latency);
  json.EndObject();
  json.Key("memory_bytes").Value(summary.memory_bytes);
  json.EndObject();
}

void WriteResult(JsonWriter& json, const SimulationResult& result, MetricsDetail detail) {
  json.BeginObject();
  json.Key("policy").Value(result.policy_name);
  json.Key("reads").Value(result.reads);
  json.Key("avg_read_time_us").Value(result.AverageReadTime());
  json.Key("local_miss_rate").Value(result.LocalMissRate());
  json.Key("disk_rate").Value(result.DiskRate());

  // Hit-level breakdown (Figures 4-5): count, fraction of counted reads,
  // and total latency attributed to the level.
  json.Key("levels").BeginObject();
  for (std::size_t i = 0; i < kNumCacheLevels; ++i) {
    json.Key(kLevelFields[i]).BeginObject();
    json.Key("count").Value(result.level_counts.Get(i));
    json.Key("fraction").Value(result.level_counts.Fraction(i));
    json.Key("time_us").Value(result.level_time_us[i]);
    json.EndObject();
  }
  json.EndObject();

  // Server load units (Figure 6).
  json.Key("server_load").BeginObject();
  for (std::size_t i = 0; i < kNumServerLoadKinds; ++i) {
    json.Key(kLoadFields[i]).Value(result.server_load.Units(static_cast<ServerLoadKind>(i)));
  }
  json.Key("total_units").Value(result.server_load.TotalUnits());
  json.EndObject();

  // Write-path accounting (delayed-write extension).
  json.Key("writes").BeginObject();
  json.Key("writes").Value(result.writes);
  json.Key("flushed").Value(result.flushed_writes);
  json.Key("absorbed").Value(result.absorbed_writes);
  json.Key("lost").Value(result.lost_writes);
  json.EndObject();

  // Replay counters (whole run, warm-up included; see counters.h).
  json.Key("counters").BeginObject();
  json.Key("events_replayed").Value(result.counters.events_replayed);
  json.Key("remote_forwards").Value(result.counters.remote_forwards);
  json.Key("recirculations").Value(result.counters.recirculations);
  json.Key("invalidations").Value(result.counters.invalidations);
  json.Key("directory_ops").Value(result.counters.directory_ops);
  json.EndObject();

  json.Key("latency").BeginObject();
  json.Key("count").Value(result.latency_histogram.count());
  json.Key("p50_us").Value(result.latency_histogram.Quantile(0.5));
  json.Key("p90_us").Value(result.latency_histogram.Quantile(0.9));
  json.Key("p99_us").Value(result.latency_histogram.Quantile(0.99));
  json.Key("p999_us").Value(result.latency_histogram.Quantile(0.999));
  json.Key("buckets").BeginArray();
  for (std::size_t b = 0; b < LogHistogram::kNumBuckets; ++b) {
    const std::uint64_t count = result.latency_histogram.bucket_count(b);
    if (count == 0) {
      continue;
    }
    json.BeginObject();
    json.Key("ge_us").Value(LogHistogram::BucketLowerBound(b));
    json.Key("count").Value(count);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();

  if (result.bounded.has_value()) {
    json.Key("bounded");
    WriteStreamSummaryJson(json, *result.bounded);
  }

  if (detail == MetricsDetail::kFull && !result.per_client.empty()) {
    json.Key("per_client").BeginArray();
    for (const ClientReadStats& client : result.per_client) {
      json.BeginObject();
      json.Key("reads").Value(client.reads);
      json.Key("total_time_us").Value(client.total_time_us);
      json.Key("avg_read_time_us").Value(client.AverageReadTime());
      json.EndObject();
    }
    json.EndArray();
  }

  json.EndObject();
}

}  // namespace

void MetricsExporter::SetConfig(const SimulationConfig& config) {
  config_ = config;
  have_config_ = true;
}

void MetricsExporter::AddResult(const SimulationResult& result) { results_.push_back(result); }

std::string MetricsExporter::ToJson() const {
  JsonWriter json(kIndent);
  json.BeginObject();
  json.Key("schema").Value(kMetricsSchema);
  json.Key("coopfs_version").Value(kVersionString);
  WriteProvenanceJson(json);
  if (have_config_) {
    json.Key("config");
    WriteSimulationConfigJson(json, config_);
  }
  json.Key("results").BeginArray();
  for (const SimulationResult& result : results_) {
    WriteResult(json, result, detail_);
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

Status MetricsExporter::WriteFile(const std::string& path) const {
  const std::string document = ToJson();
  // Exporting an invalid document would silently poison every downstream
  // consumer; re-parse before writing (documents are small).
  COOPFS_RETURN_IF_ERROR(ValidateMetricsDocument(document));
  return WriteTextFile(path, document);
}

std::string SimulationResultToJson(const SimulationResult& result, MetricsDetail detail) {
  JsonWriter json(kIndent);
  WriteResult(json, result, detail);
  return json.str();
}

namespace {

// The sketched top-K entries, with the ids and counts coopfs_inspect reads.
Status CheckTopEntries(const JsonValue& bounded, const std::string& where) {
  const JsonValue* blocks = bounded.FindArray("top_blocks");
  const JsonValue* clients = bounded.FindArray("top_clients");
  if (blocks == nullptr || clients == nullptr) {
    return Status::DataLoss(where + " missing array 'top_blocks' or 'top_clients'");
  }
  for (std::size_t i = 0; i < blocks->size(); ++i) {
    const JsonValue& entry = blocks->items()[i];
    const std::string at = where + ".top_blocks[" + std::to_string(i) + "]";
    COOPFS_RETURN_IF_ERROR(RequireMembers<FileId>(entry, at, {"file"}));
    COOPFS_RETURN_IF_ERROR(RequireMembers<BlockIndex>(entry, at, {"block"}));
    COOPFS_RETURN_IF_ERROR(RequireMembers<std::uint64_t>(entry, at, {"reads", "error"}));
    using LevelCounts = std::array<std::uint64_t, kNumCacheLevels>;
    COOPFS_RETURN_IF_ERROR(RequireMembers<LevelCounts>(entry, at, {"levels"}));
  }
  for (std::size_t i = 0; i < clients->size(); ++i) {
    const JsonValue& entry = clients->items()[i];
    const std::string at = where + ".top_clients[" + std::to_string(i) + "]";
    COOPFS_RETURN_IF_ERROR(RequireMembers<ClientId>(entry, at, {"client"}));
    COOPFS_RETURN_IF_ERROR(RequireMembers<std::uint64_t>(entry, at, {"reads", "error"}));
  }
  return Status::Ok();
}

Status CheckResultObject(const JsonValue& result, std::size_t index) {
  const std::string where = "results[" + std::to_string(index) + "]";
  COOPFS_RETURN_IF_ERROR(RequireMembers<std::string>(result, where, {"policy"}));
  COOPFS_RETURN_IF_ERROR(RequireMembers<std::uint64_t>(result, where, {"reads"}));
  COOPFS_RETURN_IF_ERROR(RequireMembers<double>(
      result, where, {"avg_read_time_us", "local_miss_rate", "disk_rate"}));
  const JsonValue* levels = result.FindObject("levels");
  if (levels == nullptr) {
    return Status::DataLoss(where + " missing object field 'levels'");
  }
  for (const char* level : kLevelFields) {
    const JsonValue* entry = levels->FindObject(level);
    if (entry == nullptr) {
      return Status::DataLoss(where + ".levels missing '" + level + "'");
    }
    const std::string at = where + ".levels." + level;
    COOPFS_RETURN_IF_ERROR(RequireMembers<std::uint64_t>(*entry, at, {"count"}));
    COOPFS_RETURN_IF_ERROR(RequireMembers<double>(*entry, at, {"fraction", "time_us"}));
  }
  const JsonValue* load = result.FindObject("server_load");
  if (load == nullptr) {
    return Status::DataLoss(where + " missing object field 'server_load'");
  }
  for (const char* field : kLoadFields) {
    COOPFS_RETURN_IF_ERROR(RequireMembers<std::uint64_t>(*load, where + ".server_load", {field}));
  }
  COOPFS_RETURN_IF_ERROR(
      RequireMembers<std::uint64_t>(*load, where + ".server_load", {"total_units"}));
  const JsonValue* counters = result.FindObject("counters");
  if (counters == nullptr) {
    return Status::DataLoss(where + " missing object field 'counters'");
  }
  COOPFS_RETURN_IF_ERROR(RequireMembers<std::uint64_t>(
      *counters, where + ".counters",
      {"events_replayed", "remote_forwards", "recirculations", "invalidations",
       "directory_ops"}));
  // "bounded" is additive (only kBounded runs carry it), but when present
  // it must be structurally complete.
  const JsonValue* bounded = result.FindObject("bounded");
  if (bounded == nullptr) {
    return Status::Ok();
  }
  const std::string at = where + ".bounded";
  COOPFS_RETURN_IF_ERROR(RequireMembers<std::uint32_t>(*bounded, at, {"top_k"}));
  COOPFS_RETURN_IF_ERROR(
      RequireMembers<std::uint64_t>(*bounded, at, {"counted_reads", "memory_bytes"}));
  COOPFS_RETURN_IF_ERROR(CheckTopEntries(*bounded, at));
  const JsonValue* latency = bounded->FindObject("latency");
  if (latency == nullptr) {
    return Status::DataLoss(at + " missing object 'latency'");
  }
  COOPFS_RETURN_IF_ERROR(RequireMembers<std::uint64_t>(*latency, at + ".latency", {"samples"}));
  COOPFS_RETURN_IF_ERROR(
      RequireMembers<std::uint32_t>(*latency, at + ".latency", {"reservoir_capacity"}));
  COOPFS_RETURN_IF_ERROR(RequireMembers<double>(
      *latency, at + ".latency", {"p50_us", "p90_us", "p99_us", "mean_us", "min_us", "max_us"}));
  // p999_us is additive: absent is fine (pre-p999 documents), present
  // demands a number.
  double p999 = 0.0;
  if (Status status = ReadOptionalMember(*latency, "p999_us", &p999); !status.ok()) {
    return Status::DataLoss(at + ".latency: " + status.message());
  }
  const JsonValue* fairness = bounded->FindObject("fairness");
  if (fairness == nullptr) {
    return Status::DataLoss(at + " missing object 'fairness'");
  }
  return RequireMembers<double>(
      *fairness, at + ".fairness",
      {"top_client_share", "cov_reads_per_client", "gini_read_latency"});
}

}  // namespace

Status ValidateMetricsDocument(std::string_view json) {
  Result<JsonValue> parsed = ParseJson(json);
  if (!parsed.ok()) {
    return parsed.status();
  }
  const JsonValue& root = *parsed;
  std::string schema;
  COOPFS_RETURN_IF_ERROR(ReadMembers(root, "schema", &schema));
  if (schema != kMetricsSchema) {
    return Status::DataLoss("unsupported metrics schema '" + schema + "'");
  }
  const JsonValue* results = root.FindArray("results");
  if (results == nullptr) {
    return Status::DataLoss("metrics document missing 'results' array");
  }
  for (std::size_t i = 0; i < results->items().size(); ++i) {
    COOPFS_RETURN_IF_ERROR(CheckResultObject(results->items()[i], i));
  }
  return Status::Ok();
}

}  // namespace coopfs
