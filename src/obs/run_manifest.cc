#include "src/obs/run_manifest.h"

#include "src/common/json.h"
#include "src/common/version.h"
#include "src/obs/metrics_exporter.h"

namespace coopfs {

std::string RunManifestToJson(const RunManifest& manifest) {
  JsonWriter json(2);
  json.BeginObject();
  json.Key("schema").Value(kRunManifestSchema);
  json.Key("coopfs_version").Value(kVersionString);
  WriteProvenanceJson(json);
  json.Key("experiment").Value(manifest.experiment);
  json.Key("title").Value(manifest.title);
  json.Key("description").Value(manifest.description);
  json.Key("workloads").BeginArray();
  for (const std::string& workload : manifest.workloads) {
    json.Value(workload);
  }
  json.EndArray();
  json.Key("options").BeginObject();
  json.Key("events").Value(manifest.events);
  json.Key("seed").Value(manifest.seed);
  json.Key("auspex_events").Value(manifest.auspex_events);
  json.Key("sample_interval_us").Value(static_cast<std::int64_t>(manifest.sample_interval));
  json.EndObject();
  json.Key("configs").BeginArray();
  for (const SimulationConfig& config : manifest.configs) {
    WriteSimulationConfigJson(json, config);
  }
  json.EndArray();
  json.Key("num_results").Value(manifest.num_results);
  json.Key("threads").Value(manifest.threads);
  json.Key("wall_time_s").Value(manifest.wall_time_s);
  json.Key("command").Value(manifest.command);
  json.Key("exports").BeginArray();
  for (const RunExport& entry : manifest.exports) {
    json.BeginObject();
    json.Key("kind").Value(entry.kind);
    json.Key("schema").Value(entry.schema);
    json.Key("path").Value(entry.path);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

Status WriteRunManifest(const RunManifest& manifest, const std::string& path) {
  const std::string document = RunManifestToJson(manifest);
  COOPFS_RETURN_IF_ERROR(ValidateRunManifestDocument(document));
  return WriteTextFile(path, document);
}

Status ValidateRunManifestDocument(std::string_view json) {
  Result<JsonValue> parsed = ParseJson(json);
  if (!parsed.ok()) {
    return parsed.status();
  }
  const JsonValue& root = *parsed;
  std::string schema;
  COOPFS_RETURN_IF_ERROR(ReadMembers(root, "schema", &schema));
  if (schema != kRunManifestSchema) {
    return Status::DataLoss("unsupported run manifest schema '" + schema + "'");
  }
  COOPFS_RETURN_IF_ERROR(RequireMembers<std::string>(
      root, "run manifest", {"coopfs_version", "experiment", "title", "description", "command"}));
  if (root.FindString("experiment")->AsString().empty()) {
    return Status::DataLoss("run manifest 'experiment' is empty");
  }
  COOPFS_RETURN_IF_ERROR(
      RequireMembers<std::vector<std::string>>(root, "run manifest", {"workloads"}));
  COOPFS_RETURN_IF_ERROR(
      RequireMembers<std::uint64_t>(root, "run manifest", {"num_results", "threads"}));
  COOPFS_RETURN_IF_ERROR(RequireMembers<double>(root, "run manifest", {"wall_time_s"}));
  const JsonValue* options = root.FindObject("options");
  if (options == nullptr) {
    return Status::DataLoss("run manifest missing 'options' object");
  }
  COOPFS_RETURN_IF_ERROR(RequireMembers<std::uint64_t>(*options, "run manifest options",
                                                       {"events", "seed", "auspex_events"}));
  COOPFS_RETURN_IF_ERROR(
      RequireMembers<Micros>(*options, "run manifest options", {"sample_interval_us"}));
  const JsonValue* configs = root.FindArray("configs");
  if (configs == nullptr) {
    return Status::DataLoss("run manifest missing 'configs' array");
  }
  for (std::size_t i = 0; i < configs->items().size(); ++i) {
    const JsonValue& config = configs->items()[i];
    const std::string where = "run manifest configs[" + std::to_string(i) + "]";
    COOPFS_RETURN_IF_ERROR(RequireMembers<std::uint64_t>(
        config, where,
        {"client_cache_blocks", "server_cache_blocks", "block_size_bytes", "warmup_events",
         "seed"}));
    COOPFS_RETURN_IF_ERROR(
        RequireMembers<std::uint32_t>(config, where, {"num_servers", "num_clients"}));
    COOPFS_RETURN_IF_ERROR(RequireMembers<std::string>(config, where, {"write_policy"}));
    if (config.FindObject("network") == nullptr) {
      return Status::DataLoss(where + " missing object 'network'");
    }
  }
  const JsonValue* exports = root.FindArray("exports");
  if (exports == nullptr) {
    return Status::DataLoss("run manifest missing 'exports' array");
  }
  for (std::size_t i = 0; i < exports->items().size(); ++i) {
    const JsonValue& entry = exports->items()[i];
    const std::string where = "run manifest exports[" + std::to_string(i) + "]";
    COOPFS_RETURN_IF_ERROR(RequireMembers<std::string>(entry, where, {"kind", "schema", "path"}));
    if (entry.FindString("path")->AsString().empty()) {
      return Status::DataLoss(where + " has an empty path");
    }
  }
  return Status::Ok();
}

}  // namespace coopfs
