#include "src/obs/snapshot_sampler.h"

#include <algorithm>
#include <cassert>

#include "src/common/json.h"
#include "src/common/version.h"

namespace coopfs {

namespace {

// Schema trigger names, index-aligned with SampleTrigger.
constexpr const char* kTriggerNames[] = {"interval", "warmup_end", "run_end"};

// Schema per-client mode names, index-aligned with PerClientMode.
constexpr const char* kPerClientModeNames[] = {"full", "auto_off", "off"};

}  // namespace

const char* PerClientModeName(PerClientMode mode) {
  return kPerClientModeNames[static_cast<std::size_t>(mode)];
}

bool PerClientModeFromName(std::string_view name, PerClientMode& mode) {
  for (std::size_t i = 0; i < std::size(kPerClientModeNames); ++i) {
    if (name == kPerClientModeNames[i]) {
      mode = static_cast<PerClientMode>(i);
      return true;
    }
  }
  return false;
}

const char* SampleTriggerName(SampleTrigger trigger) {
  return kTriggerNames[static_cast<std::size_t>(trigger)];
}

bool SampleTriggerFromName(std::string_view name, SampleTrigger& trigger) {
  for (std::size_t i = 0; i < std::size(kTriggerNames); ++i) {
    if (name == kTriggerNames[i]) {
      trigger = static_cast<SampleTrigger>(i);
      return true;
    }
  }
  return false;
}

std::uint64_t StateSample::CountedReads() const {
  std::uint64_t total = 0;
  for (std::uint64_t count : level_reads) {
    total += count;
  }
  return total;
}

double StateSample::CountedTimeUs() const {
  double total = 0.0;
  for (double level_time : level_time_us) {
    total += level_time;
  }
  return total;
}

void SnapshotSampler::BeginRun(std::string policy, std::uint32_t num_clients, Micros interval,
                               Micros start_time) {
  // Resolve per-client collection: an explicit option always wins; the
  // automatic default disables triplets (recording the decision) once
  // num_clients crosses the ceiling, so large runs never allocate O(N).
  PerClientMode mode = PerClientMode::kFull;
  if (options_.include_per_client.has_value()) {
    mode = *options_.include_per_client ? PerClientMode::kFull : PerClientMode::kOff;
  } else if (num_clients > options_.per_client_ceiling) {
    mode = PerClientMode::kAutoOff;
  }

  SnapshotRun run;
  run.policy = std::move(policy);
  run.num_clients = num_clients;
  run.interval = interval > 0 ? interval : 0;
  run.start_time = start_time;
  run.per_client_mode = mode;
  runs_.push_back(std::move(run));

  interval_ = runs_.back().interval;
  next_boundary_ = interval_ > 0 ? start_time + interval_ : 0;
  events_replayed_ = 0;
  window_reads_ = 0;
  level_reads_ = {};
  level_time_us_ = {};
  clients_.assign(mode == PerClientMode::kFull ? num_clients : 0, ClientWindowStats{});
  if (mode != PerClientMode::kFull && options_.window_top_k > 0) {
    window_top_.emplace(options_.window_top_k);
  } else {
    window_top_.reset();
  }
  pending_holder_ = kNoClient;
}

void SnapshotSampler::CaptureDue(Micros timestamp, const StateProbe& probe) {
  // One sample per crossed boundary: the first carries the window's
  // accumulators, the rest are explicit zero-read intervals (the gauges are
  // identical — no event ran in between).
  while (interval_ > 0 && timestamp >= next_boundary_) {
    Emit(SampleTrigger::kInterval, next_boundary_, probe);
    next_boundary_ += interval_;
  }
}

void SnapshotSampler::CaptureWarmupEnd(Micros timestamp, const StateProbe& probe) {
  Emit(SampleTrigger::kWarmupEnd, timestamp, probe);
}

void SnapshotSampler::CaptureRunEnd(Micros timestamp, const StateProbe& probe) {
  Emit(SampleTrigger::kRunEnd, timestamp, probe);
}

void SnapshotSampler::RecordRead(ClientId client, CacheLevel level, Micros latency,
                                 bool counted) {
  ++window_reads_;
  const ClientId holder = pending_holder_;
  pending_holder_ = kNoClient;
  if (!counted) {
    return;
  }
  const auto level_index = static_cast<std::size_t>(level);
  ++level_reads_[level_index];
  level_time_us_[level_index] += static_cast<double>(latency);
  if (clients_.empty()) {
    if (window_top_.has_value()) {
      window_top_->Add(client);
    }
    return;
  }
  if (client < clients_.size()) {
    ++clients_[client].reads;
    if (holder != kNoClient && holder < clients_.size()) {
      ++clients_[client].benefited;
      ++clients_[holder].donated;
    }
  }
}

void SnapshotSampler::Emit(SampleTrigger trigger, Micros time, const StateProbe& probe) {
  assert(!runs_.empty() && "Emit before BeginRun");
  SnapshotRun& run = runs_.back();
  StateSample sample;
  sample.index = run.samples.size();
  sample.trigger = trigger;
  sample.time = time;
  sample.events_replayed = events_replayed_;
  sample.window_reads = window_reads_;
  sample.level_reads = level_reads_;
  sample.level_time_us = level_time_us_;
  sample.clients = clients_;
  if (window_top_.has_value()) {
    for (std::uint32_t slot : window_top_->RankedSlots()) {
      const SpaceSaving::Entry& entry = window_top_->entries()[slot];
      sample.top_clients.push_back(WindowTopClient{
          static_cast<ClientId>(entry.key), entry.count, entry.error});
    }
  }
  sample.state = probe;
  run.samples.push_back(std::move(sample));

  window_reads_ = 0;
  level_reads_ = {};
  level_time_us_ = {};
  std::fill(clients_.begin(), clients_.end(), ClientWindowStats{});
  if (window_top_.has_value()) {
    window_top_->Clear();
  }
}

// ---- JSONL serialization ----

namespace {

void AppendLine(std::string& out, const JsonWriter& json) {
  if (!out.empty()) {
    out += '\n';
  }
  out += json.str();
}

void WriteSampleLine(std::string& out, std::size_t run_index, const StateSample& sample) {
  JsonWriter json;
  json.BeginObject();
  json.Key("type").Value("sample");
  json.Key("run").Value(static_cast<std::uint64_t>(run_index));
  json.Key("i").Value(sample.index);
  json.Key("trigger").Value(SampleTriggerName(sample.trigger));
  json.Key("ts").Value(static_cast<std::int64_t>(sample.time));
  json.Key("events").Value(sample.events_replayed);
  json.Key("reads").Value(sample.window_reads);
  json.Key("counted").BeginArray();
  for (std::uint64_t count : sample.level_reads) {
    json.Value(count);
  }
  json.EndArray();
  json.Key("time_us").BeginArray();
  for (double time : sample.level_time_us) {
    json.Value(time);
  }
  json.EndArray();
  json.Key("client_blocks").BeginArray();
  json.Value(sample.state.client_blocks_used).Value(sample.state.client_blocks_capacity);
  json.EndArray();
  json.Key("server_blocks").BeginArray();
  json.Value(sample.state.server_blocks_used).Value(sample.state.server_blocks_capacity);
  json.EndArray();
  json.Key("dir_blocks").Value(sample.state.directory_blocks);
  json.Key("singlets").Value(sample.state.singlet_blocks);
  json.Key("duplicates").Value(sample.state.duplicate_blocks);
  json.Key("recirc").Value(sample.state.recirculating_copies);
  json.Key("dirty").Value(sample.state.dirty_blocks);
  json.Key("load").BeginArray();
  for (std::uint64_t units : sample.state.load_units) {
    json.Value(units);
  }
  json.EndArray();
  if (!sample.clients.empty()) {
    json.Key("clients").BeginArray();
    for (const ClientWindowStats& client : sample.clients) {
      json.BeginArray();
      json.Value(client.reads).Value(client.donated).Value(client.benefited);
      json.EndArray();
    }
    json.EndArray();
  }
  if (!sample.top_clients.empty()) {
    json.Key("top_clients").BeginArray();
    for (const WindowTopClient& top : sample.top_clients) {
      json.BeginArray();
      json.Value(static_cast<std::uint64_t>(top.client)).Value(top.reads).Value(top.error);
      json.EndArray();
    }
    json.EndArray();
  }
  json.EndObject();
  AppendLine(out, json);
}

}  // namespace

std::string TimeseriesToJsonl(const std::vector<SnapshotRun>& runs,
                              const TraceExportMetadata& metadata) {
  std::string out;
  {
    JsonWriter json;
    json.BeginObject();
    json.Key("type").Value("header");
    json.Key("schema").Value(kTimeseriesSchema);
    json.Key("coopfs_version").Value(kVersionString);
    json.Key("seed").Value(metadata.seed);
    json.Key("trace_events").Value(metadata.trace_events);
    if (!metadata.workload.empty()) {
      json.Key("workload").Value(metadata.workload);
    }
    if (metadata.per_client_ceiling > 0) {
      json.Key("per_client_ceiling").Value(static_cast<std::uint64_t>(metadata.per_client_ceiling));
    }
    json.EndObject();
    AppendLine(out, json);
  }
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const SnapshotRun& run = runs[r];
    {
      JsonWriter json;
      json.BeginObject();
      json.Key("type").Value("run");
      json.Key("run").Value(static_cast<std::uint64_t>(r));
      json.Key("policy").Value(run.policy);
      json.Key("num_clients").Value(static_cast<std::uint64_t>(run.num_clients));
      json.Key("interval_us").Value(static_cast<std::int64_t>(run.interval));
      json.Key("start_ts").Value(static_cast<std::int64_t>(run.start_time));
      json.Key("per_client").Value(PerClientModeName(run.per_client_mode));
      json.EndObject();
      AppendLine(out, json);
    }
    for (const StateSample& sample : run.samples) {
      WriteSampleLine(out, r, sample);
    }
  }
  return out;
}

Status WriteTimeseriesJsonl(const std::vector<SnapshotRun>& runs,
                            const TraceExportMetadata& metadata, const std::string& path) {
  const std::string document = TimeseriesToJsonl(runs, metadata);
  COOPFS_RETURN_IF_ERROR(ValidateTimeseriesDocument(document));
  return WriteTextFile(path, document);
}

// ---- JSONL parsing ----

namespace {

Status LineError(std::size_t line_number, const std::string& message) {
  return Status::DataLoss("timeseries line " + std::to_string(line_number) + ": " + message);
}

// Fetches a required non-negative integral field.
bool GetUint(const JsonValue& value, std::string_view key, std::uint64_t& out) {
  const JsonValue* field = value.FindNumber(key);
  if (field == nullptr || !field->IsIntegral() || field->AsInt() < 0) {
    return false;
  }
  out = static_cast<std::uint64_t>(field->AsInt());
  return true;
}

// Fetches a fixed-length array of non-negative integers.
template <std::size_t N>
bool GetUintArray(const JsonValue& value, std::string_view key,
                  std::array<std::uint64_t, N>& out) {
  const JsonValue* field = value.FindArray(key);
  if (field == nullptr || field->size() != N) {
    return false;
  }
  for (std::size_t i = 0; i < N; ++i) {
    const JsonValue& item = field->items()[i];
    if (!item.IsIntegral() || item.AsInt() < 0) {
      return false;
    }
    out[i] = static_cast<std::uint64_t>(item.AsInt());
  }
  return true;
}

Status ParseSampleLine(const JsonValue& value, std::size_t line_number, SnapshotRun& run) {
  StateSample sample;
  std::uint64_t index = 0;
  if (!GetUint(value, "i", index) || !GetUint(value, "events", sample.events_replayed) ||
      !GetUint(value, "reads", sample.window_reads)) {
    return LineError(line_number, "sample missing integral field");
  }
  if (index != run.samples.size()) {
    return LineError(line_number, "sample index out of order");
  }
  sample.index = index;
  const JsonValue* trigger = value.FindString("trigger");
  if (trigger == nullptr || !SampleTriggerFromName(trigger->AsString(), sample.trigger)) {
    return LineError(line_number, "sample has unknown 'trigger'");
  }
  const JsonValue* ts = value.FindNumber("ts");
  if (ts == nullptr || !ts->IsIntegral()) {
    return LineError(line_number, "sample missing 'ts'");
  }
  sample.time = ts->AsInt();
  if (!GetUintArray(value, "counted", sample.level_reads)) {
    return LineError(line_number, "sample 'counted' must have one entry per cache level");
  }
  const JsonValue* times = value.FindArray("time_us");
  if (times == nullptr || times->size() != kNumCacheLevels) {
    return LineError(line_number, "sample 'time_us' must have one entry per cache level");
  }
  for (std::size_t i = 0; i < kNumCacheLevels; ++i) {
    const JsonValue& item = times->items()[i];
    if (!item.is_number()) {
      return LineError(line_number, "sample 'time_us' entries must be numbers");
    }
    sample.level_time_us[i] = item.AsDouble();
  }
  std::array<std::uint64_t, 2> client_blocks{};
  std::array<std::uint64_t, 2> server_blocks{};
  if (!GetUintArray(value, "client_blocks", client_blocks) ||
      !GetUintArray(value, "server_blocks", server_blocks)) {
    return LineError(line_number, "sample missing occupancy pair");
  }
  sample.state.client_blocks_used = client_blocks[0];
  sample.state.client_blocks_capacity = client_blocks[1];
  sample.state.server_blocks_used = server_blocks[0];
  sample.state.server_blocks_capacity = server_blocks[1];
  if (!GetUint(value, "dir_blocks", sample.state.directory_blocks) ||
      !GetUint(value, "singlets", sample.state.singlet_blocks) ||
      !GetUint(value, "duplicates", sample.state.duplicate_blocks) ||
      !GetUint(value, "recirc", sample.state.recirculating_copies) ||
      !GetUint(value, "dirty", sample.state.dirty_blocks)) {
    return LineError(line_number, "sample missing state gauge");
  }
  if (sample.state.singlet_blocks + sample.state.duplicate_blocks !=
      sample.state.directory_blocks) {
    return LineError(line_number, "singlets + duplicates != dir_blocks");
  }
  if (!GetUintArray(value, "load", sample.state.load_units)) {
    return LineError(line_number, "sample 'load' must have one entry per load kind");
  }
  if (sample.CountedReads() > sample.window_reads) {
    return LineError(line_number, "counted reads exceed window reads");
  }
  if (const JsonValue* clients = value.FindArray("clients"); clients != nullptr) {
    sample.clients.reserve(clients->size());
    for (const JsonValue& entry : clients->items()) {
      if (!entry.is_array() || entry.size() != 3) {
        return LineError(line_number, "client entries must be [reads, donated, benefited]");
      }
      ClientWindowStats stats;
      for (std::size_t i = 0; i < 3; ++i) {
        const JsonValue& item = entry.items()[i];
        if (!item.IsIntegral() || item.AsInt() < 0) {
          return LineError(line_number, "client entries must be non-negative integers");
        }
        (i == 0 ? stats.reads : i == 1 ? stats.donated : stats.benefited) =
            static_cast<std::uint64_t>(item.AsInt());
      }
      sample.clients.push_back(stats);
    }
  }
  if (const JsonValue* tops = value.FindArray("top_clients"); tops != nullptr) {
    sample.top_clients.reserve(tops->size());
    for (const JsonValue& entry : tops->items()) {
      if (!entry.is_array() || entry.size() != 3) {
        return LineError(line_number, "top_clients entries must be [client, reads, error]");
      }
      WindowTopClient top;
      for (std::size_t i = 0; i < 3; ++i) {
        const JsonValue& item = entry.items()[i];
        if (!item.IsIntegral() || item.AsInt() < 0) {
          return LineError(line_number, "top_clients entries must be non-negative integers");
        }
        const auto raw = static_cast<std::uint64_t>(item.AsInt());
        if (i == 0) {
          top.client = static_cast<ClientId>(raw);
        } else if (i == 1) {
          top.reads = raw;
        } else {
          top.error = raw;
        }
      }
      sample.top_clients.push_back(top);
    }
  }
  run.samples.push_back(std::move(sample));
  return Status::Ok();
}

}  // namespace

Result<TimeseriesDocument> ParseTimeseriesJsonl(std::string_view text) {
  TimeseriesDocument document;
  bool saw_header = false;
  std::size_t line_number = 0;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    const std::string_view line = text.substr(begin, end - begin);
    begin = end + 1;
    ++line_number;
    if (line.empty()) {
      continue;
    }
    Result<JsonValue> parsed = ParseJson(line);
    if (!parsed.ok()) {
      return LineError(line_number, parsed.status().ToString());
    }
    const JsonValue* type = parsed->FindString("type");
    if (type == nullptr) {
      return LineError(line_number, "missing 'type'");
    }
    if (type->AsString() == "header") {
      if (saw_header) {
        return LineError(line_number, "duplicate header");
      }
      const JsonValue* schema = parsed->FindString("schema");
      if (schema == nullptr || schema->AsString() != kTimeseriesSchema) {
        return LineError(line_number, "missing schema tag '" + std::string(kTimeseriesSchema) +
                                          "'");
      }
      const JsonValue* version = parsed->FindString("coopfs_version");
      if (version == nullptr || !GetUint(*parsed, "seed", document.metadata.seed) ||
          !GetUint(*parsed, "trace_events", document.metadata.trace_events)) {
        return LineError(line_number, "header missing version/seed/trace_events");
      }
      document.coopfs_version = version->AsString();
      if (const JsonValue* workload = parsed->FindString("workload"); workload != nullptr) {
        document.metadata.workload = workload->AsString();
      }
      if (const JsonValue* ceiling = parsed->FindNumber("per_client_ceiling");
          ceiling != nullptr) {
        if (!ceiling->IsIntegral() || ceiling->AsInt() < 0) {
          return LineError(line_number, "header 'per_client_ceiling' must be non-negative");
        }
        document.metadata.per_client_ceiling = static_cast<std::uint32_t>(ceiling->AsInt());
      }
      saw_header = true;
      continue;
    }
    if (!saw_header) {
      return LineError(line_number, "document must start with a header line");
    }
    std::uint64_t run_index = 0;
    if (!GetUint(*parsed, "run", run_index)) {
      return LineError(line_number, "missing 'run'");
    }
    if (type->AsString() == "run") {
      if (run_index != document.runs.size()) {
        return LineError(line_number, "run index out of order");
      }
      SnapshotRun run;
      const JsonValue* policy = parsed->FindString("policy");
      std::uint64_t num_clients = 0;
      if (policy == nullptr || !GetUint(*parsed, "num_clients", num_clients)) {
        return LineError(line_number, "run missing 'policy' or 'num_clients'");
      }
      const JsonValue* interval = parsed->FindNumber("interval_us");
      const JsonValue* start = parsed->FindNumber("start_ts");
      if (interval == nullptr || !interval->IsIntegral() || interval->AsInt() < 0 ||
          start == nullptr || !start->IsIntegral()) {
        return LineError(line_number, "run missing 'interval_us' or 'start_ts'");
      }
      run.policy = policy->AsString();
      run.num_clients = static_cast<std::uint32_t>(num_clients);
      run.interval = interval->AsInt();
      run.start_time = start->AsInt();
      // "per_client" is additive; documents written before it default to full.
      if (const JsonValue* mode = parsed->FindString("per_client"); mode != nullptr) {
        if (!PerClientModeFromName(mode->AsString(), run.per_client_mode)) {
          return LineError(line_number, "run has unknown 'per_client' mode");
        }
      }
      document.runs.push_back(std::move(run));
      continue;
    }
    if (type->AsString() == "sample") {
      if (document.runs.empty() || run_index != document.runs.size() - 1) {
        return LineError(line_number, "sample outside its run");
      }
      COOPFS_RETURN_IF_ERROR(ParseSampleLine(*parsed, line_number, document.runs.back()));
      continue;
    }
    return LineError(line_number, "unknown line type '" + type->AsString() + "'");
  }
  if (!saw_header) {
    return Status::DataLoss("timeseries document has no header line");
  }
  return document;
}

Status ValidateTimeseriesDocument(std::string_view text) {
  return ParseTimeseriesJsonl(text).status();
}

}  // namespace coopfs
