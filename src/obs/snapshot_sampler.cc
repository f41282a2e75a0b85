#include "src/obs/snapshot_sampler.h"

#include <algorithm>
#include <cassert>
#include <tuple>

#include "src/common/json.h"

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
  AppendJsonlLine(out, json);
}

}  // namespace

std::string TimeseriesToJsonl(const std::vector<SnapshotRun>& runs,
                              const TraceExportMetadata& metadata) {
  std::string out;
  AppendJsonlHeader(out, kTimeseriesSchema, metadata);
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
      AppendJsonlLine(out, json);
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

Status ParseSampleLine(const JsonValue& line, SnapshotRun& run) {
  StateSample sample;
  StateProbe& state = sample.state;
  std::string trigger;
  std::array<std::uint64_t, 2> client_blocks{};
  std::array<std::uint64_t, 2> server_blocks{};
  COOPFS_RETURN_IF_ERROR(ReadMembers(
      line, "i", &sample.index, "trigger", &trigger, "ts", &sample.time, "events",
      &sample.events_replayed, "reads", &sample.window_reads, "counted", &sample.level_reads,
      "time_us", &sample.level_time_us, "client_blocks", &client_blocks, "server_blocks",
      &server_blocks, "dir_blocks", &state.directory_blocks, "singlets", &state.singlet_blocks,
      "duplicates", &state.duplicate_blocks, "recirc", &state.recirculating_copies, "dirty",
      &state.dirty_blocks, "load", &state.load_units));
  if (sample.index != run.samples.size()) {
    return Status::DataLoss("sample index out of order");
  }
  if (!SampleTriggerFromName(trigger, sample.trigger)) {
    return Status::DataLoss("sample has unknown 'trigger'");
  }
  state.client_blocks_used = client_blocks[0];
  state.client_blocks_capacity = client_blocks[1];
  state.server_blocks_used = server_blocks[0];
  state.server_blocks_capacity = server_blocks[1];
  if (state.singlet_blocks + state.duplicate_blocks != state.directory_blocks) {
    return Status::DataLoss("singlets + duplicates != dir_blocks");
  }
  if (sample.CountedReads() > sample.window_reads) {
    return Status::DataLoss("counted reads exceed window reads");
  }
  // [reads, donated, benefited] and [client, reads, error] triplets.
  std::vector<std::array<std::uint64_t, 3>> clients;
  std::vector<std::tuple<ClientId, std::uint64_t, std::uint64_t>> tops;
  COOPFS_RETURN_IF_ERROR(ReadOptionalMember(line, "clients", &clients));
  COOPFS_RETURN_IF_ERROR(ReadOptionalMember(line, "top_clients", &tops));
  for (const auto& [reads, donated, benefited] : clients) {
    sample.clients.push_back(ClientWindowStats{reads, donated, benefited});
  }
  for (const auto& [client, reads, error] : tops) {
    sample.top_clients.push_back(WindowTopClient{client, reads, error});
  }
  run.samples.push_back(std::move(sample));
  return Status::Ok();
}

}  // namespace

Result<TimeseriesDocument> ParseTimeseriesJsonl(std::string_view text) {
  TimeseriesDocument document;
  Status status = ParseJsonlRuns(
      text, kTimeseriesSchema, "timeseries", document.coopfs_version, document.metadata,
      [&document](const JsonValue& line) -> Status {
        SnapshotRun& run = document.runs.emplace_back();
        // "per_client" is additive; documents written before it default to full.
        std::string mode = PerClientModeName(PerClientMode::kFull);
        COOPFS_RETURN_IF_ERROR(ReadMembers(line, "policy", &run.policy, "num_clients",
                                           &run.num_clients, "interval_us", &run.interval,
                                           "start_ts", &run.start_time));
        COOPFS_RETURN_IF_ERROR(ReadOptionalMember(line, "per_client", &mode));
        if (run.interval < 0) {
          return Status::DataLoss("run has negative 'interval_us'");
        }
        if (!PerClientModeFromName(mode, run.per_client_mode)) {
          return Status::DataLoss("run has unknown 'per_client' mode");
        }
        return Status::Ok();
      },
      [&document](const std::string& type, const JsonValue& line) {
        if (type != "sample") {
          return Status::DataLoss("unknown line type '" + type + "'");
        }
        return ParseSampleLine(line, document.runs.back());
      });
  if (!status.ok()) {
    return status;
  }
  return document;
}

Status ValidateTimeseriesDocument(std::string_view text) {
  return ParseTimeseriesJsonl(text).status();
}

}  // namespace coopfs
