#include "src/obs/trace_sink.h"

#include <string>

#include "src/common/json.h"
#include "src/common/version.h"

namespace coopfs {

namespace {

// Schema type tag per op kind, index-aligned with TraceOpKind.
constexpr const char* kOpTypeNames[] = {
    "write", "inval", "recirc", "dir_add", "dir_remove", "dir_erase",
};

constexpr const char* kLevelNames[kNumCacheLevels] = {
    "local_memory",
    "remote_client",
    "server_memory",
    "server_disk",
};

}  // namespace

const char* CacheLevelSchemaName(CacheLevel level) {
  return kLevelNames[static_cast<std::size_t>(level)];
}

bool CacheLevelFromSchemaName(std::string_view name, CacheLevel& level) {
  for (std::size_t i = 0; i < kNumCacheLevels; ++i) {
    if (name == kLevelNames[i]) {
      level = static_cast<CacheLevel>(i);
      return true;
    }
  }
  return false;
}

void AppendJsonlLine(std::string& out, const JsonWriter& json) {
  if (!out.empty()) {
    out += '\n';
  }
  out += json.str();
}

void AppendJsonlHeader(std::string& out, std::string_view schema,
                       const TraceExportMetadata& metadata) {
  JsonWriter json;
  json.BeginObject();
  json.Key("type").Value("header");
  json.Key("schema").Value(schema);
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
  AppendJsonlLine(out, json);
}

Status ParseJsonlRuns(
    std::string_view text, std::string_view schema, std::string_view what,
    std::string& coopfs_version, TraceExportMetadata& metadata,
    const std::function<Status(const JsonValue&)>& on_run,
    const std::function<Status(const std::string& type, const JsonValue&)>& on_record) {
  bool saw_header = false;
  std::uint64_t runs = 0;
  Status status = ForEachJsonLine(text, what, [&](const JsonValue& line) -> Status {
    std::string type;
    COOPFS_RETURN_IF_ERROR(ReadMembers(line, "type", &type));
    if (type == "header") {
      if (saw_header) {
        return Status::DataLoss("duplicate header");
      }
      std::string tag;
      COOPFS_RETURN_IF_ERROR(ReadMembers(line, "schema", &tag));
      if (tag != schema) {
        return Status::DataLoss("unsupported schema '" + tag + "'");
      }
      COOPFS_RETURN_IF_ERROR(ReadMembers(line, "coopfs_version", &coopfs_version, "seed",
                                         &metadata.seed, "trace_events",
                                         &metadata.trace_events));
      COOPFS_RETURN_IF_ERROR(ReadOptionalMember(line, "workload", &metadata.workload));
      COOPFS_RETURN_IF_ERROR(
          ReadOptionalMember(line, "per_client_ceiling", &metadata.per_client_ceiling));
      saw_header = true;
      return Status::Ok();
    }
    if (!saw_header) {
      return Status::DataLoss("first line must be the header");
    }
    std::uint64_t run = 0;
    COOPFS_RETURN_IF_ERROR(ReadMembers(line, "run", &run));
    if (type == "run") {
      if (run != runs) {
        return Status::DataLoss("run index out of order");
      }
      ++runs;
      return on_run(line);
    }
    if (runs == 0 || run != runs - 1) {
      return Status::DataLoss("record outside its run");
    }
    return on_record(type, line);
  });
  if (status.ok() && !saw_header) {
    return Status::DataLoss(std::string(what) + " document has no header line");
  }
  return status;
}

namespace {

bool OpKindFromTypeName(std::string_view name, TraceOpKind& kind) {
  for (std::size_t i = 0; i < std::size(kOpTypeNames); ++i) {
    if (name == kOpTypeNames[i]) {
      kind = static_cast<TraceOpKind>(i);
      return true;
    }
  }
  return false;
}

void WriteReadLine(std::string& out, std::size_t run_index, const ReadSpan& span) {
  JsonWriter json;
  json.BeginObject();
  json.Key("type").Value("read");
  json.Key("run").Value(static_cast<std::uint64_t>(run_index));
  json.Key("seq").Value(span.seq);
  json.Key("i").Value(span.event_index);
  json.Key("ts").Value(static_cast<std::int64_t>(span.timestamp));
  json.Key("client").Value(static_cast<std::uint64_t>(span.client));
  json.Key("file").Value(static_cast<std::uint64_t>(span.block.file));
  json.Key("block").Value(static_cast<std::uint64_t>(span.block.block));
  json.Key("level").Value(CacheLevelSchemaName(span.level));
  json.Key("hops").Value(static_cast<std::uint64_t>(span.hops));
  json.Key("xfer").Value(span.data_transfer);
  json.Key("lat_us").Value(static_cast<std::int64_t>(span.latency_us));
  json.Key("counted").Value(span.counted);
  if (span.forward_holder != kNoClient) {
    json.Key("holder").Value(static_cast<std::uint64_t>(span.forward_holder));
  }
  if (span.recirculations != 0) {
    json.Key("recirc").Value(static_cast<std::uint64_t>(span.recirculations));
  }
  json.EndObject();
  AppendJsonlLine(out, json);
}

void WriteOpLine(std::string& out, std::size_t run_index, const OpRecord& op) {
  JsonWriter json;
  json.BeginObject();
  json.Key("type").Value(kOpTypeNames[static_cast<std::size_t>(op.kind)]);
  json.Key("run").Value(static_cast<std::uint64_t>(run_index));
  json.Key("seq").Value(op.seq);
  json.Key("i").Value(op.event_index);
  json.Key("ts").Value(static_cast<std::int64_t>(op.timestamp));
  if (op.client != kNoClient) {
    json.Key("client").Value(static_cast<std::uint64_t>(op.client));
  }
  json.Key("file").Value(static_cast<std::uint64_t>(op.block.file));
  json.Key("block").Value(static_cast<std::uint64_t>(op.block.block));
  if (op.kind == TraceOpKind::kInvalidation && op.peer != kNoClient) {
    json.Key("writer").Value(static_cast<std::uint64_t>(op.peer));
  }
  if (op.kind == TraceOpKind::kRecirculation) {
    json.Key("peer").Value(static_cast<std::uint64_t>(op.peer));
    json.Key("count").Value(static_cast<std::uint64_t>(op.detail));
  }
  json.EndObject();
  AppendJsonlLine(out, json);
}

}  // namespace

std::string EventsToJsonl(const std::vector<TraceRun>& runs,
                          const TraceExportMetadata& metadata) {
  std::string out;
  TraceExportMetadata header = metadata;
  header.per_client_ceiling = 0;  // Describes timeseries run lines only.
  AppendJsonlHeader(out, kEventsSchema, header);
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const TraceRun& run = runs[r];
    {
      JsonWriter json;
      json.BeginObject();
      json.Key("type").Value("run");
      json.Key("run").Value(static_cast<std::uint64_t>(r));
      json.Key("policy").Value(run.policy);
      json.Key("num_clients").Value(static_cast<std::uint64_t>(run.num_clients));
      json.EndObject();
      AppendJsonlLine(out, json);
    }
    // Reads and ops are each seq-sorted (append order); merge to one
    // chronological stream.
    std::size_t ri = 0;
    std::size_t oi = 0;
    while (ri < run.reads.size() || oi < run.ops.size()) {
      const bool take_read =
          oi >= run.ops.size() ||
          (ri < run.reads.size() && run.reads[ri].seq < run.ops[oi].seq);
      if (take_read) {
        WriteReadLine(out, r, run.reads[ri++]);
      } else {
        WriteOpLine(out, r, run.ops[oi++]);
      }
    }
  }
  return out;
}

Status WriteEventsJsonl(const std::vector<TraceRun>& runs, const TraceExportMetadata& metadata,
                        const std::string& path) {
  const std::string document = EventsToJsonl(runs, metadata);
  COOPFS_RETURN_IF_ERROR(ValidateEventsDocument(document));
  return WriteTextFile(path, document);
}

namespace {

Status ParseReadLine(const JsonValue& line, TraceRun& run) {
  ReadSpan span;
  std::string level;
  COOPFS_RETURN_IF_ERROR(ReadMembers(
      line, "seq", &span.seq, "i", &span.event_index, "ts", &span.timestamp, "client",
      &span.client, "file", &span.block.file, "block", &span.block.block, "level", &level,
      "hops", &span.hops, "xfer", &span.data_transfer, "lat_us", &span.latency_us, "counted",
      &span.counted));
  if (!CacheLevelFromSchemaName(level, span.level)) {
    return Status::DataLoss("read has unknown 'level'");
  }
  COOPFS_RETURN_IF_ERROR(ReadOptionalMember(line, "holder", &span.forward_holder));
  COOPFS_RETURN_IF_ERROR(ReadOptionalMember(line, "recirc", &span.recirculations));
  run.reads.push_back(span);
  return Status::Ok();
}

Status ParseOpLine(const JsonValue& line, TraceOpKind kind, TraceRun& run) {
  OpRecord op;
  op.kind = kind;
  COOPFS_RETURN_IF_ERROR(ReadMembers(line, "seq", &op.seq, "i", &op.event_index, "ts",
                                     &op.timestamp, "file", &op.block.file, "block",
                                     &op.block.block));
  COOPFS_RETURN_IF_ERROR(ReadOptionalMember(line, "client", &op.client));
  if (kind == TraceOpKind::kInvalidation) {
    COOPFS_RETURN_IF_ERROR(ReadOptionalMember(line, "writer", &op.peer));
  }
  if (kind == TraceOpKind::kRecirculation) {
    COOPFS_RETURN_IF_ERROR(ReadMembers(line, "peer", &op.peer, "count", &op.detail));
  }
  run.ops.push_back(op);
  return Status::Ok();
}

}  // namespace

Result<EventsDocument> ParseEventsJsonl(std::string_view text) {
  EventsDocument document;
  COOPFS_RETURN_IF_ERROR(ParseJsonlRuns(
      text, kEventsSchema, "events", document.coopfs_version, document.metadata,
      [&document](const JsonValue& line) {
        TraceRun& run = document.runs.emplace_back();
        return ReadMembers(line, "policy", &run.policy, "num_clients", &run.num_clients);
      },
      [&document](const std::string& type, const JsonValue& line) {
        if (type == "read") {
          return ParseReadLine(line, document.runs.back());
        }
        if (TraceOpKind kind; OpKindFromTypeName(type, kind)) {
          return ParseOpLine(line, kind, document.runs.back());
        }
        return Status::DataLoss("unknown record type '" + type + "'");
      }));
  return document;
}

Status ValidateEventsDocument(std::string_view text) {
  return ParseEventsJsonl(text).status();
}

std::string PerfettoTraceJson(const std::vector<TraceRun>& runs) {
  JsonWriter json;
  json.BeginObject();
  json.Key("displayTimeUnit").Value("ms");
  json.Key("traceEvents").BeginArray();
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const TraceRun& run = runs[r];
    json.BeginObject();
    json.Key("name").Value("process_name");
    json.Key("ph").Value("M");
    json.Key("pid").Value(static_cast<std::uint64_t>(r));
    json.Key("args").BeginObject().Key("name").Value(run.policy).EndObject();
    json.EndObject();
    for (std::uint32_t c = 0; c < run.num_clients; ++c) {
      json.BeginObject();
      json.Key("name").Value("thread_name");
      json.Key("ph").Value("M");
      json.Key("pid").Value(static_cast<std::uint64_t>(r));
      json.Key("tid").Value(static_cast<std::uint64_t>(c));
      json.Key("args")
          .BeginObject()
          .Key("name")
          .Value("client " + std::to_string(c))
          .EndObject();
      json.EndObject();
    }
    std::size_t ri = 0;
    std::size_t oi = 0;
    while (ri < run.reads.size() || oi < run.ops.size()) {
      const bool take_read =
          oi >= run.ops.size() ||
          (ri < run.reads.size() && run.reads[ri].seq < run.ops[oi].seq);
      if (take_read) {
        const ReadSpan& span = run.reads[ri++];
        json.BeginObject();
        json.Key("name").Value("read " + span.block.ToString());
        json.Key("cat").Value(std::string("read,") + CacheLevelSchemaName(span.level));
        json.Key("ph").Value("X");
        json.Key("ts").Value(static_cast<std::int64_t>(span.timestamp));
        json.Key("dur").Value(static_cast<std::int64_t>(span.latency_us));
        json.Key("pid").Value(static_cast<std::uint64_t>(r));
        json.Key("tid").Value(static_cast<std::uint64_t>(span.client));
        json.Key("args").BeginObject();
        json.Key("level").Value(CacheLevelSchemaName(span.level));
        json.Key("hops").Value(static_cast<std::uint64_t>(span.hops));
        json.Key("event_index").Value(span.event_index);
        json.Key("counted").Value(span.counted);
        if (span.forward_holder != kNoClient) {
          json.Key("holder").Value(static_cast<std::uint64_t>(span.forward_holder));
        }
        if (span.recirculations != 0) {
          json.Key("recirculations").Value(static_cast<std::uint64_t>(span.recirculations));
        }
        json.EndObject();
        json.EndObject();
      } else {
        const OpRecord& op = run.ops[oi++];
        const char* kind_name = kOpTypeNames[static_cast<std::size_t>(op.kind)];
        json.BeginObject();
        json.Key("name").Value(std::string(kind_name) + " " + op.block.ToString());
        json.Key("cat").Value(kind_name);
        json.Key("ph").Value("i");
        json.Key("ts").Value(static_cast<std::int64_t>(op.timestamp));
        json.Key("pid").Value(static_cast<std::uint64_t>(r));
        if (op.client != kNoClient) {
          json.Key("tid").Value(static_cast<std::uint64_t>(op.client));
          json.Key("s").Value("t");
        } else {
          json.Key("tid").Value(std::uint64_t{0});
          json.Key("s").Value("p");
        }
        json.Key("args").BeginObject();
        json.Key("event_index").Value(op.event_index);
        if (op.kind == TraceOpKind::kInvalidation && op.peer != kNoClient) {
          json.Key("writer").Value(static_cast<std::uint64_t>(op.peer));
        }
        if (op.kind == TraceOpKind::kRecirculation) {
          json.Key("peer").Value(static_cast<std::uint64_t>(op.peer));
          json.Key("count").Value(static_cast<std::uint64_t>(op.detail));
        }
        json.EndObject();
        json.EndObject();
      }
    }
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

Status WritePerfettoTrace(const std::vector<TraceRun>& runs, const std::string& path) {
  return WriteTextFile(path, PerfettoTraceJson(runs));
}

}  // namespace coopfs
