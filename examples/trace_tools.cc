// Trace tooling: generate, inspect, convert, and simulate trace files.
//
// Subcommands:
//   trace_tools generate <sprite|auspex|small|leff> <out-file> [seed [events]]
//       Generate a synthetic workload and write it (binary format).
//   trace_tools stats <trace-file>
//       Print summary statistics for a trace (text or binary).
//   trace_tools convert <in-file> <out-file> <text|binary>
//       Re-encode a trace.
//   trace_tools simulate <trace-file> <policy> [client-mb [server-mb]]
//       Replay a trace under one policy (baseline|direct|greedy|central|
//       nchance|nchance-idle|hash|weighted|best) and print the results.
//   trace_tools filter <in> <out> clients <id,id,...>
//   trace_tools filter <in> <out> time <begin-us> <end-us>
//   trace_tools filter <in> <out> head <count>
//       Extract a sub-trace (client ids are re-numbered densely).
//   trace_tools merge <in-a> <in-b> <out> [client-offset]
//       Splice two traces on the time axis.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/format.h"
#include "src/core/policy_factory.h"
#include "src/sim/simulator.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_stats.h"
#include "src/trace/trace_transform.h"
#include "src/trace/warmup.h"
#include "src/trace/workload.h"

namespace {

using namespace coopfs;

int Usage() {
  std::fprintf(stderr,
               "usage: trace_tools generate <sprite|auspex|small|leff> <out> [seed [events]]\n"
               "       trace_tools stats <trace>\n"
               "       trace_tools convert <in> <out> <text|binary>\n"
               "       trace_tools simulate <trace> <policy> [client-mb [server-mb]]\n"
               "       trace_tools filter <in> <out> clients <id,id,...>\n"
               "       trace_tools filter <in> <out> time <begin-us> <end-us>\n"
               "       trace_tools filter <in> <out> head <count>\n"
               "       trace_tools merge <in-a> <in-b> <out> [client-offset]\n");
  return 2;
}

// Reads `value` into `*out` through ParseFlagNumber, under the name the
// usage text gives it. A malformed number is a usage error (exit 2), found
// before any trace is read: false after printing it.
template <typename T>
bool Number(const char* name, const char* value, T* out) {
  const Status status = ParseFlagNumber(name, value, out);
  if (!status.ok()) {
    std::fprintf(stderr, "trace_tools: %s\n", status.message().c_str());
  }
  return status.ok();
}

// Number() for the optional argv[index]; absent, `*out` keeps its default.
template <typename T>
bool OptionalNumber(int argc, char** argv, int index, const char* name, T* out) {
  return index >= argc || Number(name, argv[index], out);
}

int Generate(int argc, char** argv) {
  if (argc < 4) {
    return Usage();
  }
  const std::string kind = argv[2];
  const std::string out = argv[3];
  std::uint64_t seed = 42;
  std::uint64_t events = 0;
  if (!OptionalNumber(argc, argv, 4, "seed", &seed) ||
      !OptionalNumber(argc, argv, 5, "events", &events)) {
    return 2;
  }

  Trace trace;
  if (kind == "leff") {
    LeffWorkloadConfig config;
    config.seed = seed;
    if (events > 0) {
      config.num_events = events;
    }
    trace = GenerateLeffWorkload(config);
  } else {
    WorkloadConfig config;
    if (kind == "sprite") {
      config = SpriteWorkloadConfig(seed);
    } else if (kind == "auspex") {
      config = AuspexWorkloadConfig(seed);
    } else if (kind == "small") {
      config = SmallTestWorkloadConfig(seed);
    } else {
      return Usage();
    }
    if (events > 0) {
      config.num_events = events;
    }
    trace = GenerateWorkload(config);
  }
  const Status status = WriteTraceBinaryFile(trace, out);
  if (!status.ok()) {
    std::fprintf(stderr, "write failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu events to %s\n", trace.size(), out.c_str());
  return 0;
}

int Stats(int argc, char** argv) {
  if (argc < 3) {
    return Usage();
  }
  Result<Trace> trace = ReadTraceFile(argv[2]);
  if (!trace.ok()) {
    std::fprintf(stderr, "read failed: %s\n", trace.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", ComputeTraceStats(*trace).ToString().c_str());
  return 0;
}

int Convert(int argc, char** argv) {
  if (argc < 5) {
    return Usage();
  }
  Result<Trace> trace = ReadTraceFile(argv[2]);
  if (!trace.ok()) {
    std::fprintf(stderr, "read failed: %s\n", trace.status().ToString().c_str());
    return 1;
  }
  const std::string format = argv[4];
  const Status status = format == "text"   ? WriteTraceTextFile(*trace, argv[3])
                        : format == "binary" ? WriteTraceBinaryFile(*trace, argv[3])
                                             : Status::InvalidArgument("format: " + format);
  if (!status.ok()) {
    std::fprintf(stderr, "write failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("converted %zu events to %s (%s)\n", trace->size(), argv[3], format.c_str());
  return 0;
}

int Simulate(int argc, char** argv) {
  if (argc < 4) {
    return Usage();
  }
  std::size_t client_mb = 16;
  std::size_t server_mb = 128;
  if (!OptionalNumber(argc, argv, 4, "client-mb", &client_mb) ||
      !OptionalNumber(argc, argv, 5, "server-mb", &server_mb)) {
    return 2;
  }
  Result<Trace> trace = ReadTraceFile(argv[2]);
  if (!trace.ok()) {
    std::fprintf(stderr, "read failed: %s\n", trace.status().ToString().c_str());
    return 1;
  }
  const Result<PolicyKind> kind = ParsePolicyKind(argv[3]);
  if (!kind.ok()) {
    std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
    return 1;
  }
  SimulationConfig config;
  config.WithClientCacheMiB(client_mb).WithServerCacheMiB(server_mb);
  config.warmup_events = SpriteWarmupEvents(trace->size());

  Simulator simulator(config, &*trace);
  auto policy = MakePolicy(*kind);
  Result<SimulationResult> result = simulator.Run(*policy);
  if (!result.ok()) {
    std::fprintf(stderr, "simulation failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", result->ToString().c_str());
  std::printf("average read time: %s\n", FormatMicros(result->AverageReadTime()).c_str());
  std::printf("server load: %llu units\n",
              static_cast<unsigned long long>(result->server_load.TotalUnits()));
  return 0;
}

int Filter(int argc, char** argv) {
  if (argc < 6) {
    return Usage();
  }
  const std::string mode = argv[4];
  std::vector<ClientId> clients;
  Micros begin = 0;
  Micros end = 0;
  std::size_t count = 0;
  bool parsed = true;
  if (mode == "clients") {
    const std::string list = argv[5];
    for (std::size_t pos = 0; parsed && pos < list.size();) {
      const std::size_t comma = std::min(list.find(',', pos), list.size());
      parsed = Number("id", list.substr(pos, comma - pos).c_str(), &clients.emplace_back());
      pos = comma + 1;
    }
  } else if (mode == "time" && argc >= 7) {
    parsed = Number("begin-us", argv[5], &begin) && Number("end-us", argv[6], &end);
  } else if (mode == "head") {
    parsed = Number("count", argv[5], &count);
  } else {
    return Usage();
  }
  if (!parsed) {
    return 2;
  }
  Result<Trace> trace = ReadTraceFile(argv[2]);
  if (!trace.ok()) {
    std::fprintf(stderr, "read failed: %s\n", trace.status().ToString().c_str());
    return 1;
  }
  Trace filtered = mode == "clients" ? FilterTraceToClients(*trace, clients)
                   : mode == "time"  ? SliceTraceByTime(*trace, begin, end)
                                     : TraceHead(*trace, count);
  filtered = CompactClientIds(filtered);
  const Status status = WriteTraceBinaryFile(filtered, argv[3]);
  if (!status.ok()) {
    std::fprintf(stderr, "write failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("kept %zu of %zu events -> %s\n", filtered.size(), trace->size(), argv[3]);
  return 0;
}

int Merge(int argc, char** argv) {
  if (argc < 5) {
    return Usage();
  }
  std::uint32_t offset = 0;
  if (!OptionalNumber(argc, argv, 5, "client-offset", &offset)) {
    return 2;
  }
  Result<Trace> a = ReadTraceFile(argv[2]);
  Result<Trace> b = ReadTraceFile(argv[3]);
  if (!a.ok() || !b.ok()) {
    std::fprintf(stderr, "read failed: %s\n",
                 (!a.ok() ? a.status() : b.status()).ToString().c_str());
    return 1;
  }
  const Trace merged = MergeTraces(*a, *b, offset);
  const Status status = WriteTraceBinaryFile(merged, argv[4]);
  if (!status.ok()) {
    std::fprintf(stderr, "write failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("merged %zu + %zu events -> %s\n", a->size(), b->size(), argv[4]);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  if (command == "generate") {
    return Generate(argc, argv);
  }
  if (command == "stats") {
    return Stats(argc, argv);
  }
  if (command == "convert") {
    return Convert(argc, argv);
  }
  if (command == "simulate") {
    return Simulate(argc, argv);
  }
  if (command == "filter") {
    return Filter(argc, argv);
  }
  if (command == "merge") {
    return Merge(argc, argv);
  }
  return Usage();
}
