#include "src/exp/options.h"

#include <cstring>

#include "src/common/flags.h"
#include "src/common/profiler.h"

namespace coopfs {

namespace {

constexpr const char* kBenchFlags[] = {
    "--events", "--seed", "--auspex-events", "--json", "--trace-events", "--trace-perfetto",
    "--timeseries", "--sample-interval", "--profile", "--metrics-detail", "--bench-out",
    "--max-clients",
};

}  // namespace

bool IsBenchFlag(const char* arg) {
  for (const char* flag : kBenchFlags) {
    if (std::strcmp(arg, flag) == 0) {
      return true;
    }
  }
  return false;
}

Result<BenchOptions> BenchOptions::FromArgs(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (!IsBenchFlag(flag)) {
      continue;
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument(std::string(flag) + " requires a value");
    }
    const char* value = argv[++i];
    if (std::strcmp(flag, "--events") == 0) {
      COOPFS_RETURN_IF_ERROR(ParseFlagNumber(flag, value, &options.events));
    } else if (std::strcmp(flag, "--seed") == 0) {
      COOPFS_RETURN_IF_ERROR(ParseFlagNumber(flag, value, &options.seed));
    } else if (std::strcmp(flag, "--auspex-events") == 0) {
      COOPFS_RETURN_IF_ERROR(ParseFlagNumber(flag, value, &options.auspex_events));
    } else if (std::strcmp(flag, "--sample-interval") == 0) {
      COOPFS_RETURN_IF_ERROR(ParseFlagNumber(flag, value, &options.sample_interval));
    } else if (std::strcmp(flag, "--max-clients") == 0) {
      COOPFS_RETURN_IF_ERROR(ParseFlagNumber(flag, value, &options.max_clients));
    } else if (std::strcmp(flag, "--metrics-detail") == 0) {
      if (!MetricsDetailFromName(value, options.metrics_detail)) {
        return Status::InvalidArgument(std::string("unknown --metrics-detail '") + value +
                                       "' (want full|bounded)");
      }
    } else if (std::strcmp(flag, "--json") == 0) {
      options.json_out = value;
    } else if (std::strcmp(flag, "--trace-events") == 0) {
      options.trace_events_out = value;
    } else if (std::strcmp(flag, "--trace-perfetto") == 0) {
      options.trace_perfetto_out = value;
    } else if (std::strcmp(flag, "--timeseries") == 0) {
      options.timeseries_out = value;
    } else if (std::strcmp(flag, "--profile") == 0) {
      options.profile_out = value;
    } else if (std::strcmp(flag, "--bench-out") == 0) {
      options.bench_out = value;
    }
  }
  if (!options.profile_out.empty()) {
    Profiler::Enable(true);
  }
  return options;
}

}  // namespace coopfs
