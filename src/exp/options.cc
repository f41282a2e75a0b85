#include "src/exp/options.h"

#include "src/common/profiler.h"

namespace coopfs {

Result<BenchOptions> BenchOptions::FromArgs(int argc, char** argv,
                                            const std::vector<Flag>& extra) {
  BenchOptions options;
  std::string metrics_detail = MetricsDetailName(options.metrics_detail);
  std::vector<Flag> flags = {
      {"--events", &options.events},
      {"--seed", &options.seed},
      {"--auspex-events", &options.auspex_events},
      {"--json", &options.json_out},
      {"--trace-events", &options.trace_events_out},
      {"--trace-perfetto", &options.trace_perfetto_out},
      {"--timeseries", &options.timeseries_out},
      {"--sample-interval", &options.sample_interval},
      {"--profile", &options.profile_out},
      {"--metrics-detail", &metrics_detail},
      {"--bench-out", &options.bench_out},
      {"--max-clients", &options.max_clients},
  };
  flags.insert(flags.end(), extra.begin(), extra.end());
  COOPFS_RETURN_IF_ERROR(ParseFlags(argc, argv, flags));
  if (!MetricsDetailFromName(metrics_detail, options.metrics_detail)) {
    return Status::InvalidArgument("unknown --metrics-detail '" + metrics_detail +
                                   "' (want full|bounded)");
  }
  if (!options.profile_out.empty()) {
    Profiler::Enable(true);
  }
  return options;
}

}  // namespace coopfs
