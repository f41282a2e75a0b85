#include "src/exp/context.h"

#include <cstdarg>
#include <cstdio>

#include "src/common/format.h"
#include "src/common/profiler.h"
#include "src/exp/trace_pool.h"
#include "src/obs/metrics_exporter.h"
#include "src/obs/snapshot_sampler.h"
#include "src/obs/trace_recorder.h"
#include "src/obs/trace_sink.h"

namespace coopfs {

ExperimentContext::ExperimentContext(const ExperimentSpec& spec, const BenchOptions& options)
    : spec_(spec), options_(options) {
  manifest_.experiment = spec.name;
  manifest_.title = spec.title;
  manifest_.description = spec.description;
  manifest_.events = options_.events;
  manifest_.seed = options_.seed;
  manifest_.auspex_events = options_.auspex_events;
  manifest_.sample_interval = options_.sample_interval;
}

ExperimentContext::~ExperimentContext() = default;

void ExperimentContext::Printf(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  if (needed > 0) {
    const std::size_t old_size = output_.size();
    output_.resize(old_size + static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(output_.data() + old_size, static_cast<std::size_t>(needed) + 1, format,
                   args_copy);
    output_.resize(old_size + static_cast<std::size_t>(needed));
  }
  va_end(args_copy);
}

void ExperimentContext::Banner(std::uint64_t trace_events) {
  Printf("=== %s: %s ===\n", spec_.title.c_str(), spec_.what.c_str());
  Printf("workload: %llu events, seed %llu, warm-up %llu events\n",
         static_cast<unsigned long long>(trace_events),
         static_cast<unsigned long long>(options_.seed),
         static_cast<unsigned long long>(options_.WarmupFor(trace_events)));
  Printf("config: 16 MB/client, 128 MB server, 8 KB blocks, ATM timing "
         "(250/200/400 us, 14.8 ms disk)\n\n");
}

const Trace& ExperimentContext::Sprite() {
  NoteWorkload("sprite");
  return SpriteTrace(options_);
}

const Trace& ExperimentContext::Auspex() {
  NoteWorkload("auspex");
  return AuspexTrace(options_);
}

void ExperimentContext::NoteWorkload(const char* workload) {
  for (const std::string& existing : manifest_.workloads) {
    if (existing == workload) {
      return;
    }
  }
  manifest_.workloads.push_back(workload);
}

TraceRecorder* ExperimentContext::Recorder() {
  if (!options_.tracing_requested()) {
    return nullptr;
  }
  if (recorder_ == nullptr) {
    recorder_ = std::make_unique<TraceRecorder>();
  }
  return recorder_.get();
}

SnapshotSampler* ExperimentContext::Sampler() {
  if (!options_.sampling_requested()) {
    return nullptr;
  }
  if (sampler_ == nullptr) {
    sampler_ = std::make_unique<SnapshotSampler>();
  }
  return sampler_.get();
}

SimulationConfig ExperimentContext::PaperConfig(std::uint64_t trace_events) {
  SimulationConfig config;
  config.WithClientCacheMiB(16).WithServerCacheMiB(128);
  config.warmup_events = options_.WarmupFor(trace_events);
  config.seed = options_.seed;
  config.metrics_detail = options_.metrics_detail;
  config.trace_recorder = Recorder();
  config.snapshot_sampler = Sampler();
  config.sample_interval = options_.sample_interval;
  return config;
}

SimulationConfig ExperimentContext::AuspexConfig(std::uint64_t trace_events) {
  SimulationConfig config;
  config.WithClientCacheMiB(16).WithServerCacheMiB(128);
  config.warmup_events = AuspexWarmupEvents(trace_events);
  config.seed = options_.seed;
  config.metrics_detail = options_.metrics_detail;
  config.trace_recorder = Recorder();
  config.snapshot_sampler = Sampler();
  config.sample_interval = options_.sample_interval;
  return config;
}

Status ExperimentContext::Run(Simulator& simulator, Policy& policy, SimulationResult* out) {
  Result<SimulationResult> result = simulator.Run(policy);
  if (!result.ok()) {
    return Status(result.status().code(), "simulation of " + policy.Name() +
                                              " failed: " + result.status().message());
  }
  *out = *std::move(result);
  manifest_.num_results += 1;
  return Status::Ok();
}

Status ExperimentContext::Run(Simulator& simulator, PolicyKind kind, SimulationResult* out,
                              const PolicyParams& params) {
  auto policy = MakePolicy(kind, params);
  return Run(simulator, *policy, out);
}

Status ExperimentContext::RunJobs(const Trace& trace, const std::vector<SimulationJob>& jobs,
                                  std::vector<SimulationResult>* out) {
  // Observability sinks (recorder/sampler) are shared by every job's config
  // and are not synchronized; keep such sweeps on one thread. Results are
  // deterministic either way (the replay depends only on config + policy).
  const std::size_t threads = options_.observability_requested() ? 1 : sweep_threads_;
  std::vector<Result<SimulationResult>> results =
      RunSimulationsParallel(trace, jobs, threads);
  out->clear();
  out->reserve(results.size());
  for (Result<SimulationResult>& result : results) {
    if (!result.ok()) {
      return Status(result.status().code(), "run failed: " + result.status().message());
    }
    out->push_back(*std::move(result));
  }
  manifest_.num_results += out->size();
  return Status::Ok();
}

void ExperimentContext::RecordConfig(const SimulationConfig& config) {
  extra_configs_.push_back(config);
}

Status ExperimentContext::WriteExports(const std::vector<SimulationResult>& results) {
  // Same export order and stdout messages as the old bench_common
  // MaybeWriteJson: event trace, timeseries, profile, metrics document.
  const std::string workload =
      manifest_.workloads.empty() ? "sprite" : manifest_.workloads.front();
  TraceExportMetadata metadata;
  metadata.seed = options_.seed;
  metadata.trace_events = options_.events;
  metadata.workload = workload;
  if (TraceRecorder* recorder = Recorder(); recorder != nullptr) {
    if (!options_.trace_events_out.empty()) {
      COOPFS_RETURN_IF_ERROR(
          WriteEventsJsonl(recorder->runs(), metadata, options_.trace_events_out));
      Printf("wrote event trace: %s (%zu runs)\n", options_.trace_events_out.c_str(),
             recorder->runs().size());
      manifest_.exports.push_back(
          {"events", std::string(kEventsSchema), options_.trace_events_out});
    }
    if (!options_.trace_perfetto_out.empty()) {
      COOPFS_RETURN_IF_ERROR(WritePerfettoTrace(recorder->runs(), options_.trace_perfetto_out));
      Printf("wrote perfetto trace: %s (open at ui.perfetto.dev)\n",
             options_.trace_perfetto_out.c_str());
      manifest_.exports.push_back({"perfetto", "", options_.trace_perfetto_out});
    }
  }
  if (SnapshotSampler* sampler = Sampler(); sampler != nullptr) {
    // Record the configured auto-off ceiling so readers can interpret any
    // per_client: "auto_off" runs in the document.
    if (!sampler->options().include_per_client.has_value()) {
      metadata.per_client_ceiling = sampler->options().per_client_ceiling;
    }
    COOPFS_RETURN_IF_ERROR(
        WriteTimeseriesJsonl(sampler->runs(), metadata, options_.timeseries_out));
    Printf("wrote timeseries: %s (%zu runs)\n", options_.timeseries_out.c_str(),
           sampler->runs().size());
    manifest_.exports.push_back(
        {"timeseries", std::string(kTimeseriesSchema), options_.timeseries_out});
  }
  if (!options_.profile_out.empty()) {
    // The profiler is process-wide; the driver serializes experiments when
    // --profile is on so spans attribute cleanly.
    COOPFS_RETURN_IF_ERROR(Profiler::WriteFile(options_.profile_out));
    Printf("wrote profile: %s\n\n%s", options_.profile_out.c_str(),
           Profiler::SelfTimeTable(20).c_str());
    manifest_.exports.push_back({"profile", std::string(kProfileSchema), options_.profile_out});
  }
  if (!options_.json_out.empty()) {
    MetricsExporter exporter(options_.metrics_detail);
    if (!manifest_.configs.empty()) {
      exporter.SetConfig(manifest_.configs.front());
    }
    for (const SimulationResult& result : results) {
      exporter.AddResult(result);
    }
    if (Status status = exporter.WriteFile(options_.json_out); !status.ok()) {
      return Status(status.code(),
                    "metrics export to " + options_.json_out + " failed: " + status.message());
    }
    Printf("wrote metrics document: %s (%zu results)\n", options_.json_out.c_str(),
           results.size());
    manifest_.exports.push_back({"metrics", std::string(kMetricsSchema), options_.json_out});
  }
  return Status::Ok();
}

Status ExperimentContext::Finish(const SimulationConfig& config,
                                 const std::vector<SimulationResult>& results) {
  if (finished_) {
    return Status::FailedPrecondition("Finish() called twice for " + spec_.name);
  }
  finished_ = true;
  manifest_.configs.push_back(config);
  for (const SimulationConfig& extra : extra_configs_) {
    manifest_.configs.push_back(extra);
  }
  return WriteExports(results);
}

Status ExperimentContext::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("Finish() called twice for " + spec_.name);
  }
  finished_ = true;
  for (const SimulationConfig& extra : extra_configs_) {
    manifest_.configs.push_back(extra);
  }
  return WriteExports({});
}

std::vector<std::string> ResultRow(const SimulationResult& result,
                                   const SimulationResult& baseline) {
  return {result.policy_name,
          FormatDouble(result.AverageReadTime(), 0) + " us",
          FormatDouble(result.SpeedupOver(baseline), 2) + "x",
          FormatPercent(result.LevelFraction(CacheLevel::kLocalMemory)),
          FormatPercent(result.LevelFraction(CacheLevel::kRemoteClient)),
          FormatPercent(result.LevelFraction(CacheLevel::kServerMemory)),
          FormatPercent(result.DiskRate())};
}

}  // namespace coopfs
