#include "src/exp/driver.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <thread>

#include "src/common/format.h"
#include "src/common/profiler.h"
#include "src/exp/context.h"

namespace coopfs {

namespace {

constexpr const char kUsage[] =
    "usage: coopfs_bench [--list] [--filter GLOB] [--threads N] [--out-dir DIR]\n"
    "                    [--events N] [--seed S] [--auspex-events N]\n"
    "                    [--json PATH] [--trace-events PATH] [--trace-perfetto PATH]\n"
    "                    [--timeseries PATH] [--sample-interval N] [--profile PATH]\n"
    "                    [--metrics-detail full|bounded] [--bench-out PATH]\n"
    "                    [--max-clients N]\n"
    "\n"
    "Runs registered coopfs experiments (figures, sections, extensions).\n"
    "  --list          list experiments and exit\n"
    "  --filter GLOB   run experiments whose name matches GLOB (default '*';\n"
    "                  supports *, ?, and [...] classes, e.g. 'fig0[456]*')\n"
    "  --threads N     worker threads shared across experiments and their\n"
    "                  internal sweeps (default: hardware concurrency)\n"
    "  --out-dir DIR   directory for coopfs.run/v1 manifests (default\n"
    "                  'coopfs_runs'); one <experiment>.run.json per run\n"
    "\n"
    "Export flags (--json, --trace-events, --trace-perfetto, --timeseries,\n"
    "--profile) name a file when one experiment is selected; with several,\n"
    "they name a directory that receives one file per experiment.\n";

// Equivalent re-run command line for the manifest: standalone flags that
// reproduce this experiment's tables and exports at any thread count.
std::string BuildCommand(const ExperimentSpec& spec, const BenchOptions& bench) {
  std::string command = "coopfs_bench --filter " + spec.name;
  command += " --events " + std::to_string(bench.events);
  command += " --seed " + std::to_string(bench.seed);
  command += " --auspex-events " + std::to_string(bench.auspex_events);
  if (bench.sample_interval != BenchOptions().sample_interval) {
    command += " --sample-interval " + std::to_string(bench.sample_interval);
  }
  if (bench.metrics_detail != MetricsDetail::kFull) {
    command += std::string(" --metrics-detail ") + MetricsDetailName(bench.metrics_detail);
  }
  if (bench.max_clients != BenchOptions().max_clients) {
    command += " --max-clients " + std::to_string(bench.max_clients);
  }
  if (!bench.bench_out.empty()) {
    command += " --bench-out " + bench.bench_out;
  }
  if (!bench.json_out.empty()) {
    command += " --json " + bench.json_out;
  }
  if (!bench.trace_events_out.empty()) {
    command += " --trace-events " + bench.trace_events_out;
  }
  if (!bench.trace_perfetto_out.empty()) {
    command += " --trace-perfetto " + bench.trace_perfetto_out;
  }
  if (!bench.timeseries_out.empty()) {
    command += " --timeseries " + bench.timeseries_out;
  }
  if (!bench.profile_out.empty()) {
    command += " --profile " + bench.profile_out;
  }
  return command;
}

// With several experiments selected, a shared export path would be
// overwritten by each in turn; treat it as a directory instead and give each
// experiment its own file.
void SplitExportPaths(BenchOptions& bench, const std::string& name) {
  const auto join = [&name](const std::string& dir, const char* suffix) {
    return dir + "/" + name + suffix;
  };
  if (!bench.json_out.empty()) {
    bench.json_out = join(bench.json_out, ".metrics.json");
  }
  if (!bench.trace_events_out.empty()) {
    bench.trace_events_out = join(bench.trace_events_out, ".events.jsonl");
  }
  if (!bench.trace_perfetto_out.empty()) {
    bench.trace_perfetto_out = join(bench.trace_perfetto_out, ".perfetto.json");
  }
  if (!bench.timeseries_out.empty()) {
    bench.timeseries_out = join(bench.timeseries_out, ".timeseries.jsonl");
  }
  if (!bench.profile_out.empty()) {
    bench.profile_out = join(bench.profile_out, ".profile.json");
  }
}

Status EnsureParentDirs(const BenchOptions& bench, const std::string& out_dir) {
  std::error_code ec;
  for (const std::string* path :
       {&bench.json_out, &bench.trace_events_out, &bench.trace_perfetto_out,
        &bench.timeseries_out, &bench.profile_out}) {
    if (path->empty()) {
      continue;
    }
    const std::filesystem::path parent = std::filesystem::path(*path).parent_path();
    if (!parent.empty()) {
      std::filesystem::create_directories(parent, ec);
      if (ec) {
        return Status::IoError("cannot create directory " + parent.string() + ": " +
                               ec.message());
      }
    }
  }
  if (!out_dir.empty()) {
    std::filesystem::create_directories(out_dir, ec);
    if (ec) {
      return Status::IoError("cannot create directory " + out_dir + ": " + ec.message());
    }
  }
  return Status::Ok();
}

void PrintList(const ExperimentRegistry& registry) {
  TableFormatter table({"Experiment", "Trace", "Description"});
  for (const ExperimentSpec& spec : registry.specs()) {
    table.AddRow({spec.name, TraceKindName(spec.trace), spec.description});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("\n%zu experiments. Run a subset with --filter GLOB.\n",
              registry.specs().size());
}

}  // namespace

Result<DriverOptions> DriverOptions::Parse(int argc, char** argv) {
  DriverOptions options;
  Result<BenchOptions> bench =
      BenchOptions::FromArgs(argc, argv,
                             {{"--list", &options.list},
                              {"--help", &options.help},
                              {"-h", &options.help},
                              {"--filter", &options.filter},
                              {"--threads", &options.threads},
                              {"--out-dir", &options.out_dir}});
  if (!bench.ok()) {
    return bench.status();
  }
  options.bench = *std::move(bench);
  return options;
}

std::vector<ExperimentOutcome> RunExperiments(
    const std::vector<const ExperimentSpec*>& specs, const DriverOptions& options,
    const ExperimentDoneCallback& on_done) {
  std::vector<ExperimentOutcome> outcomes(specs.size());

  std::size_t budget = options.threads;
  if (budget == 0) {
    budget = std::max(1u, std::thread::hardware_concurrency());
  }
  // The profiler aggregates process-wide; concurrent experiments would blur
  // span attribution, so --profile serializes everything.
  if (!options.bench.profile_out.empty()) {
    budget = 1;
  }
  const std::size_t pool = std::max<std::size_t>(1, std::min(budget, specs.size()));
  // Split the budget: `pool` experiments run concurrently, each fanning its
  // internal sweeps (fig11-13) out over its share of the remaining threads.
  const std::size_t sweep_threads = std::max<std::size_t>(1, budget / pool);

  const bool multiple = specs.size() > 1;

  std::mutex mutex;
  std::size_t next = 0;

  const auto worker = [&]() {
    for (;;) {
      std::size_t index;
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (next >= specs.size()) {
          return;
        }
        index = next++;
      }
      const ExperimentSpec& spec = *specs[index];
      BenchOptions bench = options.bench;
      if (multiple) {
        SplitExportPaths(bench, spec.name);
      }
      ExperimentOutcome& outcome = outcomes[index];
      outcome.spec = &spec;

      ExperimentContext context(spec, bench);
      context.set_sweep_threads(sweep_threads);
      const auto start = std::chrono::steady_clock::now();
      outcome.status = EnsureParentDirs(bench, "");
      if (outcome.status.ok()) {
        outcome.status = spec.run(context);
      }
      const auto end = std::chrono::steady_clock::now();

      outcome.output = context.output();
      outcome.manifest = context.manifest();
      outcome.manifest.threads = budget;
      outcome.manifest.wall_time_s =
          std::chrono::duration_cast<std::chrono::duration<double>>(end - start).count();
      outcome.manifest.command = BuildCommand(spec, bench);
      // Profiled runs are serialized (pool == 1): reset between experiments
      // so each profile document covers only its own run.
      if (!bench.profile_out.empty()) {
        Profiler::Reset();
      }
      if (on_done) {
        std::lock_guard<std::mutex> lock(mutex);
        on_done(index, outcome);
      }
    }
  };

  if (pool == 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(pool);
    for (std::size_t i = 0; i < pool; ++i) {
      threads.emplace_back(worker);
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }
  return outcomes;
}

int DriverMain(int argc, char** argv) {
  RegisterBuiltinExperiments();
  const ExperimentRegistry& registry = ExperimentRegistry::Instance();

  Result<DriverOptions> parsed = DriverOptions::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "coopfs_bench: %s\n%s", parsed.status().message().c_str(), kUsage);
    return 2;
  }
  const DriverOptions& options = *parsed;
  if (options.help) {
    std::printf("%s", kUsage);
    return 0;
  }
  if (options.list) {
    PrintList(registry);
    return 0;
  }

  const std::vector<const ExperimentSpec*> selected = registry.Match(options.filter);
  if (selected.empty()) {
    std::fprintf(stderr, "coopfs_bench: no experiment matches '%s'; available:\n",
                 options.filter.c_str());
    for (const ExperimentSpec& spec : registry.specs()) {
      std::fprintf(stderr, "  %s\n", spec.name.c_str());
    }
    return 2;
  }

  if (Status status = EnsureParentDirs(BenchOptions{}, options.out_dir); !status.ok()) {
    std::fprintf(stderr, "coopfs_bench: %s\n", status.message().c_str());
    return 1;
  }

  std::fprintf(stderr, "[coopfs_bench] running %zu experiment(s)\n", selected.size());

  // Print buffered outputs in registration order as soon as each prefix
  // completes; the on_done callback runs serialized, so the bookkeeping
  // below needs no extra lock.
  std::vector<ExperimentOutcome> streamed(selected.size());
  std::vector<bool> done(selected.size(), false);
  std::size_t printed = 0;
  const auto flush_ready = [&](std::size_t index, const ExperimentOutcome& finished) {
    streamed[index] = finished;
    done[index] = true;
    while (printed < done.size() && done[printed]) {
      const ExperimentOutcome& outcome = streamed[printed];
      std::fwrite(outcome.output.data(), 1, outcome.output.size(), stdout);
      std::fflush(stdout);
      std::fprintf(stderr, "[coopfs_bench] %s: %s (%.2fs)\n", outcome.spec->name.c_str(),
                   outcome.status.ok() ? "ok" : outcome.status.ToString().c_str(),
                   outcome.manifest.wall_time_s);
      ++printed;
    }
  };

  const std::vector<ExperimentOutcome> outcomes =
      RunExperiments(selected, options, flush_ready);

  int failures = 0;
  for (const ExperimentOutcome& outcome : outcomes) {
    if (!outcome.status.ok()) {
      std::fprintf(stderr, "coopfs_bench: %s failed: %s\n", outcome.spec->name.c_str(),
                   outcome.status.ToString().c_str());
      ++failures;
      continue;
    }
    if (!options.out_dir.empty()) {
      const std::string path = options.out_dir + "/" + outcome.spec->name + ".run.json";
      if (Status status = WriteRunManifest(outcome.manifest, path); !status.ok()) {
        std::fprintf(stderr, "coopfs_bench: manifest for %s failed: %s\n",
                     outcome.spec->name.c_str(), status.ToString().c_str());
        ++failures;
        continue;
      }
      std::fprintf(stderr, "[coopfs_bench] wrote manifest: %s\n", path.c_str());
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace coopfs
