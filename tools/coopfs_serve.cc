// coopfs_serve: live multi-node serving harness CLI (src/serve).
//
// Runs a get/put storm against the sharded CacheEngine (one thread at a
// time runs each shard's next round of requests), prints the per-level
// tail-latency table, and optionally exports the measurement as a
// "coopfs.bench/v1" document plus a "coopfs.run/v1" manifest recording how
// to re-run it.
//
// Usage: coopfs_serve [--threads N] [--shards N] [--clients N]
//            [--policy NAME] [--ops N] [--warmup N] [--get-fraction F]
//            [--mix zipf|trace] [--files N] [--blocks-per-file N] [--zipf S]
//            [--seed N] [--client-cache-mib MIB] [--server-cache-mib MIB]
//            [--out BENCH.json] [--manifest RUN.json]
//
// Exit codes: 0 = run completed and invariants held, 1 = run or export
// failed (including a post-drain consistency violation), 2 = usage error
// (an unknown flag, a flag without its value, or a malformed number).
#include <charconv>
#include <chrono>
#include <cstdio>
#include <string>

#include "src/common/flags.h"
#include "src/common/status.h"
#include "src/obs/run_manifest.h"
#include "src/serve/serve_harness.h"

namespace coopfs {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: coopfs_serve [--threads N] [--shards N] [--clients N]\n"
               "           [--policy NAME] [--ops N] [--warmup N] [--get-fraction F]\n"
               "           [--mix zipf|trace] [--files N] [--blocks-per-file N]\n"
               "           [--zipf S] [--seed N] [--client-cache-mib MIB]\n"
               "           [--server-cache-mib MIB] [--out BENCH.json]\n"
               "           [--manifest RUN.json]\n");
  return 2;
}

// Shortest text that parses back to `value`, so fractional flags re-run
// exactly.
std::string ShortestDouble(double value) {
  char buffer[32];
  return std::string(buffer, std::to_chars(buffer, buffer + sizeof(buffer), value).ptr);
}

// Cache capacity in whole MiB, the unit of the --*-cache-mib flags.
std::size_t CacheMiB(std::size_t blocks) { return blocks * kBlockSizeBytes / MiB(1); }

int Run(int argc, char** argv) {
  ServeOptions options;
  std::string out_path;
  std::string manifest_path;
  std::string policy = PolicyKindName(options.policy);
  std::string mix = ServeKeyMixName(options.mix);
  std::size_t client_mib = CacheMiB(options.config.client_cache_blocks);
  std::size_t server_mib = CacheMiB(options.config.server_cache_blocks);
  const Status parsed = ParseFlags(argc, argv,
                                   {{"--threads", &options.client_threads},
                                    {"--shards", &options.shards},
                                    {"--clients", &options.num_clients},
                                    {"--policy", &policy},
                                    {"--ops", &options.ops},
                                    {"--warmup", &options.warmup_ops},
                                    {"--get-fraction", &options.get_fraction},
                                    {"--mix", &mix},
                                    {"--files", &options.num_files},
                                    {"--blocks-per-file", &options.blocks_per_file},
                                    {"--zipf", &options.zipf_s},
                                    {"--seed", &options.seed},
                                    {"--client-cache-mib", &client_mib},
                                    {"--server-cache-mib", &server_mib},
                                    {"--out", &out_path},
                                    {"--manifest", &manifest_path}});
  if (!parsed.ok()) {
    std::fprintf(stderr, "coopfs_serve: %s\n", parsed.message().c_str());
    return Usage();
  }
  Result<PolicyKind> kind = ParsePolicyKind(policy);
  if (!kind.ok()) {
    std::fprintf(stderr, "coopfs_serve: %s\n", kind.status().ToString().c_str());
    return 2;
  }
  options.policy = *kind;
  if (mix == "zipf") {
    options.mix = ServeKeyMix::kZipf;
  } else if (mix == "trace") {
    options.mix = ServeKeyMix::kTrace;
  } else {
    std::fprintf(stderr, "coopfs_serve: unknown mix '%s'\n", mix.c_str());
    return 2;
  }
  options.config.client_cache_blocks = BytesToBlocks(MiB(client_mib));
  options.config.server_cache_blocks = BytesToBlocks(MiB(server_mib));

  const auto start = std::chrono::steady_clock::now();
  Result<ServeReport> report = RunServe(options);
  if (!report.ok()) {
    std::fprintf(stderr, "coopfs_serve: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", report->ToString().c_str());

  if (!out_path.empty()) {
    const Status written = report->ToBenchReport().WriteFile(out_path);
    if (!written.ok()) {
      std::fprintf(stderr, "coopfs_serve: writing %s: %s\n", out_path.c_str(),
                   written.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }

  if (!manifest_path.empty()) {
    RunManifest manifest;
    manifest.experiment = "coopfs_serve";
    manifest.title = "Live serving storm";
    manifest.description = "get/put storm over the sharded cache engine, one thread per shard";
    manifest.workloads.push_back(report->mix);
    manifest.events = options.ops;
    manifest.seed = options.seed;
    manifest.auspex_events = 0;
    manifest.sample_interval = 0;
    SimulationConfig config = options.config;
    config.num_clients = options.num_clients;
    config.seed = options.seed;
    manifest.configs.push_back(config);
    manifest.num_results = 1;
    manifest.threads = options.client_threads;
    manifest.wall_time_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    // Every flag that shapes the storm, so the command reproduces it.
    manifest.command =
        "coopfs_serve --threads " + std::to_string(options.client_threads) +
        " --shards " + std::to_string(report->shards) + " --clients " +
        std::to_string(options.num_clients) + " --policy " +
        PolicyKindName(options.policy) + " --ops " + std::to_string(options.ops) +
        " --warmup " + std::to_string(options.warmup_ops) + " --get-fraction " +
        ShortestDouble(options.get_fraction) + " --mix " + report->mix + " --files " +
        std::to_string(options.num_files) + " --blocks-per-file " +
        std::to_string(options.blocks_per_file) + " --zipf " +
        ShortestDouble(options.zipf_s) + " --seed " + std::to_string(options.seed) +
        " --client-cache-mib " + std::to_string(CacheMiB(options.config.client_cache_blocks)) +
        " --server-cache-mib " + std::to_string(CacheMiB(options.config.server_cache_blocks));
    if (!out_path.empty()) {
      manifest.exports.push_back(RunExport{"bench", std::string(kBenchSchema), out_path});
    }
    const Status written = WriteRunManifest(manifest, manifest_path);
    if (!written.ok()) {
      std::fprintf(stderr, "coopfs_serve: writing %s: %s\n", manifest_path.c_str(),
                   written.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", manifest_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace coopfs

int main(int argc, char** argv) { return coopfs::Run(argc, argv); }
