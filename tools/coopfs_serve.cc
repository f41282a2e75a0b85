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
#include <cstring>
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
  for (int i = 1; i < argc; ++i) {
    const auto has_value = [&](const char* flag) {
      return std::strcmp(argv[i], flag) == 0 && i + 1 < argc;
    };
    // Consumes the current flag's value as a number.
    const auto number = [&](auto* out) {
      const char* flag = argv[i];
      return ParseFlagNumber(flag, argv[++i], out);
    };
    Status parsed;
    if (has_value("--threads")) {
      parsed = number(&options.client_threads);
    } else if (has_value("--shards")) {
      parsed = number(&options.shards);
    } else if (has_value("--clients")) {
      parsed = number(&options.num_clients);
    } else if (has_value("--policy")) {
      Result<PolicyKind> kind = ParsePolicyKind(argv[++i]);
      if (!kind.ok()) {
        std::fprintf(stderr, "coopfs_serve: %s\n", kind.status().ToString().c_str());
        return 2;
      }
      options.policy = *kind;
    } else if (has_value("--ops")) {
      parsed = number(&options.ops);
    } else if (has_value("--warmup")) {
      parsed = number(&options.warmup_ops);
    } else if (has_value("--get-fraction")) {
      parsed = number(&options.get_fraction);
    } else if (has_value("--mix")) {
      const char* mix = argv[++i];
      if (std::strcmp(mix, "zipf") == 0) {
        options.mix = ServeKeyMix::kZipf;
      } else if (std::strcmp(mix, "trace") == 0) {
        options.mix = ServeKeyMix::kTrace;
      } else {
        std::fprintf(stderr, "coopfs_serve: unknown mix '%s'\n", mix);
        return 2;
      }
    } else if (has_value("--files")) {
      parsed = number(&options.num_files);
    } else if (has_value("--blocks-per-file")) {
      parsed = number(&options.blocks_per_file);
    } else if (has_value("--zipf")) {
      parsed = number(&options.zipf_s);
    } else if (has_value("--seed")) {
      parsed = number(&options.seed);
    } else if (has_value("--client-cache-mib")) {
      std::size_t mib = 0;
      if (parsed = number(&mib); parsed.ok()) {
        options.config.client_cache_blocks = BytesToBlocks(MiB(mib));
      }
    } else if (has_value("--server-cache-mib")) {
      std::size_t mib = 0;
      if (parsed = number(&mib); parsed.ok()) {
        options.config.server_cache_blocks = BytesToBlocks(MiB(mib));
      }
    } else if (has_value("--out")) {
      out_path = argv[++i];
    } else if (has_value("--manifest")) {
      manifest_path = argv[++i];
    } else {
      std::fprintf(stderr, "coopfs_serve: unknown or incomplete flag '%s'\n", argv[i]);
      return Usage();
    }
    if (!parsed.ok()) {
      std::fprintf(stderr, "coopfs_serve: %s\n", parsed.message().c_str());
      return 2;
    }
  }

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
