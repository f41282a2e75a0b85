// coopfs_perfbench: runs one benchmark workload and prints its result.
//
// Usage: coopfs_perfbench --workload sprite_long|auspex_sweep|serve_mixed
//                         [--seed N] [--seconds S] [--trace 0|1] [--size N]
//
// --trace 0 measures the end-to-end metrics with every observer off;
// --trace 1 is the separate traced run that gives the per-layer metrics.
// --size overrides the workload size (replay events or serve ops).
//
// Progress goes to stderr; the last line of stdout is one JSON document
// (see Report::ToJson). perfbench/run.py builds this binary, checks the
// outputs against the stored reference, and prints the final result line.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "perfbench/src/perfbench.h"
#include "src/common/build_info.h"

namespace perfbench {
namespace {

int Main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      options.seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(flag, "--trace") == 0) {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(flag, "--size") == 0) {
      options.size = std::strtoull(value, nullptr, 10);
    } else {
      std::fprintf(stderr, "coopfs_perfbench: unknown flag %s\n", flag);
      return 2;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "coopfs_perfbench: flag %s has no value\n", argv[argc - 1]);
    return 2;
  }

  Report report;
  report.Context("workload", options.workload);
  report.Context("seed", static_cast<double>(options.seed));
  // No git sha here: the build records it only when CMake configures, so it
  // goes stale in a kept build directory. perfbench/run.py records it.
  report.Context("build_type", coopfs::BuildType());
  report.Context("nproc", std::thread::hardware_concurrency());
  if (options.workload == "sprite_long") {
    RunSpriteLong(options, report);
  } else if (options.workload == "auspex_sweep") {
    RunAuspexSweep(options, report);
  } else if (options.workload == "serve_mixed") {
    RunServeMixed(options, report);
  } else {
    std::fprintf(stderr, "coopfs_perfbench: unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
