// serve_mixed: RunServe closed loop, 3 client threads (plus RunServe's
// drain thread: 4 threads), N-Chance over derived shards, Zipf(0.9) keys
// over 2000 files x 16 blocks, 70% gets and 30% write-through puts.
//
// The traced run adds the benchmark's own storm: the same per-thread request
// streams against a sharded CacheEngine with every call timed, which splits
// RunServe's time into engine calls and the harness around them.
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "perfbench/src/perfbench.h"
#include "perfbench/src/probes.h"
#include "src/common/rng.h"
#include "src/engine/cache_engine.h"
#include "src/serve/serve_harness.h"
#include "src/sim/validation.h"

namespace perfbench {

using coopfs::PolicyKind;

namespace {

constexpr std::uint64_t kServeOps = 800'000;
constexpr std::uint32_t kServeThreads = 3;
constexpr std::uint32_t kServeClients = 42;
constexpr std::uint32_t kServeFiles = 2'000;
constexpr std::uint32_t kServeBlocksPerFile = 16;
constexpr double kServeZipf = 0.9;
constexpr double kServeGetFraction = 0.7;
// Simulated-clock spacing between requests, as RunServe uses.
constexpr coopfs::Micros kTicketSpacingUs = 50;

coopfs::ServeOptions MixedOptions(const Options& options, std::uint32_t threads,
                                  PolicyKind policy) {
  coopfs::ServeOptions serve;
  serve.client_threads = threads;
  serve.shards = 0;
  serve.num_clients = kServeClients;
  serve.policy = policy;
  serve.ops = options.size != 0 ? options.size : kServeOps;
  serve.warmup_ops = serve.ops / 10;
  serve.get_fraction = kServeGetFraction;
  serve.mix = coopfs::ServeKeyMix::kZipf;
  serve.num_files = kServeFiles;
  serve.blocks_per_file = kServeBlocksPerFile;
  serve.zipf_s = kServeZipf;
  serve.seed = options.seed;
  return serve;
}

// RunServe's derived shard count: the smallest power of two >= threads.
std::uint32_t DerivedShards(std::uint32_t threads) {
  std::uint32_t shards = 1;
  while (shards < threads && shards < 64) {
    shards *= 2;
  }
  return shards;
}

coopfs::SimulationConfig StormConfig(const coopfs::ServeOptions& serve) {
  coopfs::SimulationConfig config = serve.config;
  config.num_clients = serve.num_clients;
  config.seed = serve.seed;
  return config;
}

std::unique_ptr<coopfs::CacheEngine> MakeEngine(const coopfs::ServeOptions& serve) {
  const PolicyKind kind = serve.policy;
  return std::make_unique<coopfs::CacheEngine>(
      StormConfig(serve), serve.num_clients, [kind] { return coopfs::MakePolicy(kind); },
      DerivedShards(serve.client_threads));
}

struct ServeRun {
  bool ok = false;
  double seconds = 0.0;
  coopfs::ServeReport report;
};

// One checked RunServe call, timed from outside.
ServeRun RunServeChecked(const coopfs::ServeOptions& serve, const std::string& label,
                         Report& report) {
  ServeRun run;
  const auto start = Clock::now();
  coopfs::Result<coopfs::ServeReport> result = coopfs::RunServe(serve);
  run.seconds = SecondsSince(start);
  if (!result.ok()) {
    report.Attempt(result.status(), label);
    return run;
  }
  run.report = *std::move(result);
  const coopfs::ServeReport& r = run.report;
  run.ok = r.consistent && r.ops == serve.ops && r.get_ops + r.put_ops == r.ops;
  report.Attempt(run.ok, label + " (consistent, gets + puts == ops)");
  return run;
}

// One thread's request stream, drawn exactly as RunServe's Zipf mix draws
// it: same per-thread seed, client slice, key and get/put choice.
class RequestStream {
 public:
  RequestStream(const coopfs::ServeOptions& serve, std::uint32_t thread,
                const coopfs::ZipfSampler& zipf)
      : serve_(serve),
        zipf_(zipf),
        rng_(coopfs::SplitMix64(serve.seed ^ (0x5e12e0ull + thread)).Next()) {
    const std::uint32_t base = serve.num_clients / serve.client_threads;
    const std::uint32_t extra = serve.num_clients % serve.client_threads;
    first_client_ = thread * base + std::min(thread, extra);
    slice_ = base + (thread < extra ? 1 : 0);
  }

  void Next(coopfs::ClientId& client, coopfs::BlockId& block, bool& is_get) {
    client = first_client_ + static_cast<coopfs::ClientId>(rng_.NextBelow(slice_));
    const std::size_t rank = zipf_.Sample(rng_);
    block.file = static_cast<coopfs::FileId>(rank / serve_.blocks_per_file);
    block.block = static_cast<std::uint32_t>(rank % serve_.blocks_per_file);
    is_get = rng_.NextBool(serve_.get_fraction);
  }

 private:
  const coopfs::ServeOptions& serve_;
  const coopfs::ZipfSampler& zipf_;
  coopfs::Rng rng_;
  coopfs::ClientId first_client_ = 0;
  std::uint32_t slice_ = 1;
};

// RunServe's per-thread op budgets: even shares, remainders to the
// lowest-indexed threads.
std::uint64_t Share(std::uint64_t total, std::uint32_t threads, std::uint32_t thread) {
  return total / threads + (thread < total % threads ? 1 : 0);
}
std::uint64_t WarmupOps(const coopfs::ServeOptions& serve, std::uint32_t thread) {
  return Share(serve.warmup_ops, serve.client_threads, thread);
}
std::uint64_t CountedOps(const coopfs::ServeOptions& serve, std::uint32_t thread) {
  return Share(serve.ops, serve.client_threads, thread);
}

struct StormTimes {
  double seconds = 0.0;
  std::uint64_t gets = 0;
  double modeled_read_us = 0.0;
  std::uint64_t call_ns = 0;  // Sum over every timed engine call.
  std::vector<std::uint32_t> lookup_ns;
  std::vector<std::uint32_t> admit_ns;
};

// The benchmark's own storm: RunServe's request streams against `engine`
// without the completion queue and drain thread, every call timed.
StormTimes TimedStorm(const coopfs::ServeOptions& serve, const coopfs::ZipfSampler& zipf,
                      coopfs::CacheEngine& engine) {
  engine.SetAccounting(true);
  std::vector<StormTimes> per_thread(serve.client_threads);
  std::atomic<std::uint64_t> ticket{0};
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < serve.client_threads; ++t) {
    threads.emplace_back([&, t] {
      StormTimes& times = per_thread[t];
      RequestStream stream(serve, t, zipf);
      const std::uint64_t ops = WarmupOps(serve, t) + CountedOps(serve, t);
      times.lookup_ns.reserve(ops);
      times.admit_ns.reserve(ops);
      coopfs::ClientId client = 0;
      coopfs::BlockId block;
      bool is_get = true;
      for (std::uint64_t i = 0; i < ops; ++i) {
        stream.Next(client, block, is_get);
        const auto now = static_cast<coopfs::Micros>(
                             ticket.fetch_add(1, std::memory_order_relaxed)) *
                         kTicketSpacingUs;
        const auto call_start = Clock::now();
        if (is_get) {
          const coopfs::EngineOutcome outcome = engine.Lookup(client, block, now);
          times.lookup_ns.push_back(NanosSince(call_start));
          times.call_ns += times.lookup_ns.back();
          times.modeled_read_us += static_cast<double>(outcome.latency_us);
          ++times.gets;
        } else {
          engine.Admit(client, block, now);
          times.admit_ns.push_back(NanosSince(call_start));
          times.call_ns += times.admit_ns.back();
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  StormTimes merged;
  merged.seconds = SecondsSince(start);
  for (StormTimes& times : per_thread) {
    merged.gets += times.gets;
    merged.call_ns += times.call_ns;
    merged.modeled_read_us += times.modeled_read_us;
    merged.lookup_ns.insert(merged.lookup_ns.end(), times.lookup_ns.begin(),
                            times.lookup_ns.end());
    merged.admit_ns.insert(merged.admit_ns.end(), times.admit_ns.begin(), times.admit_ns.end());
  }
  return merged;
}

}  // namespace

void RunServeMixed(const Options& options, Report& report) {
  const coopfs::ServeOptions serve = MixedOptions(options, kServeThreads, PolicyKind::kNChance);
  const std::uint64_t issued = serve.ops + serve.warmup_ops;
  report.Context("policies", "nchance");
  report.Context("events", static_cast<double>(issued));
  report.Context("clients", kServeClients);
  report.Context("client_cache_mib", 16);
  report.Context("server_cache_mib", 128);
  report.Context("threads", kServeThreads);
  report.Context("shards", DerivedShards(kServeThreads));

  // One untimed warm-up storm: the first call of a process pays the page
  // faults of every fresh allocation.
  RunServeChecked(serve, "warm-up serve storm", report);
  if (!options.trace) {
    // Set-up is what RunServe pays outside its storm, per call: building the
    // sharded engine and the key-mix sampler, starting the threads, and the
    // post-drain statistics and invariant check. It is the call's wall time
    // minus the storm's own wall time (ServeReport::wall_seconds).
    std::vector<double> setup_seconds;
    const MeasuredPhase phase = Measure(options.seconds, 0, [&] {
      const ServeRun run = RunServeChecked(serve, "serve storm", report);
      setup_seconds.push_back(run.seconds - run.report.wall_seconds);
      return Repetition{static_cast<double>(issued), run.seconds};
    });
    ReportEndToEnd(phase, setup_seconds, report);
    return;
  }

  const ServeRun plain = RunServeChecked(serve, "serve storm", report);
  BeginProfile();
  const ServeRun profiled = RunServeChecked(serve, "profiled serve storm", report);
  const std::vector<coopfs::Profiler::Node> roots = EndProfile();
  const ServeRun greedy = RunServeChecked(
      MixedOptions(options, kServeThreads, PolicyKind::kGreedy), "greedy serve storm", report);
  const ServeRun single =
      RunServeChecked(MixedOptions(options, 1, PolicyKind::kNChance), "1-thread serve storm",
                      report);

  // Key generation alone: every thread's stream drawn without the engine.
  const coopfs::ZipfSampler zipf(
      static_cast<std::size_t>(serve.num_files) * serve.blocks_per_file, serve.zipf_s);
  std::uint64_t counted_gets = 0;
  const auto gen_start = Clock::now();
  for (std::uint32_t t = 0; t < serve.client_threads; ++t) {
    RequestStream stream(serve, t, zipf);
    coopfs::ClientId client = 0;
    coopfs::BlockId block;
    bool is_get = true;
    const std::uint64_t warmup = WarmupOps(serve, t);
    for (std::uint64_t i = 0, n = warmup + CountedOps(serve, t); i < n; ++i) {
      stream.Next(client, block, is_get);
      counted_gets += i >= warmup && is_get ? 1 : 0;
    }
  }
  const double gen_seconds = SecondsSince(gen_start);
  // The storm below replays these streams, so they must be RunServe's.
  report.Attempt(counted_gets == plain.report.get_ops,
                 "request streams reproduce RunServe's counted gets");
  report.Metric("trace.gen_ns_per_event", gen_seconds * 1e9 / static_cast<double>(issued), "ns");
  report.Simulated("trace.readattr_share", 0.0, "ratio");

  const std::unique_ptr<coopfs::CacheEngine> engine = MakeEngine(serve);
  StormTimes storm = TimedStorm(serve, zipf, *engine);
  report.Metric("engine.lookup_ns_p50", Quantile(storm.lookup_ns, 0.50), "ns");
  report.Metric("engine.lookup_ns_p99", Quantile(storm.lookup_ns, 0.99), "ns");
  report.Metric("engine.admit_ns_p50", Quantile(storm.admit_ns, 0.50), "ns");
  report.Metric("engine.admit_ns_p99", Quantile(storm.admit_ns, 0.99), "ns");

  // The storm's threads have joined: per-shard state is quiescent.
  coopfs::SimCounters counters;
  IndexStats index;
  std::uint64_t server_load_units = 0;
  for (std::uint32_t shard = 0; shard < engine->num_shards(); ++shard) {
    coopfs::SimContext& context = engine->context(shard);
    report.Attempt(coopfs::CheckCacheDirectoryConsistency(context),
                   "storm shard " + std::to_string(shard) + " consistency");
    const coopfs::SimCounters& c = context.counters();
    counters.remote_forwards += c.remote_forwards;
    counters.recirculations += c.recirculations;
    counters.invalidations += c.invalidations;
    counters.directory_ops += c.directory_ops;
    const IndexStats shard_index = ReadIndexStats(context);
    index.dir_probe_avg += shard_index.dir_probe_avg / engine->num_shards();
    index.dir_probe_max = std::max(index.dir_probe_max, shard_index.dir_probe_max);
    index.rehashes += shard_index.rehashes;
    server_load_units += context.server_load().TotalUnits();
  }
  // The engine does not count events itself (the Simulator loop does).
  counters.events_replayed = issued;

  // ReadAttr and Evict are not in the get/put mix: time them over every
  // file of the key space against the post-storm engine.
  std::vector<std::uint32_t> readattr_ns;
  std::vector<std::uint32_t> delete_ns;
  for (coopfs::FileId file = 0; file < serve.num_files; ++file) {
    const auto start = Clock::now();
    engine->ReadAttr(file % serve.num_clients, file);
    readattr_ns.push_back(NanosSince(start));
  }
  for (coopfs::FileId file = 0; file < serve.num_files; ++file) {
    const auto start = Clock::now();
    engine->Evict(file % serve.num_clients, file);
    delete_ns.push_back(NanosSince(start));
  }
  report.Metric("engine.readattr_ns_mean", Mean(readattr_ns), "ns");
  report.Metric("engine.delete_ns_mean", Mean(delete_ns), "ns");

  const SpanTotals evict = TotalsOf(roots, "policy/evict");
  report.Simulated("core.evictions_per_kevent",
                   static_cast<double>(evict.count) * 1e3 / static_cast<double>(issued), "count");
  report.Metric("core.evict_ns_mean",
                evict.count == 0 ? 0.0
                                 : static_cast<double>(evict.total_ns) /
                                       static_cast<double>(evict.count),
                "ns");
  // Eviction time of the profiled RunServe call over the engine-call time
  // of the storm (the same request streams).
  report.Metric("core.evict_share",
                storm.call_ns == 0 ? 0.0
                                   : static_cast<double>(evict.total_ns) /
                                         static_cast<double>(storm.call_ns),
                "ratio");
  report.Metric("core.nchance_over_greedy", plain.seconds / greedy.seconds, "ratio");
  ReportCounters(counters, report);
  ReportIndexStats(index, report);

  // Harness cost per op: RunServe wall minus the engine-only storm wall,
  // spread over the client threads.
  report.Metric("loop.self_ns_per_op",
                (plain.seconds - storm.seconds) * 1e9 * kServeThreads /
                    static_cast<double>(issued),
                "ns");

  const auto& levels = plain.report.get_level_counts;
  const double gets = static_cast<double>(std::max<std::uint64_t>(1, plain.report.get_ops));
  report.Simulated("out.local_frac", static_cast<double>(levels[0]) / gets, "ratio");
  report.Simulated("out.remote_frac", static_cast<double>(levels[1]) / gets, "ratio");
  report.Simulated("out.server_frac", static_cast<double>(levels[2]) / gets, "ratio");
  report.Simulated("out.disk_frac", static_cast<double>(levels[3]) / gets, "ratio");
  report.Simulated("out.avg_read_us",
                   storm.gets == 0 ? 0.0
                                   : storm.modeled_read_us / static_cast<double>(storm.gets),
                   "us");
  report.Simulated("out.server_load_units", static_cast<double>(server_load_units), "count");

  report.Metric("sweep.parallel_efficiency", 0.0, "ratio");
  report.Metric("sweep.max_job_s", plain.seconds, "s");
  report.Metric("serve.scaling_3t_over_1t", single.seconds / plain.seconds, "ratio");
  report.Metric("obs.trace_overhead", profiled.seconds / plain.seconds, "ratio");
}

}  // namespace perfbench
