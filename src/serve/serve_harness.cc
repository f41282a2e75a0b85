#include "src/serve/serve_harness.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/sketch.h"
#include "src/engine/cache_engine.h"
#include "src/sim/validation.h"
#include "src/trace/workload.h"

namespace coopfs {

namespace {

// Simulated-clock spacing between successive requests in seq order. The
// engine's per-shard clocks only gate delayed-write flushing and LRU
// tie-breaks, so any strictly increasing sequence works; 50 us keeps the
// simulated storm on the same time scale as replayed traces.
constexpr Micros kSeqSpacingUs = 50;

// Requests each stream draws per round. A round is the unit of every storm
// task: one stream's draw, or one shard's run of every stream's draws. It is
// long enough that the scheduler's mutex is rare (about 500 claims for
// 880,000 requests on 3 threads and 4 shards) and short enough that the
// round buffers stay small (24-byte entries).
constexpr std::uint64_t kRoundRequests = 4'096;

// Round buffers per stream: streams may draw up to this many rounds ahead
// of the shard with the fewest finished rounds.
constexpr std::uint64_t kRoundBuffers = 4;

// Shard-count cap, as the derived count uses.
constexpr std::uint32_t kMaxShards = 64;

// Sample classes: a get's class is the CacheLevel that satisfied it, and
// puts come last.
constexpr std::size_t kPutClass = kNumCacheLevels;
constexpr std::size_t kNumSampleClasses = kPutClass + 1;

// One storm thread's counted latencies by sample class, padded to its own
// cache line(s) like the sweep's result slots: the threads append
// concurrently, and unpadded slots would put several vector headers on one
// line, bouncing it between cores on every push. After the storm the thread
// sorts each class and sums it. last_request is when the thread's latest
// shard-round ended.
struct alignas(64) PaddedSampleSlot {
  std::array<std::vector<double>, kNumSampleClasses> samples;
  std::array<double, kNumSampleClasses> sums{};
  std::chrono::steady_clock::time_point last_request{};
};

// One request drawn from the configured key mix.
struct Request {
  ClientId client = 0;
  BlockId block;
  bool is_get = true;
};

// A drawn request, tagged with its shard.
struct Drawn {
  Request request;
  std::uint32_t shard = 0;
  bool counted = false;  // Past its stream's warm-up budget.
};

// Request stream t, one per storm thread: deterministic given (options, t).
class RequestStream {
 public:
  RequestStream(const ServeOptions& options, std::uint32_t thread,
                const ZipfSampler* zipf, const std::vector<Request>* pool)
      : options_(options),
        zipf_(zipf),
        pool_(pool),
        rng_(SplitMix64(options.seed ^ (0x5e12e0ull + thread)).Next()) {
    // Contiguous client slice for the Zipf mix: thread t issues on behalf of
    // clients [first_client_, first_client_ + slice_).
    const std::uint32_t base = options.num_clients / options.client_threads;
    const std::uint32_t extra = options.num_clients % options.client_threads;
    first_client_ = thread * base + std::min(thread, extra);
    slice_ = base + (thread < extra ? 1 : 0);
    if (pool_ != nullptr && !pool_->empty()) {
      pool_cursor_ = thread % pool_->size();
    }
  }

  Request Next() {
    if (pool_ != nullptr && !pool_->empty()) {
      // Trace mix: threads interleave the shared pool round-robin, so the
      // aggregate storm replays the trace's client/file/op mix.
      const Request request = (*pool_)[pool_cursor_];
      pool_cursor_ += options_.client_threads;
      if (pool_cursor_ >= pool_->size()) {
        pool_cursor_ %= pool_->size();
      }
      return request;
    }
    Request request;
    request.client =
        first_client_ + static_cast<ClientId>(rng_.NextBelow(slice_ == 0 ? 1 : slice_));
    const std::size_t rank = zipf_->Sample(rng_);
    request.block.file = static_cast<FileId>(rank / options_.blocks_per_file);
    request.block.block = static_cast<std::uint32_t>(rank % options_.blocks_per_file);
    request.is_get = rng_.NextBool(options_.get_fraction);
    return request;
  }

 private:
  const ServeOptions& options_;
  const ZipfSampler* zipf_;
  const std::vector<Request>* pool_;
  Rng rng_;
  ClientId first_client_ = 0;
  std::uint32_t slice_ = 1;
  std::size_t pool_cursor_ = 0;
};

// One request stream and its ring of round buffers: round r is drawn into
// rounds[r % kRoundBuffers], each request tagged with its shard. Padded like
// the sample slots, since threads draw different streams at once.
struct alignas(64) PaddedStream {
  PaddedStream(const ServeOptions& options, std::uint32_t index, const ZipfSampler* zipf,
               const std::vector<Request>* pool)
      : requests(options, index, zipf, pool) {}

  RequestStream requests;
  std::array<std::vector<Drawn>, kRoundBuffers> rounds;
};

// One unit of storm work: draw round `round` of stream `index`, or run
// round `round` of shard `index`. kNone is no task: nothing finished yet,
// or the storm is over.
struct StormTask {
  enum Kind { kNone, kDraw, kRun };
  Kind kind = kNone;
  std::uint32_t index = 0;
  std::uint64_t round = 0;
};

// Hands the storm's tasks to idle threads. Shard s may run round r once
// every stream has drawn round r and s has finished round r - 1. Stream t
// may draw round r once it has drawn round r - 1 and every shard has
// finished round r - kRoundBuffers, whose buffer round r reuses; one thread
// at a time draws a stream. A ready shard-round comes first, for the shard
// with the fewest finished rounds (ties to the lower shard), so the next
// free thread takes the busiest shard's next round; otherwise the stream
// with the fewest drawn rounds (ties to the lower stream) draws. Every
// claim and completion takes the one mutex.
class StormScheduler {
 public:
  StormScheduler(std::uint32_t streams, std::uint32_t shards, std::uint64_t rounds)
      : rounds_(rounds),
        drawn_(streams, 0),
        drawing_(streams, false),
        finished_(shards, 0),
        running_(shards, false) {}

  // Records `done` as finished, then claims the next ready task, waiting
  // while none is ready. Returns kNone once every shard has run every round.
  StormTask Next(const StormTask& done) {
    std::unique_lock lock(mutex_);
    if (done.kind == StormTask::kDraw) {
      ++drawn_[done.index];
      drawing_[done.index] = false;
    } else if (done.kind == StormTask::kRun) {
      ++finished_[done.index];
      running_[done.index] = false;
    }
    if (done.kind != StormTask::kNone) {
      ready_.notify_all();
    }
    for (;;) {
      const std::uint64_t all_drawn = *std::min_element(drawn_.begin(), drawn_.end());
      const std::uint64_t all_finished = *std::min_element(finished_.begin(), finished_.end());
      if (all_finished == rounds_) {
        return {};
      }
      StormTask task;
      for (std::uint32_t s = 0; s < finished_.size(); ++s) {
        if (!running_[s] && finished_[s] < all_drawn &&
            (task.kind == StormTask::kNone || finished_[s] < task.round)) {
          task = {StormTask::kRun, s, finished_[s]};
        }
      }
      if (task.kind == StormTask::kRun) {
        running_[task.index] = true;
        return task;
      }
      for (std::uint32_t t = 0; t < drawn_.size(); ++t) {
        if (!drawing_[t] && drawn_[t] < std::min(rounds_, all_finished + kRoundBuffers) &&
            (task.kind == StormTask::kNone || drawn_[t] < task.round)) {
          task = {StormTask::kDraw, t, drawn_[t]};
        }
      }
      if (task.kind == StormTask::kDraw) {
        drawing_[task.index] = true;
        return task;
      }
      ready_.wait(lock);
    }
  }

 private:
  const std::uint64_t rounds_;
  std::mutex mutex_;
  std::condition_variable ready_;
  std::vector<std::uint64_t> drawn_;     // Rounds each stream has drawn.
  std::vector<bool> drawing_;            // A thread is drawing the stream.
  std::vector<std::uint64_t> finished_;  // Rounds each shard has run.
  std::vector<bool> running_;            // A thread is running the shard.
};

// Draws round `round` of a stream whose requests [0, warmup) are warm-up
// and [warmup, total) counted.
void DrawRound(const CacheEngine& engine, PaddedStream& stream, std::uint64_t round,
               std::uint64_t warmup, std::uint64_t total) {
  std::vector<Drawn>& batch = stream.rounds[round % kRoundBuffers];
  batch.clear();
  const std::uint64_t first = round * kRoundRequests;
  for (std::uint64_t i = first, end = std::min(total, first + kRoundRequests); i < end; ++i) {
    Drawn entry{stream.requests.Next()};
    entry.shard = engine.ShardForFile(entry.request.block.file);
    entry.counted = i >= warmup;
    batch.push_back(entry);
  }
}

// Runs shard `shard`'s requests of round `round` in seq order: request k of
// every stream's round before request k + 1, streams in index order. Request
// i of stream u has seq = i x streams + u and runs at seq x kSeqSpacingUs.
// Counted latencies go to `slot`.
void RunRound(CacheEngine& engine, const std::vector<PaddedStream>& streams,
              std::uint32_t shard, std::uint64_t round, PaddedSampleSlot& slot) {
  const auto stream_count = static_cast<std::uint32_t>(streams.size());
  std::vector<std::span<const Drawn>> batches(stream_count);
  std::size_t round_length = 0;
  for (std::uint32_t u = 0; u < stream_count; ++u) {
    batches[u] = streams[u].rounds[round % kRoundBuffers];
    round_length = std::max(round_length, batches[u].size());
  }
  for (std::size_t k = 0; k < round_length; ++k) {
    for (std::uint32_t u = 0; u < stream_count; ++u) {
      if (k >= batches[u].size() || batches[u][k].shard != shard) {
        continue;
      }
      const Drawn& entry = batches[u][k];
      const std::uint64_t seq = (round * kRoundRequests + k) * stream_count + u;
      const Micros now = static_cast<Micros>(seq) * kSeqSpacingUs;
      const Request& request = entry.request;
      const auto op_start = std::chrono::steady_clock::now();
      std::size_t sample_class = kPutClass;
      Micros modeled_us = 0;
      if (request.is_get) {
        const EngineOutcome outcome = engine.Lookup(request.client, request.block, now);
        sample_class = static_cast<std::size_t>(outcome.read.level);
        modeled_us = outcome.latency_us;
      } else {
        modeled_us = engine.Admit(request.client, request.block, now);
      }
      const auto op_end = std::chrono::steady_clock::now();
      if (entry.counted) {
        slot.samples[sample_class].push_back(
            static_cast<double>(modeled_us) +
            static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(op_end - op_start)
                    .count()) /
                1000.0);
      }
    }
  }
  slot.last_request = std::chrono::steady_clock::now();
}

// Statistics of sample classes [first, last) over every thread: the
// quantiles are read from the threads' sorted runs, the extremes from the
// runs' ends, and the mean from the threads' sums.
BenchLatency ClassStats(const std::vector<PaddedSampleSlot>& slots, std::size_t first,
                        std::size_t last) {
  std::vector<std::span<const double>> runs;
  double sum = 0.0;
  BenchLatency stats;
  for (const PaddedSampleSlot& slot : slots) {
    for (std::size_t sample_class = first; sample_class < last; ++sample_class) {
      const std::vector<double>& run = slot.samples[sample_class];
      sum += slot.sums[sample_class];
      if (run.empty()) {
        continue;
      }
      stats.min_us = stats.count == 0 ? run.front() : std::min(stats.min_us, run.front());
      stats.max_us = stats.count == 0 ? run.back() : std::max(stats.max_us, run.back());
      stats.count += run.size();
      runs.emplace_back(run);
    }
  }
  if (stats.count == 0) {
    return stats;
  }
  stats.p50_us = QuantileFromSortedRuns(runs, 0.50);
  stats.p90_us = QuantileFromSortedRuns(runs, 0.90);
  stats.p95_us = QuantileFromSortedRuns(runs, 0.95);
  stats.p99_us = QuantileFromSortedRuns(runs, 0.99);
  stats.p999_us = QuantileFromSortedRuns(runs, 0.999);
  stats.mean_us = sum / static_cast<double>(stats.count);
  return stats;
}

std::uint32_t ResolveShards(const ServeOptions& options) {
  if (options.shards != 0) {
    return options.shards;
  }
  std::uint32_t shards = 1;
  while (shards < options.client_threads && shards < kMaxShards) {
    shards *= 2;
  }
  return shards;
}

// Builds the trace-mix request pool: the read/write skeleton of the
// deterministic Sprite-like workload, scaled to this storm's client count.
// The trace covers the storm's requests (at least 10k events) up to the
// trace_events cap; shorter pools are cycled.
std::vector<Request> BuildTracePool(const ServeOptions& options) {
  WorkloadConfig workload = SpriteWorkloadConfig(options.seed);
  workload.num_clients = options.num_clients;
  workload.num_events = std::min<std::uint64_t>(
      std::max<std::uint64_t>(options.ops + options.warmup_ops, 10'000), options.trace_events);
  const Trace trace = GenerateWorkload(workload);
  std::vector<Request> pool;
  pool.reserve(trace.size());
  for (const TraceEvent& event : trace) {
    if (event.type != EventType::kRead && event.type != EventType::kWrite) {
      continue;  // Deletes/attrs/reboots are replay concerns, not get/put load.
    }
    Request request;
    request.client = event.client;
    request.block = event.block;
    request.is_get = event.type == EventType::kRead;
    pool.push_back(request);
  }
  return pool;
}

std::string FormatStatsRow(const char* label, const BenchLatency& stats) {
  char line[192];
  std::snprintf(line, sizeof(line),
                "  %-16s %9llu ops  p50 %9.1f  p95 %9.1f  p99 %9.1f  p999 %9.1f  "
                "mean %9.1f us\n",
                label, static_cast<unsigned long long>(stats.count), stats.p50_us,
                stats.p95_us, stats.p99_us, stats.p999_us, stats.mean_us);
  return line;
}

}  // namespace

BenchReport ServeReport::ToBenchReport() const {
  BenchReport report;
  report.suite = "coopfs_serve";
  report.host_threads = std::thread::hardware_concurrency();
  const std::uint64_t rss = CurrentPeakRssBytes();

  const auto make_series = [&](const char* name, const BenchLatency& stats) {
    BenchSeries series;
    series.name = name;
    series.unit = "ops/s";
    series.wall_seconds = wall_seconds;
    series.items = stats.count;
    series.ops_per_sec =
        wall_seconds > 0.0 ? static_cast<double>(stats.count) / wall_seconds : 0.0;
    series.peak_rss_bytes = rss;
    if (stats.count > 0) {
      series.latency = stats;
    }
    return series;
  };

  BenchSeries throughput = make_series("serve_throughput", total);
  report.series.push_back(std::move(throughput));
  report.series.push_back(make_series("serve_get_total", gets));
  report.series.push_back(make_series(
      "serve_get_local", get_levels[static_cast<std::size_t>(CacheLevel::kLocalMemory)]));
  report.series.push_back(make_series(
      "serve_get_remote_client",
      get_levels[static_cast<std::size_t>(CacheLevel::kRemoteClient)]));
  report.series.push_back(make_series(
      "serve_get_server_memory",
      get_levels[static_cast<std::size_t>(CacheLevel::kServerMemory)]));
  report.series.push_back(make_series(
      "serve_get_server_disk",
      get_levels[static_cast<std::size_t>(CacheLevel::kServerDisk)]));
  report.series.push_back(make_series("serve_put_total", puts));
  return report;
}

std::string ServeReport::ToString() const {
  std::string out = "coopfs_serve: " + policy_name + ", " +
                    std::to_string(client_threads) + " threads, " +
                    std::to_string(shards) + " shards, " + std::to_string(num_clients) +
                    " clients, " + mix + " mix\n";
  char line[192];
  std::snprintf(line, sizeof(line),
                "  %llu ops (%llu gets, %llu puts) in %.3f s = %.0f ops/s\n",
                static_cast<unsigned long long>(ops),
                static_cast<unsigned long long>(get_ops),
                static_cast<unsigned long long>(put_ops), wall_seconds, ops_per_sec);
  out += line;
  for (std::size_t level = 0; level < kNumCacheLevels; ++level) {
    out += FormatStatsRow(CacheLevelName(static_cast<CacheLevel>(level)),
                          get_levels[level]);
  }
  out += FormatStatsRow("All gets", gets);
  out += FormatStatsRow("Puts", puts);
  out += FormatStatsRow("Total", total);
  out += consistent ? "  invariants: OK\n"
                    : "  invariants: FAILED (" + consistency_error + ")\n";
  return out;
}

Result<ServeReport> RunServe(const ServeOptions& options) {
  if (options.client_threads == 0) {
    return Status::InvalidArgument("client_threads must be >= 1");
  }
  if (options.num_clients < options.client_threads) {
    return Status::InvalidArgument("num_clients must be >= client_threads");
  }
  if (options.ops == 0) {
    return Status::InvalidArgument("ops must be > 0");
  }
  if (options.shards > kMaxShards) {
    return Status::InvalidArgument("shards must be <= 64");
  }
  if (!(options.get_fraction >= 0.0 && options.get_fraction <= 1.0)) {
    return Status::InvalidArgument("get_fraction must be in [0, 1]");
  }
  if (options.mix == ServeKeyMix::kZipf &&
      (options.num_files == 0 || options.blocks_per_file == 0)) {
    return Status::InvalidArgument("zipf mix needs num_files and blocks_per_file >= 1");
  }
  if (options.mix == ServeKeyMix::kTrace && options.trace_events == 0) {
    return Status::InvalidArgument("trace mix needs trace_events > 0");
  }

  SimulationConfig config = options.config;
  config.num_clients = options.num_clients;
  config.seed = options.seed;
  const std::uint32_t shards = ResolveShards(options);

  const PolicyKind kind = options.policy;
  const PolicyParams params = options.params;
  CacheEngine engine(config, options.num_clients,
                     [kind, params] { return MakePolicy(kind, params); }, shards);
  // The storm has no warm-up/measurement clock of its own inside the engine;
  // the threads record only their counted completions.
  engine.SetAccounting(true);

  // Key-mix inputs shared read-only across threads.
  std::unique_ptr<ZipfSampler> zipf;
  std::vector<Request> pool;
  if (options.mix == ServeKeyMix::kZipf) {
    zipf = std::make_unique<ZipfSampler>(
        static_cast<std::size_t>(options.num_files) * options.blocks_per_file,
        options.zipf_s);
  } else {
    pool = BuildTracePool(options);
    if (pool.empty()) {
      return Status::InvalidArgument("trace mix produced no read/write events");
    }
  }

  // Fixed per-stream op budgets, remainders to the lowest-indexed streams, so
  // counted get/put totals are deterministic regardless of interleaving.
  const std::uint32_t threads = options.client_threads;
  std::vector<std::uint64_t> counted_budget(threads, options.ops / threads);
  std::vector<std::uint64_t> warmup_budget(threads, options.warmup_ops / threads);
  for (std::uint32_t t = 0; t < options.ops % threads; ++t) {
    ++counted_budget[t];
  }
  for (std::uint32_t t = 0; t < options.warmup_ops % threads; ++t) {
    ++warmup_budget[t];
  }

  // The storm is two kinds of task, handed out by the scheduler: stream t
  // draws its next round of kRoundRequests requests, and shard s runs its
  // requests of its next round in seq order (RunRound), so one thread at a
  // time runs a shard, and each shard runs the same operation sequence at
  // any thread count. Once every shard has run every round the engine is
  // quiescent: each thread then sorts its samples and checks shards t,
  // t + threads, ... without their locks.
  const std::uint32_t shard_count = engine.num_shards();
  const std::uint64_t rounds =
      (warmup_budget[0] + counted_budget[0] + kRoundRequests - 1) / kRoundRequests;
  std::vector<PaddedStream> streams;
  streams.reserve(threads);
  for (std::uint32_t t = 0; t < threads; ++t) {
    streams.emplace_back(options, t, zipf.get(), pool.empty() ? nullptr : &pool);
  }
  std::vector<PaddedSampleSlot> slots(threads);
  StormScheduler scheduler(threads, shard_count, rounds);
  std::vector<Status> shard_status(shard_count);

  const auto storm_start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      PaddedSampleSlot& slot = slots[t];
      // Any thread may run any shard-round, so any thread may record up to
      // every counted op of a class. The reservation is virtual: pages are
      // committed only as samples land, and no growth copy is ever made.
      for (std::vector<double>& samples : slot.samples) {
        samples.reserve(options.ops);
      }
      for (StormTask task = scheduler.Next({}); task.kind != StormTask::kNone;
           task = scheduler.Next(task)) {
        if (task.kind == StormTask::kDraw) {
          DrawRound(engine, streams[task.index], task.round, warmup_budget[task.index],
                    warmup_budget[task.index] + counted_budget[task.index]);
        } else {
          RunRound(engine, streams, task.index, task.round, slot);
        }
      }
      for (std::size_t sample_class = 0; sample_class < kNumSampleClasses; ++sample_class) {
        std::vector<double>& samples = slot.samples[sample_class];
        std::sort(samples.begin(), samples.end());
        slot.sums[sample_class] = std::accumulate(samples.begin(), samples.end(), 0.0);
      }
      for (std::uint32_t shard = t; shard < shard_count; shard += threads) {
        shard_status[shard] = CheckCacheDirectoryConsistency(engine.context(shard));
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  auto storm_end = storm_start;
  for (const PaddedSampleSlot& slot : slots) {
    storm_end = std::max(storm_end, slot.last_request);
  }

  ServeReport report;
  report.policy_name = PolicyKindName(options.policy);
  report.client_threads = threads;
  report.shards = engine.num_shards();
  report.num_clients = options.num_clients;
  report.mix = ServeKeyMixName(options.mix);
  report.wall_seconds =
      std::chrono::duration<double>(storm_end - storm_start).count();

  for (std::size_t level = 0; level < kNumCacheLevels; ++level) {
    report.get_levels[level] = ClassStats(slots, level, level + 1);
    report.get_level_counts[level] = report.get_levels[level].count;
  }
  report.gets = ClassStats(slots, 0, kNumCacheLevels);
  report.puts = ClassStats(slots, kPutClass, kPutClass + 1);
  report.total = ClassStats(slots, 0, kNumSampleClasses);
  report.get_ops = report.gets.count;
  report.put_ops = report.puts.count;
  report.ops = report.total.count;
  report.ops_per_sec = report.wall_seconds > 0.0
                           ? static_cast<double>(report.ops) / report.wall_seconds
                           : 0.0;

  report.consistent = true;
  for (std::uint32_t shard = 0; shard < shard_count; ++shard) {
    if (!shard_status[shard].ok()) {
      report.consistent = false;
      report.consistency_error =
          "shard " + std::to_string(shard) + ": " + shard_status[shard].message();
      break;
    }
  }
  if (!report.consistent) {
    return Status::Internal("serve invariants violated: " + report.consistency_error);
  }
  return report;
}

}  // namespace coopfs
