#include "src/trace/workload.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>
#include <numeric>
#include <optional>
#include <vector>

#include "src/cache/lru_map.h"
#include "src/common/flat_hash_map.h"
#include "src/common/logging.h"
#include "src/common/profiler.h"
#include "src/trace/event_source.h"

namespace coopfs {

namespace {

// Metadata for one generatable file.
struct FileMeta {
  FileId id = 0;
  std::uint32_t blocks = 1;
  std::size_t class_index = 0;
  ClientId owner = kNoClient;  // kNoClient for shared classes.
};

// A file a client currently has "open" in its working set.
struct OpenFile {
  std::size_t file_slot = 0;   // Index into the world's file table.
  std::uint32_t cursor = 0;    // Next block of the current sequential run.
  std::uint32_t run_left = 0;  // Blocks remaining in the run.
};

// Per-client LRU set of blocks, modelling the local cache a network snooper
// cannot see through (Auspex-style traces). Backed by the flat-indexed
// LruMap from the cache layer: Auspex generation touches this per access,
// and the old std::list + unordered_map version allocated on every miss.
// Touch and EraseFile are keyed: a delete costs O(file blocks), not a walk
// of the filter.
class SnoopFilter {
 public:
  explicit SnoopFilter(std::size_t capacity) : lru_(capacity) {}

  // Returns true if `block` was already present (a hidden local hit), and
  // touches/inserts it either way.
  bool Touch(BlockId block) {
    const std::uint64_t key = block.Pack();
    if (lru_.Touch(key) != nullptr) {
      return true;
    }
    lru_.Insert(key, true);  // Over-capacity insert auto-evicts the LRU key.
    return false;
  }

  // Drops blocks [0, blocks) of a deleted file.
  void EraseFile(FileId file, std::uint32_t blocks) {
    for (BlockIndex b = 0; b < blocks; ++b) {
      lru_.Erase(BlockId{file, b}.Pack());
    }
  }

  // Drops all remembered blocks (reboot: the filter dies with the memory).
  void Reset() { lru_.Clear(); }

 private:
  LruMap<std::uint64_t, bool> lru_;
};

// Weighted discrete sampler over a fixed weight vector (CDF + binary search).
class WeightedSampler {
 public:
  explicit WeightedSampler(const std::vector<double>& weights) : cdf_(weights.size()) {
    double sum = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      sum += weights[i];
      cdf_[i] = sum;
    }
    for (auto& v : cdf_) {
      v /= sum;
    }
  }

  std::size_t Sample(Rng& rng) const {
    const double u = rng.NextDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::size_t>(std::min<std::ptrdiff_t>(
        it - cdf_.begin(), static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
  }

 private:
  std::vector<double> cdf_;
};

// Resumable workload generator behind MakeWorkloadEventSource (and, drained
// to completion, GenerateWorkload). The original generator ran one nested
// loop — outer per burst, inner per access — and appended to a full Trace;
// here the loop is flattened into StepOnce() so generation can pause at any
// event boundary with O(world) state. RNG-draw order is identical to the
// nested form: every draw happens at the same point relative to the emitted
// -event count, including the overshoot cases (a reboot or a temp-file
// delete may push the sequence past num_events exactly as before).
class StreamingWorkloadGenerator final : public EventSource {
 public:
  explicit StreamingWorkloadGenerator(WorkloadConfig config)
      : config_(std::move(config)), rng_(config_.seed) {
    assert(!config_.classes.empty());
    Reset();
  }

  void Reset() override {
    rng_ = Rng(config_.seed);
    clock_ = 0;
    emitted_ = 0;
    burst_left_ = 0;
    burst_client_ = 0;
    finished_ = false;
    staged_.clear();
    staged_pos_ = 0;
    files_.clear();
    class_first_slot_.clear();
    class_samplers_.clear();
    class_sampler_.reset();
    client_sampler_.reset();
    next_file_id_ = 0;
    free_temp_slots_.clear();
    working_sets_.clear();
    snoop_filters_.clear();
    last_attr_.clear();
    BuildWorld();

    // Mean inter-access gap. For snooped traces the pre-filter stream is
    // denser than the emitted one; hidden hits fall between visible events.
    mean_gap_ = static_cast<double>(config_.duration) /
                static_cast<double>(std::max<std::uint64_t>(config_.num_events, 1));

    // Per-burst reboot probability chosen so each client reboots the
    // expected number of times across the trace (bursts average 24.5
    // accesses).
    const double expected_bursts = static_cast<double>(config_.num_events) / 24.5;
    reboot_probability_ =
        expected_bursts > 0.0 ? config_.mean_reboots_per_client *
                                    static_cast<double>(config_.num_clients) / expected_bursts
                              : 0.0;
  }

  std::size_t NextChunk(std::span<TraceEvent> out) override {
    std::size_t filled = 0;
    while (filled < out.size()) {
      if (staged_pos_ < staged_.size()) {
        out[filled++] = staged_[staged_pos_++];
        continue;
      }
      if (finished_) {
        break;
      }
      staged_.clear();
      staged_pos_ = 0;
      StepOnce();
    }
    return filled;
  }

  std::uint32_t NumClientsHint() const override { return config_.num_clients; }

 private:
  // Advances the generator by one inner-loop iteration of the original
  // nested form: at most one access emission (itself up to two events when
  // an evicted temp file emits its delete first), possibly preceded by a
  // new-burst setup with its reboot draw. Emits into staged_; sets
  // finished_ when the emitted-event target is reached.
  void StepOnce() {
    while (true) {
      if (emitted_ >= config_.num_events) {
        finished_ = true;
        return;
      }
      if (burst_left_ == 0) {
        // A burst: several accesses by one client before another takes over.
        burst_client_ = static_cast<ClientId>(client_sampler_->Sample(rng_));
        if (reboot_probability_ > 0.0 && rng_.NextBool(reboot_probability_)) {
          EmitReboot(static_cast<ClientId>(rng_.NextBelow(config_.num_clients)));
        }
        burst_left_ = 1 + rng_.NextBelow(48);
        if (staged_pos_ < staged_.size()) {
          // Deliver the reboot now; the emitted count is re-checked on the
          // next step before the burst's first access, exactly where the
          // nested loop re-checked trace.size().
          return;
        }
        continue;
      }
      clock_ += static_cast<Micros>(rng_.NextExponential(mean_gap_)) + 1;
      --burst_left_;
      EmitOneAccess(burst_client_);
      return;
    }
  }

  void Push(const TraceEvent& event) {
    staged_.push_back(event);
    ++emitted_;
  }

  // Emits a reboot: the client's working set and (if snooping) its local
  // cache filter are lost with the machine's memory.
  void EmitReboot(ClientId client) {
    clock_ += 1;
    TraceEvent event;
    event.timestamp = clock_;
    event.client = client;
    event.type = EventType::kReboot;
    Push(event);
    // Temp files open in the dropped working set keep their metadata slots
    // (no delete is emitted for them, matching the machine losing its state);
    // only slots released through CloseFile are recycled.
    working_sets_[client].clear();
    if (!snoop_filters_.empty()) {
      snoop_filters_[client].Reset();
    }
  }

  void BuildWorld() {
    // Instantiate the file table from the class configs.
    FileId next_file = 0;
    for (std::size_t ci = 0; ci < config_.classes.size(); ++ci) {
      const FileClassConfig& cls = config_.classes[ci];
      const std::size_t copies = cls.private_per_client ? config_.num_clients : 1;
      class_first_slot_.push_back(files_.size());
      for (std::size_t copy = 0; copy < copies; ++copy) {
        for (std::size_t f = 0; f < cls.num_files; ++f) {
          FileMeta meta;
          meta.id = next_file++;
          meta.blocks = static_cast<std::uint32_t>(
              rng_.NextInRange(cls.min_blocks, cls.max_blocks));
          meta.class_index = ci;
          meta.owner = cls.private_per_client ? static_cast<ClientId>(copy) : kNoClient;
          files_.push_back(meta);
        }
      }
      class_samplers_.emplace_back(cls.num_files, cls.zipf_s);
    }
    next_file_id_ = next_file;

    // Class-selection weights.
    std::vector<double> class_weights;
    class_weights.reserve(config_.classes.size());
    for (const auto& cls : config_.classes) {
      class_weights.push_back(cls.select_weight);
    }
    class_sampler_.emplace(class_weights);

    // Client activity skew: Zipf weights over a seeded permutation so the
    // most active clients are not always the lowest-numbered ones.
    std::vector<double> activity(config_.num_clients, 1.0);
    if (config_.activity_zipf_s > 0.0) {
      std::vector<std::size_t> perm(config_.num_clients);
      std::iota(perm.begin(), perm.end(), 0);
      for (std::size_t i = perm.size(); i > 1; --i) {
        std::swap(perm[i - 1], perm[rng_.NextBelow(i)]);
      }
      for (std::size_t rank = 0; rank < perm.size(); ++rank) {
        activity[perm[rank]] =
            1.0 / std::pow(static_cast<double>(rank + 1), config_.activity_zipf_s);
      }
    }
    client_sampler_.emplace(activity);

    working_sets_.resize(config_.num_clients);
    if (config_.snoop_filter_blocks > 0) {
      for (std::uint32_t c = 0; c < config_.num_clients; ++c) {
        snoop_filters_.emplace_back(config_.snoop_filter_blocks);
      }
    }
    // The attribute cache is only consulted for snooped traces that surface
    // hidden hits as kReadAttr; sizing it per client for every workload
    // would cost O(clients) pre-reserved tables at scale-out populations.
    if (config_.emit_read_attrs) {
      last_attr_.resize(config_.num_clients);
      for (auto& per_file : last_attr_) {
        per_file.Reserve(kAttrReserveFiles);
      }
    }
  }

  // Picks a file slot for `client` opening a file of class `ci`.
  std::size_t PickFileSlot(ClientId client, std::size_t ci) {
    const FileClassConfig& cls = config_.classes[ci];
    const std::size_t rank = class_samplers_[ci].Sample(rng_);
    if (!cls.private_per_client) {
      return class_first_slot_[ci] + rank;
    }
    ClientId owner = client;
    if (config_.num_clients > 1 && rng_.NextBool(config_.private_cross_access)) {
      owner = static_cast<ClientId>(rng_.NextBelow(config_.num_clients - 1));
      if (owner >= client) {
        ++owner;  // Skip self: cross access means someone else's file.
      }
    }
    return class_first_slot_[ci] + static_cast<std::size_t>(owner) * cls.num_files + rank;
  }

  // Opens a file into the client's working set, evicting one if full.
  // Returns the index of the opened entry in the working set.
  std::size_t OpenFileFor(ClientId client) {
    std::vector<OpenFile>& ws = working_sets_[client];
    const std::size_t ci = class_sampler_->Sample(rng_);
    const FileClassConfig& cls = config_.classes[ci];

    OpenFile entry;
    if (cls.delete_after_use) {
      // Temp files are born fresh: allocate a brand-new FileId so deleted
      // blocks are never referenced again. The metadata *slot* is recycled
      // from the free list (a temp slot is referenced by exactly one
      // working-set entry, dead once CloseFile ran), keeping the file table
      // O(world) instead of O(events) — nothing emitted depends on slot
      // indexes, only on the fresh id, so the sequence is unchanged.
      FileMeta meta;
      meta.id = next_file_id_++;
      meta.blocks = static_cast<std::uint32_t>(rng_.NextInRange(cls.min_blocks, cls.max_blocks));
      meta.class_index = ci;
      meta.owner = client;
      if (!free_temp_slots_.empty()) {
        entry.file_slot = free_temp_slots_.back();
        free_temp_slots_.pop_back();
        files_[entry.file_slot] = meta;
      } else {
        entry.file_slot = files_.size();
        files_.push_back(meta);
      }
    } else {
      entry.file_slot = PickFileSlot(client, ci);
    }
    const FileMeta& meta = files_[entry.file_slot];
    // Big files start mid-file (partial scans); small ones at the start.
    entry.cursor = meta.blocks > config_.max_run_blocks
                       ? static_cast<std::uint32_t>(rng_.NextBelow(meta.blocks))
                       : 0;
    entry.run_left = NewRunLength(meta.blocks);

    if (ws.size() < config_.working_set_files) {
      ws.push_back(entry);
      return ws.size() - 1;
    }
    const std::size_t victim = rng_.NextBelow(ws.size());
    CloseFile(client, ws[victim]);
    ws[victim] = entry;
    return victim;
  }

  void CloseFile(ClientId client, const OpenFile& open) {
    const FileMeta& meta = files_[open.file_slot];
    if (config_.classes[meta.class_index].delete_after_use) {
      TraceEvent del;
      del.timestamp = clock_;
      del.client = client;
      del.type = EventType::kDelete;
      del.block = BlockId{meta.id, 0};
      Push(del);
      // A temp file lives only in its opener's working set, so only the
      // opener's filter and attribute cache can hold it. Its id is never
      // reused, so the attribute entry would otherwise stay forever.
      assert(meta.owner == client);
      if (!snoop_filters_.empty()) {
        snoop_filters_[client].EraseFile(meta.id, meta.blocks);
      }
      if (config_.emit_read_attrs) {
        last_attr_[client].Erase(meta.id);
      }
      free_temp_slots_.push_back(open.file_slot);
    }
  }

  std::uint32_t NewRunLength(std::uint32_t file_blocks) {
    const std::uint64_t cap = std::min<std::uint64_t>(config_.max_run_blocks, file_blocks);
    return static_cast<std::uint32_t>(rng_.NextRunLength(config_.run_stop_probability, cap));
  }

  void EmitOneAccess(ClientId client) {
    std::vector<OpenFile>& ws = working_sets_[client];
    std::size_t slot;
    if (!ws.empty() && rng_.NextBool(config_.reopen_probability)) {
      slot = rng_.NextBelow(ws.size());
    } else {
      slot = OpenFileFor(client);
    }
    OpenFile& open = working_sets_[client][slot];
    const FileMeta& meta = files_[open.file_slot];
    const FileClassConfig& cls = config_.classes[meta.class_index];

    TraceEvent event;
    event.timestamp = clock_;
    event.client = client;
    event.block = BlockId{meta.id, open.cursor};
    event.type = rng_.NextBool(cls.write_fraction) ? EventType::kWrite : EventType::kRead;

    // Advance the sequential run; on exhaustion jump within the file.
    open.cursor = (open.cursor + 1) % meta.blocks;
    if (--open.run_left == 0) {
      open.cursor = meta.blocks > 1 ? static_cast<std::uint32_t>(rng_.NextBelow(meta.blocks)) : 0;
      open.run_left = NewRunLength(meta.blocks);
    }

    if (snoop_filters_.empty()) {
      Push(event);
      return;
    }

    // Snooped-trace mode: suppress reads served by the (invisible) local
    // cache; optionally surface them as read-attribute validations.
    if (event.type == EventType::kRead) {
      const bool local_hit = snoop_filters_[client].Touch(event.block);
      if (local_hit) {
        if (config_.emit_read_attrs && AttrDue(client, meta.id)) {
          event.type = EventType::kReadAttr;
          Push(event);
        }
        return;
      }
      Push(event);
      return;
    }
    if (event.type == EventType::kWrite) {
      snoop_filters_[client].Touch(event.block);
    }
    Push(event);
  }

  // True if no kReadAttr for (client, file) was emitted inside the
  // attribute-cache window (paper §4.4: NFS hides validations for 3 s).
  bool AttrDue(ClientId client, FileId file) {
    auto& per_file = last_attr_[client];
    auto [last, inserted] = per_file.TryEmplace(file);
    if (inserted) {
      *last = clock_;
      return true;
    }
    if (clock_ - *last >= config_.attr_cache_window) {
      *last = clock_;
      return true;
    }
    return false;
  }

  const WorkloadConfig config_;
  Rng rng_;
  Micros clock_ = 0;
  double mean_gap_ = 0.0;
  double reboot_probability_ = 0.0;

  // Flattened burst-loop state.
  std::uint64_t emitted_ = 0;       // Events produced so far (== trace.size()).
  std::uint64_t burst_left_ = 0;    // Accesses remaining in the current burst.
  ClientId burst_client_ = 0;       // The client issuing the current burst.
  bool finished_ = false;

  // Events produced by the current step, drained into NextChunk's output.
  // A step emits at most two (temp-file delete + access); capacity stays
  // tiny and allocation-free after the first few steps.
  std::vector<TraceEvent> staged_;
  std::size_t staged_pos_ = 0;

  std::vector<FileMeta> files_;
  std::vector<std::size_t> class_first_slot_;
  std::vector<ZipfSampler> class_samplers_;
  std::optional<WeightedSampler> class_sampler_;
  std::optional<WeightedSampler> client_sampler_;
  FileId next_file_id_ = 0;
  std::vector<std::size_t> free_temp_slots_;  // Recyclable temp FileMeta slots.

  // Per-client attribute-cache reserve: covers a client's recently validated
  // files for the calibrated workloads (a few hundred active files each);
  // heavier per-client footprints cost a few amortized table growths.
  static constexpr std::size_t kAttrReserveFiles = 256;

  std::vector<std::vector<OpenFile>> working_sets_;
  std::deque<SnoopFilter> snoop_filters_;  // deque: SnoopFilter is immovable.
  std::vector<FlatHashMap<FileId, Micros>> last_attr_;
};

}  // namespace

WorkloadConfig SpriteWorkloadConfig(std::uint64_t seed) {
  WorkloadConfig config;
  config.seed = seed;
  config.num_clients = 42;
  config.num_events = 700'000;
  config.duration = static_cast<Micros>(2) * 24 * 3600 * 1'000'000;
  config.activity_zipf_s = 1.0;
  config.working_set_files = 44;
  config.reopen_probability = 0.98;
  config.run_stop_probability = 0.5;
  config.max_run_blocks = 32;

  // Shared hot: system binaries, headers, shared project files. Read-mostly,
  // highly skewed popularity -> heavy inter-client duplication.
  FileClassConfig shared_hot;
  shared_hot.num_files = 2400;
  shared_hot.min_blocks = 1;
  shared_hot.max_blocks = 32;
  shared_hot.select_weight = 0.46;
  shared_hot.write_fraction = 0.03;
  shared_hot.zipf_s = 0.75;

  // Shared cold: large simulation inputs / VLSI data, scanned occasionally.
  FileClassConfig shared_cold;
  shared_cold.num_files = 220;
  shared_cold.min_blocks = 128;
  shared_cold.max_blocks = 768;
  shared_cold.select_weight = 0.05;
  shared_cold.write_fraction = 0.08;
  shared_cold.zipf_s = 0.75;

  // Private: home-directory files, mostly owner-accessed, read/write mix.
  FileClassConfig private_files;
  private_files.num_files = 300;  // Per client.
  private_files.min_blocks = 1;
  private_files.max_blocks = 24;
  private_files.select_weight = 0.42;
  private_files.write_fraction = 0.30;
  private_files.zipf_s = 0.65;
  private_files.private_per_client = true;

  // Temp: compiler intermediates etc. Written, re-read, deleted.
  FileClassConfig temp_files;
  temp_files.num_files = 1;  // Allocated fresh per open.
  temp_files.min_blocks = 1;
  temp_files.max_blocks = 8;
  temp_files.select_weight = 0.06;
  temp_files.write_fraction = 0.55;
  temp_files.delete_after_use = true;

  config.classes = {shared_hot, shared_cold, private_files, temp_files};
  return config;
}

WorkloadConfig AuspexWorkloadConfig(std::uint64_t seed) {
  WorkloadConfig config = SpriteWorkloadConfig(seed);
  config.num_clients = 237;
  config.num_events = 5'000'000;
  config.duration = static_cast<Micros>(6) * 24 * 3600 * 1'000'000;
  // Scale the shared file population up for the larger community.
  config.classes[0].num_files = 4000;
  config.classes[1].num_files = 700;
  config.classes[2].num_files = 160;  // Per client; 237 clients.
  // Snooped: only local-cache misses are visible; hidden hits surface as
  // read-attribute hints. ~2048 blocks = 16 MB local filter.
  config.snoop_filter_blocks = 2048;
  config.emit_read_attrs = true;
  return config;
}

WorkloadConfig SmallTestWorkloadConfig(std::uint64_t seed) {
  WorkloadConfig config;
  config.seed = seed;
  config.num_clients = 6;
  config.num_events = 20'000;
  config.duration = static_cast<Micros>(3600) * 1'000'000;
  config.working_set_files = 4;
  config.reopen_probability = 0.9;

  FileClassConfig shared;
  shared.num_files = 120;
  shared.min_blocks = 1;
  shared.max_blocks = 16;
  shared.select_weight = 0.5;
  shared.write_fraction = 0.1;

  FileClassConfig private_files;
  private_files.num_files = 40;
  private_files.min_blocks = 1;
  private_files.max_blocks = 8;
  private_files.select_weight = 0.45;
  private_files.write_fraction = 0.3;
  private_files.private_per_client = true;

  FileClassConfig temp_files;
  temp_files.num_files = 1;
  temp_files.min_blocks = 1;
  temp_files.max_blocks = 4;
  temp_files.select_weight = 0.05;
  temp_files.write_fraction = 0.5;
  temp_files.delete_after_use = true;

  config.classes = {shared, private_files, temp_files};
  return config;
}

std::unique_ptr<EventSource> MakeWorkloadEventSource(const WorkloadConfig& config) {
  assert(!config.classes.empty());
  return std::make_unique<StreamingWorkloadGenerator>(config);
}

Trace GenerateWorkload(const WorkloadConfig& config) {
  COOPFS_PROFILE_SCOPE("trace/generate");
  assert(!config.classes.empty());
  // Materialization is a full drain of the streaming generator, so the
  // golden-figure tests that pin these bytes also pin streaming/materialized
  // equivalence by construction.
  StreamingWorkloadGenerator generator(config);
  Trace trace = DrainEventSource(generator, config.num_events);
  COOPFS_LOG(kInfo) << "generated " << trace.size() << " events for " << config.num_clients
                    << " clients";
  return trace;
}

Trace GenerateLeffWorkload(const LeffWorkloadConfig& config) {
  Rng rng(config.seed);
  // Per-client and shared permutations of the object space give each client
  // a fixed, known access distribution (Zipf over its permutation).
  const auto make_permutation = [&rng, &config] {
    std::vector<std::uint32_t> perm(config.num_objects);
    std::iota(perm.begin(), perm.end(), 0u);
    for (std::size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.NextBelow(i)]);
    }
    return perm;
  };
  const std::vector<std::uint32_t> shared_perm = make_permutation();
  std::vector<std::vector<std::uint32_t>> client_perms;
  client_perms.reserve(config.num_clients);
  for (std::uint32_t c = 0; c < config.num_clients; ++c) {
    client_perms.push_back(make_permutation());
  }

  ZipfSampler zipf(config.num_objects, config.zipf_s);
  Trace trace;
  trace.reserve(config.num_events);
  Micros clock = 0;
  for (std::uint64_t i = 0; i < config.num_events; ++i) {
    clock += 1000;
    const auto client = static_cast<ClientId>(rng.NextBelow(config.num_clients));
    const std::size_t rank = zipf.Sample(rng);
    const bool shared = rng.NextBool(config.shared_fraction);
    const std::uint32_t object = shared ? shared_perm[rank] : client_perms[client][rank];
    TraceEvent event;
    event.timestamp = clock;
    event.client = client;
    event.type = EventType::kRead;
    event.block = BlockId{object, 0};
    trace.push_back(event);
  }
  return trace;
}

}  // namespace coopfs
