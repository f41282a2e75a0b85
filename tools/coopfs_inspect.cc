// Offline analysis of coopfs observability documents: "coopfs.events/v1"
// event traces, "coopfs.timeseries/v1" state samples, and
// "coopfs.profile/v1" simulator self-profiles.
//
// Consumes the JSONL documents written by --trace-events / --timeseries /
// --profile (bench binaries, examples/algorithm_comparison) and answers the
// questions the aggregate metrics document cannot: which blocks are hot, who
// forwards to whom, how deep N-Chance recirculation chains run, why a
// particular block missed, how cache state evolved over simulated time, and
// where the simulator spent its own wall clock.
//
// Usage: coopfs_inspect <command> [options] <input>
//   summary                       per-run overview (default command)
//   latency                       per-level latency histograms per run
//   hot-blocks [--top N]          most-read blocks with hit-level breakdown
//   forwards                      per-client forwarding matrix (who served whom)
//   recirc                        N-Chance recirculation-depth distribution
//   block <fF:bB>                 chronological post-mortem for one block
//   export-perfetto <out.json>    convert to Chrome trace_event JSON
//   timeline                      render a coopfs.timeseries/v1 document
//   profile                       render a coopfs.profile/v1 document
//   manifest                      render a coopfs.run/v1 run manifest and
//                                 cross-check that its export files exist
//   diff <baseline> <candidate>   noise-aware cross-run diff of two bench /
//                                 metrics / timeseries / profile documents
//                                 (coopfs.diff/v1; exit 0 = no significant
//                                 findings, 2 = findings, 1 = error)
// Options:
//   --run N        restrict to run index N (default: all runs)
//   --top N        hot-blocks list length (default 20)
//   --json         summary/hot-blocks/diff: machine-readable JSON
//   --out PATH     diff: also write the validated coopfs.diff/v1 report
//
// summary and hot-blocks also accept "coopfs.metrics/v1" documents: exact
// per-event data is not available there, so summary renders the per-result
// aggregates and hot-blocks renders the sketched "bounded" top-K (documents
// from metrics_detail=bounded runs; reads are Space-Saving overestimates
// bounded by the reported error).
//
// Unknown commands, unreadable inputs, and documents that fail validation
// all exit nonzero. See docs/observability.md for the schemas.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/format.h"
#include "src/common/json.h"
#include "src/common/profiler.h"
#include "src/common/stats.h"
#include "src/obs/metrics_exporter.h"
#include "src/obs/run_diff.h"
#include "src/obs/run_manifest.h"
#include "src/obs/snapshot_sampler.h"
#include "src/obs/trace_recorder.h"
#include "src/obs/trace_sink.h"

namespace coopfs {
namespace {

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "coopfs_inspect: %s\n", message.c_str());
  std::exit(1);
}

void PrintUsage() {
  std::fprintf(stderr,
               "usage: coopfs_inspect <command> [options] <input>\n"
               "commands (on coopfs.events/v1 documents):\n"
               "  summary                     per-run overview (default; also\n"
               "                              accepts coopfs.metrics/v1)\n"
               "  latency                     per-level latency histograms\n"
               "  hot-blocks [--top N]        most-read blocks (also accepts\n"
               "                              coopfs.metrics/v1 with 'bounded')\n"
               "  forwards                    per-client forwarding matrix\n"
               "  recirc                      recirculation-depth distribution\n"
               "  block <fF:bB>               post-mortem for one block\n"
               "  export-perfetto <out.json>  convert to Chrome trace_event JSON\n"
               "commands (on other documents):\n"
               "  timeline                    render coopfs.timeseries/v1 samples\n"
               "  profile                     render a coopfs.profile/v1 span tree\n"
               "  manifest                    render a coopfs.run/v1 manifest and\n"
               "                              cross-check its export files\n"
               "  diff <baseline> <candidate> noise-aware cross-run diff of two\n"
               "                              bench/metrics/timeseries/profile\n"
               "                              documents (exit 0 = no significant\n"
               "                              findings, 2 = findings, 1 = error)\n"
               "options: --run N (restrict to one run index)\n"
               "         --json (summary/hot-blocks/diff: JSON output)\n"
               "         --out PATH (diff: write the coopfs.diff/v1 report)\n");
}

// Parses "f12:b3" (the BlockId::ToString form); also accepts "12:3". Each id
// must fit its 32-bit type.
Status ParseBlockRef(const std::string& text, BlockId& out) {
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("block wants a reference like f12:b3, got '" + text + "'");
  }
  const std::size_t file_at = text[0] == 'f' ? 1 : 0;
  const std::size_t block_at = colon + (text[colon + 1] == 'b' ? 2 : 1);
  COOPFS_RETURN_IF_ERROR(ParseFlagNumber(
      "block file", text.substr(file_at, colon - file_at).c_str(), &out.file));
  return ParseFlagNumber("block index", text.c_str() + block_at, &out.block);
}

std::string RunLabel(const EventsDocument& document, std::size_t run_index) {
  const TraceRun& run = document.runs[run_index];
  return "run " + std::to_string(run_index) + " (" + run.policy + ", " +
         std::to_string(run.num_clients) + " clients)";
}

std::uint64_t CountOps(const TraceRun& run, TraceOpKind kind) {
  std::uint64_t count = 0;
  for (const OpRecord& op : run.ops) {
    count += op.kind == kind ? 1 : 0;
  }
  return count;
}

// ---- summary ----

void CommandSummary(const EventsDocument& document, const std::vector<std::size_t>& run_indices,
                    bool json_output) {
  TableFormatter table({"Run", "Policy", "Reads", "Counted", "Avg lat", "Local", "Remote",
                        "ServerMem", "Disk", "Writes", "Invals", "Recircs"});
  JsonWriter json(2);
  json.BeginArray();
  for (std::size_t run_index : run_indices) {
    const TraceRun& run = document.runs[run_index];
    const TraceRecorder::LevelTotals totals = TraceRecorder::CountedTotals(run);
    double total_time = 0.0;
    for (double t : totals.time_us) {
      total_time += t;
    }
    const double counted = static_cast<double>(totals.counted_reads);
    auto fraction = [&](CacheLevel level) {
      const auto i = static_cast<std::size_t>(level);
      return counted == 0.0 ? 0.0 : static_cast<double>(totals.counts[i]) / counted;
    };
    if (json_output) {
      json.BeginObject();
      json.Key("run").Value(static_cast<std::uint64_t>(run_index));
      json.Key("policy").Value(run.policy);
      json.Key("num_clients").Value(static_cast<std::uint64_t>(run.num_clients));
      json.Key("reads").Value(static_cast<std::uint64_t>(run.reads.size()));
      json.Key("counted_reads").Value(totals.counted_reads);
      json.Key("avg_read_time_us").Value(counted == 0.0 ? 0.0 : total_time / counted);
      json.Key("levels").BeginObject();
      json.Key("local_memory").Value(fraction(CacheLevel::kLocalMemory));
      json.Key("remote_client").Value(fraction(CacheLevel::kRemoteClient));
      json.Key("server_memory").Value(fraction(CacheLevel::kServerMemory));
      json.Key("server_disk").Value(fraction(CacheLevel::kServerDisk));
      json.EndObject();
      json.Key("writes").Value(CountOps(run, TraceOpKind::kWrite));
      json.Key("invalidations").Value(CountOps(run, TraceOpKind::kInvalidation));
      json.Key("recirculations").Value(CountOps(run, TraceOpKind::kRecirculation));
      json.EndObject();
      continue;
    }
    table.AddRow({std::to_string(run_index), run.policy, std::to_string(run.reads.size()),
                  std::to_string(totals.counted_reads),
                  counted == 0.0 ? "-" : FormatMicros(total_time / counted),
                  FormatPercent(fraction(CacheLevel::kLocalMemory)),
                  FormatPercent(fraction(CacheLevel::kRemoteClient)),
                  FormatPercent(fraction(CacheLevel::kServerMemory)),
                  FormatPercent(fraction(CacheLevel::kServerDisk)),
                  std::to_string(CountOps(run, TraceOpKind::kWrite)),
                  std::to_string(CountOps(run, TraceOpKind::kInvalidation)),
                  std::to_string(CountOps(run, TraceOpKind::kRecirculation))});
  }
  json.EndArray();
  if (json_output) {
    std::printf("%s\n", json.str().c_str());
  } else {
    std::printf("%s", table.ToString().c_str());
  }
}

// ---- latency ----

void CommandLatency(const EventsDocument& document, const std::vector<std::size_t>& run_indices) {
  for (std::size_t run_index : run_indices) {
    std::array<LogHistogram, kNumCacheLevels> histograms;
    const TraceRun& run = document.runs[run_index];
    for (const ReadSpan& span : run.reads) {
      if (span.counted) {
        histograms[static_cast<std::size_t>(span.level)].Add(
            static_cast<double>(span.latency_us));
      }
    }
    std::printf("=== %s ===\n", RunLabel(document, run_index).c_str());
    for (std::size_t level = 0; level < kNumCacheLevels; ++level) {
      const LogHistogram& histogram = histograms[level];
      std::printf("--- %s: %llu counted reads", CacheLevelName(static_cast<CacheLevel>(level)),
                  static_cast<unsigned long long>(histogram.count()));
      if (histogram.count() > 0) {
        const TailQuantiles tail = histogram.Tail();
        std::printf(", p50 %s, p99 %s, p999 %s\n%s", FormatMicros(tail.p50).c_str(),
                    FormatMicros(tail.p99).c_str(), FormatMicros(tail.p999).c_str(),
                    histogram.ToString().c_str());
      } else {
        std::printf("\n");
      }
    }
    std::printf("\n");
  }
}

// ---- hot-blocks ----

void CommandHotBlocks(const EventsDocument& document, const std::vector<std::size_t>& run_indices,
                      std::size_t top_n, bool json_output) {
  struct BlockStats {
    std::uint64_t reads = 0;
    std::array<std::uint64_t, kNumCacheLevels> by_level{};
    double time_us = 0.0;
  };
  JsonWriter json(2);
  json.BeginArray();
  for (std::size_t run_index : run_indices) {
    const TraceRun& run = document.runs[run_index];
    std::map<BlockId, BlockStats> blocks;
    for (const ReadSpan& span : run.reads) {
      BlockStats& stats = blocks[span.block];
      ++stats.reads;
      ++stats.by_level[static_cast<std::size_t>(span.level)];
      stats.time_us += static_cast<double>(span.latency_us);
    }
    std::vector<std::pair<BlockId, BlockStats>> ranked(blocks.begin(), blocks.end());
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      if (a.second.reads != b.second.reads) {
        return a.second.reads > b.second.reads;
      }
      return a.first < b.first;  // Deterministic order among ties.
    });
    if (ranked.size() > top_n) {
      ranked.resize(top_n);
    }
    if (json_output) {
      json.BeginObject();
      json.Key("run").Value(static_cast<std::uint64_t>(run_index));
      json.Key("policy").Value(run.policy);
      json.Key("distinct_blocks").Value(static_cast<std::uint64_t>(blocks.size()));
      json.Key("top_blocks").BeginArray();
      for (const auto& [block, stats] : ranked) {
        json.BeginObject();
        json.Key("file").Value(static_cast<std::uint64_t>(block.file));
        json.Key("block").Value(static_cast<std::uint64_t>(block.block));
        json.Key("reads").Value(stats.reads);
        json.Key("levels").BeginArray();
        for (std::uint64_t count : stats.by_level) {
          json.Value(count);
        }
        json.EndArray();
        json.Key("time_us").Value(stats.time_us);
        json.EndObject();
      }
      json.EndArray();
      json.EndObject();
      continue;
    }
    std::printf("=== %s: top %zu of %zu blocks by reads ===\n",
                RunLabel(document, run_index).c_str(), ranked.size(), blocks.size());
    TableFormatter table(
        {"Block", "Reads", "Local", "Remote", "ServerMem", "Disk", "Total time"});
    for (const auto& [block, stats] : ranked) {
      table.AddRow({block.ToString(), std::to_string(stats.reads),
                    std::to_string(stats.by_level[0]), std::to_string(stats.by_level[1]),
                    std::to_string(stats.by_level[2]), std::to_string(stats.by_level[3]),
                    FormatMicros(stats.time_us)});
    }
    std::printf("%s\n", table.ToString().c_str());
  }
  json.EndArray();
  if (json_output) {
    std::printf("%s\n", json.str().c_str());
  }
}

// ---- metrics-document (coopfs.metrics/v1) summary / hot-blocks ----

// Restricts [0, count) to --run when given; dies when out of range.
std::vector<std::size_t> SelectIndices(std::size_t count, long run_filter,
                                       const char* what) {
  std::vector<std::size_t> indices;
  if (run_filter >= 0) {
    if (static_cast<std::size_t>(run_filter) >= count) {
      Die("--run " + std::to_string(run_filter) + " out of range (document has " +
          std::to_string(count) + " " + what + ")");
    }
    indices.push_back(static_cast<std::size_t>(run_filter));
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      indices.push_back(i);
    }
  }
  return indices;
}

void CommandMetricsSummary(const JsonValue& root, long run_filter, bool json_output) {
  const auto& results = root.FindArray("results")->items();
  const std::vector<std::size_t> indices =
      SelectIndices(results.size(), run_filter, "results");
  TableFormatter table({"Result", "Policy", "Reads", "Avg lat", "Local", "Remote", "ServerMem",
                        "Disk", "Detail"});
  JsonWriter json(2);
  json.BeginArray();
  for (std::size_t i : indices) {
    const JsonValue& result = results[i];
    const JsonValue* levels = result.FindObject("levels");
    auto fraction = [&](const char* level) {
      return levels->FindObject(level)->FindNumber("fraction")->AsDouble();
    };
    const bool bounded = result.FindObject("bounded") != nullptr;
    if (json_output) {
      json.BeginObject();
      json.Key("result").Value(static_cast<std::uint64_t>(i));
      json.Key("policy").Value(result.FindString("policy")->AsString());
      json.Key("reads").Value(static_cast<std::uint64_t>(result.FindNumber("reads")->AsInt()));
      json.Key("avg_read_time_us").Value(result.FindNumber("avg_read_time_us")->AsDouble());
      json.Key("levels").BeginObject();
      json.Key("local_memory").Value(fraction("local_memory"));
      json.Key("remote_client").Value(fraction("remote_client"));
      json.Key("server_memory").Value(fraction("server_memory"));
      json.Key("server_disk").Value(fraction("server_disk"));
      json.EndObject();
      json.Key("detail").Value(bounded ? "bounded" : "full");
      json.EndObject();
      continue;
    }
    table.AddRow({std::to_string(i), result.FindString("policy")->AsString(),
                  std::to_string(result.FindNumber("reads")->AsInt()),
                  FormatMicros(result.FindNumber("avg_read_time_us")->AsDouble()),
                  FormatPercent(fraction("local_memory")),
                  FormatPercent(fraction("remote_client")),
                  FormatPercent(fraction("server_memory")),
                  FormatPercent(fraction("server_disk")), bounded ? "bounded" : "full"});
  }
  json.EndArray();
  if (json_output) {
    std::printf("%s\n", json.str().c_str());
  } else {
    std::printf("%s", table.ToString().c_str());
  }
}

void CommandMetricsHotBlocks(const JsonValue& root, long run_filter, std::size_t top_n,
                             bool json_output) {
  const auto& results = root.FindArray("results")->items();
  const std::vector<std::size_t> indices =
      SelectIndices(results.size(), run_filter, "results");
  bool any_bounded = false;
  JsonWriter json(2);
  json.BeginArray();
  for (std::size_t i : indices) {
    const JsonValue& result = results[i];
    const JsonValue* bounded = result.FindObject("bounded");
    if (bounded == nullptr) {
      continue;
    }
    any_bounded = true;
    const auto& top_blocks = bounded->FindArray("top_blocks")->items();
    const std::size_t shown = std::min(top_n, top_blocks.size());
    if (json_output) {
      json.BeginObject();
      json.Key("result").Value(static_cast<std::uint64_t>(i));
      json.Key("policy").Value(result.FindString("policy")->AsString());
      json.Key("counted_reads")
          .Value(static_cast<std::uint64_t>(bounded->FindNumber("counted_reads")->AsInt()));
      json.Key("top_blocks").BeginArray();
      for (std::size_t b = 0; b < shown; ++b) {
        const JsonValue& entry = top_blocks[b];
        json.BeginObject();
        json.Key("file").Value(static_cast<std::uint64_t>(entry.FindNumber("file")->AsInt()));
        json.Key("block").Value(static_cast<std::uint64_t>(entry.FindNumber("block")->AsInt()));
        json.Key("reads").Value(static_cast<std::uint64_t>(entry.FindNumber("reads")->AsInt()));
        json.Key("error").Value(static_cast<std::uint64_t>(entry.FindNumber("error")->AsInt()));
        json.Key("levels").BeginArray();
        for (const JsonValue& count : entry.FindArray("levels")->items()) {
          json.Value(static_cast<std::uint64_t>(count.AsInt()));
        }
        json.EndArray();
        json.EndObject();
      }
      json.EndArray();
      json.EndObject();
      continue;
    }
    std::printf("=== result %zu (%s): sketched top %zu blocks by reads ===\n", i,
                result.FindString("policy")->AsString().c_str(), shown);
    TableFormatter table({"Block", "Reads (<=)", "Error", "Local", "Remote", "ServerMem",
                          "Disk"});
    for (std::size_t b = 0; b < shown; ++b) {
      const JsonValue& entry = top_blocks[b];
      const auto& level_items = entry.FindArray("levels")->items();
      table.AddRow({"f" + std::to_string(entry.FindNumber("file")->AsInt()) + ":b" +
                        std::to_string(entry.FindNumber("block")->AsInt()),
                    std::to_string(entry.FindNumber("reads")->AsInt()),
                    std::to_string(entry.FindNumber("error")->AsInt()),
                    std::to_string(level_items[0].AsInt()),
                    std::to_string(level_items[1].AsInt()),
                    std::to_string(level_items[2].AsInt()),
                    std::to_string(level_items[3].AsInt())});
    }
    std::printf("%s\n", table.ToString().c_str());
  }
  json.EndArray();
  if (json_output) {
    std::printf("%s\n", json.str().c_str());
  } else if (!any_bounded) {
    Die("no result carries a 'bounded' summary; re-run the experiment with "
        "--metrics-detail bounded (per-event hot-blocks needs a coopfs.events/v1 input)");
  }
}

// ---- forwards ----

void CommandForwards(const EventsDocument& document, const std::vector<std::size_t>& run_indices) {
  for (std::size_t run_index : run_indices) {
    const TraceRun& run = document.runs[run_index];
    // matrix[requester][holder] = remote-client hits served by holder.
    std::map<ClientId, std::map<ClientId, std::uint64_t>> matrix;
    std::uint64_t forwarded = 0;
    for (const ReadSpan& span : run.reads) {
      if (span.forward_holder != kNoClient) {
        ++matrix[span.client][span.forward_holder];
        ++forwarded;
      }
    }
    std::printf("=== %s: %llu forwarded reads ===\n", RunLabel(document, run_index).c_str(),
                static_cast<unsigned long long>(forwarded));
    if (forwarded == 0) {
      std::printf("(no remote-client forwards recorded)\n\n");
      continue;
    }
    TableFormatter table({"Requester", "Holder", "Reads", "Share"});
    for (const auto& [requester, holders] : matrix) {
      for (const auto& [holder, count] : holders) {
        table.AddRow({"client " + std::to_string(requester), "client " + std::to_string(holder),
                      std::to_string(count),
                      FormatPercent(static_cast<double>(count) / static_cast<double>(forwarded))});
      }
    }
    std::printf("%s\n", table.ToString().c_str());
  }
}

// ---- recirc ----

void CommandRecirc(const EventsDocument& document, const std::vector<std::size_t>& run_indices) {
  for (std::size_t run_index : run_indices) {
    const TraceRun& run = document.runs[run_index];
    // detail = recirculation count remaining on the forwarded copy; the
    // paper's N-Chance uses N=2, so expected keys are small integers.
    std::map<unsigned, std::uint64_t> by_depth;
    std::uint64_t total = 0;
    for (const OpRecord& op : run.ops) {
      if (op.kind == TraceOpKind::kRecirculation) {
        ++by_depth[op.detail];
        ++total;
      }
    }
    std::printf("=== %s: %llu recirculations ===\n", RunLabel(document, run_index).c_str(),
                static_cast<unsigned long long>(total));
    if (total == 0) {
      std::printf("(no N-Chance recirculations recorded)\n\n");
      continue;
    }
    TableFormatter table({"Count remaining", "Recirculations", "Share"});
    for (const auto& [depth, count] : by_depth) {
      table.AddRow({std::to_string(depth), std::to_string(count),
                    FormatPercent(static_cast<double>(count) / static_cast<double>(total))});
    }
    std::printf("%s\n", table.ToString().c_str());
  }
}

// ---- block post-mortem ----

void CommandBlock(const EventsDocument& document, const std::vector<std::size_t>& run_indices,
                  const BlockId& block) {
  for (std::size_t run_index : run_indices) {
    const TraceRun& run = document.runs[run_index];
    // Merge this block's reads and ops back into sequence order, the same
    // interleaving the JSONL document stores.
    struct Row {
      std::uint64_t seq;
      std::vector<std::string> cells;
    };
    std::vector<Row> rows;
    std::uint64_t disk_reads = 0;
    for (const ReadSpan& span : run.reads) {
      if (span.block != block) {
        continue;
      }
      disk_reads += span.level == CacheLevel::kServerDisk ? 1 : 0;
      std::string detail = std::string(CacheLevelName(span.level));
      if (span.forward_holder != kNoClient) {
        detail += " from client " + std::to_string(span.forward_holder);
      }
      rows.push_back({span.seq,
                      {std::to_string(span.event_index), "read",
                       "client " + std::to_string(span.client), detail,
                       FormatMicros(static_cast<double>(span.latency_us)),
                       span.counted ? "yes" : "warm-up"}});
    }
    for (const OpRecord& op : run.ops) {
      if (op.block != block) {
        continue;
      }
      std::string actor =
          op.client == kNoClient ? std::string("-") : "client " + std::to_string(op.client);
      std::string detail;
      switch (op.kind) {
        case TraceOpKind::kInvalidation:
          detail = op.peer == kNoClient ? std::string("by delete")
                                        : "by writer client " + std::to_string(op.peer);
          break;
        case TraceOpKind::kRecirculation:
          detail = "to client " + std::to_string(op.peer) + ", count " +
                   std::to_string(op.detail);
          break;
        default:
          break;
      }
      rows.push_back({op.seq,
                      {std::to_string(op.event_index), TraceOpKindName(op.kind), actor, detail,
                       "-", "-"}});
    }
    std::sort(rows.begin(), rows.end(),
              [](const Row& a, const Row& b) { return a.seq < b.seq; });
    std::printf("=== %s: %s, %zu records, %llu disk reads ===\n",
                RunLabel(document, run_index).c_str(), block.ToString().c_str(), rows.size(),
                static_cast<unsigned long long>(disk_reads));
    if (rows.empty()) {
      std::printf("(block never touched in this run)\n\n");
      continue;
    }
    TableFormatter table({"Event", "Kind", "Client", "Detail", "Latency", "Counted"});
    for (const Row& row : rows) {
      table.AddRow(row.cells);
    }
    std::printf("%s\n", table.ToString().c_str());
  }
}

// ---- timeline (coopfs.timeseries/v1) ----

void CommandTimeline(const TimeseriesDocument& document,
                     const std::vector<std::size_t>& run_indices) {
  for (std::size_t run_index : run_indices) {
    const SnapshotRun& run = document.runs[run_index];
    std::printf("=== run %zu (%s, %u clients, interval %s) ===\n", run_index, run.policy.c_str(),
                run.num_clients,
                run.interval > 0
                    ? (FormatDouble(static_cast<double>(run.interval) / 1e6, 0) + " s").c_str()
                    : "off");
    TableFormatter table({"#", "Trigger", "Time", "Reads", "Counted", "Avg lat", "Local",
                          "Remote", "Disk", "Client occ", "Dup", "Load units"});
    for (const StateSample& sample : run.samples) {
      const std::uint64_t counted = sample.CountedReads();
      const double counted_d = static_cast<double>(counted);
      auto fraction = [&](CacheLevel level) {
        const auto i = static_cast<std::size_t>(level);
        return counted == 0 ? 0.0 : static_cast<double>(sample.level_reads[i]) / counted_d;
      };
      const StateProbe& state = sample.state;
      const double occupancy =
          state.client_blocks_capacity == 0
              ? 0.0
              : static_cast<double>(state.client_blocks_used) /
                    static_cast<double>(state.client_blocks_capacity);
      const double duplicated =
          state.directory_blocks == 0
              ? 0.0
              : static_cast<double>(state.duplicate_blocks) /
                    static_cast<double>(state.directory_blocks);
      std::uint64_t load = 0;
      for (std::uint64_t units : state.load_units) {
        load += units;
      }
      table.AddRow({std::to_string(sample.index), SampleTriggerName(sample.trigger),
                    FormatDouble(static_cast<double>(sample.time) / 1e6, 0) + " s",
                    std::to_string(sample.window_reads), std::to_string(counted),
                    counted == 0 ? "-" : FormatMicros(sample.CountedTimeUs() / counted_d),
                    FormatPercent(fraction(CacheLevel::kLocalMemory)),
                    FormatPercent(fraction(CacheLevel::kRemoteClient)),
                    FormatPercent(fraction(CacheLevel::kServerDisk)), FormatPercent(occupancy),
                    FormatPercent(duplicated), std::to_string(load)});
    }
    std::printf("%s\n", table.ToString().c_str());
  }
}

// ---- profile (coopfs.profile/v1) ----

void PrintProfileTree(const std::vector<Profiler::Node>& nodes, int depth) {
  for (const Profiler::Node& node : nodes) {
    std::printf("%*s%s: %llu calls, %s total, %s self\n", depth * 2, "", node.name.c_str(),
                static_cast<unsigned long long>(node.count),
                FormatMicros(static_cast<double>(node.total_ns) / 1000.0).c_str(),
                FormatMicros(static_cast<double>(node.SelfNs()) / 1000.0).c_str());
    PrintProfileTree(node.children, depth + 1);
  }
}

void CommandProfile(const std::vector<Profiler::Node>& roots) {
  PrintProfileTree(roots, 0);
  std::printf("\n%s", ProfileSelfTimeTable(roots).c_str());
}

// ---- manifest (coopfs.run/v1) ----

// Export paths are stored as written by the run (absolute, or relative to
// the run's working directory). For the cross-check, try the path as-is
// first, then relative to the manifest's own directory — the common case
// when a whole --out-dir was moved or archived together with the exports.
bool ExportExists(const std::string& manifest_path, const std::string& export_path) {
  std::error_code ec;
  if (std::filesystem::exists(export_path, ec)) {
    return true;
  }
  const std::filesystem::path sibling =
      std::filesystem::path(manifest_path).parent_path() / export_path;
  return std::filesystem::exists(sibling, ec);
}

void CommandManifest(const std::string& input_path, const std::string& text) {
  if (Status status = ValidateRunManifestDocument(text); !status.ok()) {
    Die(input_path + ": " + status.ToString());
  }
  // Validation guarantees every field read below is present and typed.
  const JsonValue root = *ParseJson(text);
  std::printf("%s: %s, coopfs %s\n\n", input_path.c_str(),
              root.FindString("schema")->AsString().c_str(),
              root.FindString("coopfs_version")->AsString().c_str());
  std::printf("experiment:  %s (%s)\n", root.FindString("experiment")->AsString().c_str(),
              root.FindString("title")->AsString().c_str());
  std::printf("description: %s\n", root.FindString("description")->AsString().c_str());
  std::string workloads;
  for (const JsonValue& workload : root.FindArray("workloads")->items()) {
    workloads += (workloads.empty() ? "" : ", ") + workload.AsString();
  }
  std::printf("workloads:   %s\n", workloads.empty() ? "(none)" : workloads.c_str());
  const JsonValue* options = root.FindObject("options");
  std::printf("options:     events %lld, seed %lld, auspex_events %lld, "
              "sample_interval %lld us\n",
              static_cast<long long>(options->FindNumber("events")->AsInt()),
              static_cast<long long>(options->FindNumber("seed")->AsInt()),
              static_cast<long long>(options->FindNumber("auspex_events")->AsInt()),
              static_cast<long long>(options->FindNumber("sample_interval_us")->AsInt()));
  std::printf("run:         %lld results, %lld threads, %s s wall\n",
              static_cast<long long>(root.FindNumber("num_results")->AsInt()),
              static_cast<long long>(root.FindNumber("threads")->AsInt()),
              FormatDouble(root.FindNumber("wall_time_s")->AsDouble(), 2).c_str());
  std::printf("re-run:      %s\n\n", root.FindString("command")->AsString().c_str());

  const auto& configs = root.FindArray("configs")->items();
  if (!configs.empty()) {
    TableFormatter table({"Config", "Client cache", "Server cache", "Servers", "Warm-up",
                          "Seed", "Write policy"});
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const JsonValue& config = configs[i];
      const auto blocks_mib = [&config](const char* field) {
        const double blocks = static_cast<double>(config.FindNumber(field)->AsInt());
        const double block_bytes =
            static_cast<double>(config.FindNumber("block_size_bytes")->AsInt());
        return FormatDouble(blocks * block_bytes / (1024.0 * 1024.0), 0) + " MB";
      };
      table.AddRow({std::to_string(i), blocks_mib("client_cache_blocks"),
                    blocks_mib("server_cache_blocks"),
                    std::to_string(config.FindNumber("num_servers")->AsInt()),
                    std::to_string(config.FindNumber("warmup_events")->AsInt()) + " events",
                    std::to_string(config.FindNumber("seed")->AsInt()),
                    config.FindString("write_policy")->AsString()});
    }
    std::printf("%s\n", table.ToString().c_str());
  }

  const auto& exports = root.FindArray("exports")->items();
  if (exports.empty()) {
    std::printf("exports: none\n");
    return;
  }
  TableFormatter table({"Kind", "Schema", "Path", "Status"});
  std::vector<std::string> missing;
  for (const JsonValue& entry : exports) {
    const std::string& path = entry.FindString("path")->AsString();
    const bool exists = ExportExists(input_path, path);
    if (!exists) {
      missing.push_back(path);
    }
    const std::string& schema = entry.FindString("schema")->AsString();
    table.AddRow({entry.FindString("kind")->AsString(), schema.empty() ? "-" : schema, path,
                  exists ? "ok" : "MISSING"});
  }
  std::printf("%s", table.ToString().c_str());
  if (!missing.empty()) {
    Die(std::to_string(missing.size()) + " export file(s) referenced by " + input_path +
        " not found (first: " + missing.front() + ")");
  }
}

// ---- diff (any two documents of one type -> coopfs.diff/v1) ----

// Returns the process exit code: 0 = no significant findings, 2 = findings
// (errors Die with 1), matching bench_compare's pass/fail convention so CI
// steps can branch on the code without parsing output.
int CommandDiff(const std::string& baseline_path, const std::string& candidate_path,
                const std::string& out_path, bool json_output) {
  Result<DiffReport> diffed = DiffDocumentFiles(baseline_path, candidate_path);
  if (!diffed.ok()) {
    Die(diffed.status().ToString());
  }
  const DiffReport& report = *diffed;
  if (!out_path.empty()) {
    if (Status status = report.WriteFile(out_path); !status.ok()) {
      Die("writing " + out_path + " failed: " + status.ToString());
    }
  }
  if (json_output) {
    std::printf("%s\n", report.ToJson().c_str());
    return report.HasFindings() ? 2 : 0;
  }
  std::printf("diff (%s): %s -> %s\n", DiffDocKindName(report.kind),
              report.baseline.label.c_str(), report.candidate.label.c_str());
  auto side_line = [](const char* who, const DiffSide& side) {
    std::printf("%-10s git %s, %s, %u host threads\n", who, side.git_sha.c_str(),
                side.build_type.c_str(), side.host_threads);
  };
  side_line("baseline:", report.baseline);
  side_line("candidate:", report.candidate);
  std::printf("compared %llu aligned entries (%llu baseline-only, %llu candidate-only)\n",
              static_cast<unsigned long long>(report.compared),
              static_cast<unsigned long long>(report.unmatched_baseline),
              static_cast<unsigned long long>(report.unmatched_candidate));
  if (!out_path.empty()) {
    std::printf("wrote %s\n", out_path.c_str());
  }
  if (!report.HasFindings()) {
    std::printf("no significant findings\n");
    return 0;
  }
  std::printf("%zu significant finding%s:\n", report.findings.size(),
              report.findings.size() == 1 ? "" : "s");
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    std::printf("  %zu. %s%s\n", i + 1, FormatDiffFindingLine(report.findings[i]).c_str(),
                report.findings[i].regression ? "  [regression]" : "");
  }
  return 2;
}

}  // namespace
}  // namespace coopfs

int main(int argc, char** argv) {
  using namespace coopfs;

  std::string command = "summary";
  std::string input_path;
  std::string command_arg;
  std::string out_path;
  std::size_t top_n = 20;
  long run_filter = -1;
  bool json_output = false;

  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--top") == 0 && i + 1 < argc) {
      if (Status status = ParseFlagNumber("--top", argv[++i], &top_n); !status.ok()) {
        Die(status.ToString());
      }
    } else if (std::strcmp(argv[i], "--run") == 0 && i + 1 < argc) {
      if (Status status = ParseFlagNumber("--run", argv[++i], &run_filter); !status.ok()) {
        Die(status.ToString());
      }
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_output = true;
    } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      PrintUsage();
      return 0;
    } else {
      positional.emplace_back(argv[i]);
    }
  }

  static constexpr const char* kCommands[] = {"summary",  "latency", "hot-blocks",
                                              "forwards", "recirc",  "block",
                                              "export-perfetto", "timeline", "profile",
                                              "manifest", "diff"};
  std::size_t cursor = 0;
  if (!positional.empty()) {
    bool known = false;
    for (const char* name : kCommands) {
      if (positional[0] == name) {
        command = positional[0];
        cursor = 1;
        known = true;
        break;
      }
    }
    // A lone non-command positional is the input path (default command);
    // with more positionals it can only be a misspelled command.
    if (!known && positional.size() > 1) {
      std::fprintf(stderr, "coopfs_inspect: unknown command '%s'\n\n", positional[0].c_str());
      PrintUsage();
      return 1;
    }
  }
  if ((command == "block" || command == "export-perfetto" || command == "diff") &&
      cursor < positional.size()) {
    command_arg = positional[cursor++];
  }
  if (cursor < positional.size()) {
    input_path = positional[cursor++];
  }
  if (input_path.empty() || cursor != positional.size()) {
    PrintUsage();
    return 1;
  }
  // Checked before the input, which may be a multi-hundred-MB trace, is read.
  BlockId block;
  if (command == "block") {
    if (Status status = ParseBlockRef(command_arg, block); !status.ok()) {
      Die(status.ToString());
    }
  }

  // diff reads both of its files itself (baseline = command_arg, candidate =
  // input_path); it branches off before the single-input read below.
  if (command == "diff") {
    if (command_arg.empty()) {
      Die("diff needs two documents: coopfs_inspect diff <baseline> <candidate>");
    }
    return CommandDiff(command_arg, input_path, out_path, json_output);
  }

  Result<std::string> read = ReadTextFile(input_path);
  if (!read.ok()) {
    Die(read.status().ToString());
  }
  const std::string& text = *read;

  // summary and hot-blocks also accept coopfs.metrics/v1 documents (a single
  // JSON object; the JSONL documents never parse as one). The sketched
  // "bounded" fields substitute for per-event data there.
  if (command == "summary" || command == "hot-blocks") {
    if (Result<JsonValue> metrics = ParseJson(text);
        metrics.ok() && metrics->is_object() && metrics->FindString("schema") != nullptr &&
        metrics->FindString("schema")->AsString() == kMetricsSchema) {
      if (Status status = ValidateMetricsDocument(text); !status.ok()) {
        Die(input_path + ": " + status.ToString());
      }
      if (!json_output) {
        const JsonValue* version = metrics->FindString("coopfs_version");
        std::printf("%s: %s, coopfs %s, %zu results\n\n", input_path.c_str(),
                    std::string(kMetricsSchema).c_str(),
                    version != nullptr ? version->AsString().c_str() : "unknown",
                    metrics->FindArray("results")->items().size());
      }
      if (command == "summary") {
        CommandMetricsSummary(*metrics, run_filter, json_output);
      } else {
        CommandMetricsHotBlocks(*metrics, run_filter, top_n, json_output);
      }
      return 0;
    }
  }

  // The timeline and profile commands read their own document types; they
  // branch off before the events parse below.
  if (command == "timeline") {
    Result<TimeseriesDocument> timeseries = ParseTimeseriesJsonl(text);
    if (!timeseries.ok()) {
      Die(input_path + ": " + timeseries.status().ToString());
    }
    std::printf("%s: %s, coopfs %s, seed %llu, %llu trace events%s%s, %zu runs\n\n",
                input_path.c_str(), std::string(kTimeseriesSchema).c_str(),
                timeseries->coopfs_version.c_str(),
                static_cast<unsigned long long>(timeseries->metadata.seed),
                static_cast<unsigned long long>(timeseries->metadata.trace_events),
                timeseries->metadata.workload.empty() ? "" : ", workload ",
                timeseries->metadata.workload.c_str(), timeseries->runs.size());
    std::vector<std::size_t> indices;
    if (run_filter >= 0) {
      if (static_cast<std::size_t>(run_filter) >= timeseries->runs.size()) {
        Die("--run " + std::to_string(run_filter) + " out of range (document has " +
            std::to_string(timeseries->runs.size()) + " runs)");
      }
      indices.push_back(static_cast<std::size_t>(run_filter));
    } else {
      for (std::size_t i = 0; i < timeseries->runs.size(); ++i) {
        indices.push_back(i);
      }
    }
    CommandTimeline(*timeseries, indices);
    return 0;
  }
  if (command == "manifest") {
    CommandManifest(input_path, text);
    return 0;
  }
  if (command == "profile") {
    Result<std::vector<Profiler::Node>> roots = ParseProfileDocument(text);
    if (!roots.ok()) {
      Die(input_path + ": " + roots.status().ToString());
    }
    std::printf("%s: %s, %zu root spans\n\n", input_path.c_str(),
                std::string(kProfileSchema).c_str(), roots->size());
    CommandProfile(*roots);
    return 0;
  }
  Result<EventsDocument> parsed = ParseEventsJsonl(text);
  if (!parsed.ok()) {
    Die(input_path + ": " + parsed.status().ToString());
  }
  const EventsDocument& document = *parsed;
  if (!json_output) {
    std::printf("%s: %s, coopfs %s, seed %llu, %llu trace events%s%s, %zu runs\n\n",
                input_path.c_str(), std::string(kEventsSchema).c_str(),
                document.coopfs_version.c_str(),
                static_cast<unsigned long long>(document.metadata.seed),
                static_cast<unsigned long long>(document.metadata.trace_events),
                document.metadata.workload.empty() ? "" : ", workload ",
                document.metadata.workload.c_str(), document.runs.size());
  }

  std::vector<std::size_t> run_indices;
  if (run_filter >= 0) {
    if (static_cast<std::size_t>(run_filter) >= document.runs.size()) {
      Die("--run " + std::to_string(run_filter) + " out of range (document has " +
          std::to_string(document.runs.size()) + " runs)");
    }
    run_indices.push_back(static_cast<std::size_t>(run_filter));
  } else {
    for (std::size_t i = 0; i < document.runs.size(); ++i) {
      run_indices.push_back(i);
    }
  }

  if (command == "summary") {
    CommandSummary(document, run_indices, json_output);
  } else if (command == "latency") {
    CommandLatency(document, run_indices);
  } else if (command == "hot-blocks") {
    CommandHotBlocks(document, run_indices, top_n, json_output);
  } else if (command == "forwards") {
    CommandForwards(document, run_indices);
  } else if (command == "recirc") {
    CommandRecirc(document, run_indices);
  } else if (command == "block") {
    CommandBlock(document, run_indices, block);
  } else if (command == "export-perfetto") {
    if (command_arg.empty()) {
      Die("export-perfetto needs an output path");
    }
    std::vector<TraceRun> selected;
    for (std::size_t i : run_indices) {
      selected.push_back(document.runs[i]);
    }
    if (Status status = WritePerfettoTrace(selected, command_arg); !status.ok()) {
      Die("perfetto export to " + command_arg + " failed: " + status.ToString());
    }
    std::printf("wrote perfetto trace: %s (%zu runs, open at ui.perfetto.dev)\n",
                command_arg.c_str(), selected.size());
  }
  return 0;
}
