// Figure 3: access times for the four memory-hierarchy levels under each
// cooperative caching algorithm. The only difference between algorithms is
// the hop count to remote client memory (2 for Direct, 3 for the
// server-forwarded algorithms).
#include "src/common/format.h"
#include "src/exp/context.h"
#include "src/exp/specs.h"
#include "src/model/access_times.h"

namespace coopfs {

namespace {

Status Run(ExperimentContext& ctx) {
  const NetworkModel atm = NetworkModel::Atm155();
  const DiskModel disk = DiskModel::RuemmlerWilkes();

  ctx.Printf("=== Figure 3: per-level access times by algorithm (ATM) ===\n\n");

  TableFormatter table({"Algorithm", "Local Mem.", "Remote Client Mem.", "Server Mem.",
                        "Server Disk"});
  auto row = [&table](const char* name, const AccessTimes& times) {
    table.AddRow({name, std::to_string(times.local) + " us",
                  std::to_string(times.remote_client) + " us",
                  std::to_string(times.server_memory) + " us",
                  std::to_string(times.server_disk) + " us"});
  };
  row("Direct", ComputeAccessTimes(atm, disk, /*remote_hops=*/2));
  row("Greedy", ComputeAccessTimes(atm, disk, /*remote_hops=*/3));
  row("Central", ComputeAccessTimes(atm, disk, /*remote_hops=*/3));
  row("N-Chance", ComputeAccessTimes(atm, disk, /*remote_hops=*/3));
  ctx.Printf("%s\n", table.ToString().c_str());
  ctx.Printf("paper reported: 250 / 1050 or 1250 / 1050 / 15,850 us\n");
  return ctx.Finish();
}

}  // namespace

ExperimentSpec Fig03AccessTimesSpec() {
  ExperimentSpec spec;
  spec.name = "fig03_access_times";
  spec.title = "Figure 3";
  spec.what = "per-level access times by algorithm (ATM)";
  spec.description = "per-level access times by algorithm (model)";
  spec.trace = TraceKind::kNone;
  spec.run = Run;
  return spec;
}

}  // namespace coopfs
