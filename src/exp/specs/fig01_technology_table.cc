// Figure 1: time to service a local cache miss from remote memory or disk,
// for 10 Mbit/s Ethernet and 155 Mbit/s ATM. Pure technology-model table —
// reproduces the paper's numbers exactly.
#include "src/common/format.h"
#include "src/exp/context.h"
#include "src/exp/specs.h"
#include "src/model/network_model.h"

namespace coopfs {

namespace {

Status Run(ExperimentContext& ctx) {
  const NetworkModel ethernet = NetworkModel::Ethernet10();
  const NetworkModel atm = NetworkModel::Atm155();
  const DiskModel disk = DiskModel::RuemmlerWilkes();

  ctx.Printf("=== Figure 1: local-miss service time, remote memory vs. remote disk ===\n\n");

  TableFormatter table({"", "Eth Remote Mem", "Eth Remote Disk", "ATM Remote Mem",
                        "ATM Remote Disk"});
  auto us = [](Micros value) { return std::to_string(value) + " us"; };

  table.AddRow({"Mem. Copy", us(ethernet.memory_copy), us(ethernet.memory_copy),
                us(atm.memory_copy), us(atm.memory_copy)});
  table.AddRow({"Net Overhead", us(ethernet.per_hop * 2), us(ethernet.per_hop * 2),
                us(atm.per_hop * 2), us(atm.per_hop * 2)});
  table.AddRow({"Data", us(ethernet.block_transfer), us(ethernet.block_transfer),
                us(atm.block_transfer), us(atm.block_transfer)});
  table.AddRow({"Disk", "", us(disk.access_time), "", us(disk.access_time)});
  table.AddRule();
  table.AddRow({"Total", us(ethernet.RemoteFetchTime(2)),
                us(ethernet.RemoteFetchTime(2) + disk.access_time), us(atm.RemoteFetchTime(2)),
                us(atm.RemoteFetchTime(2) + disk.access_time)});
  ctx.Printf("%s\n", table.ToString().c_str());

  ctx.Printf("paper reported: 6,900 / 21,700 / 1,050 / 15,850 us\n");
  return ctx.Finish();
}

}  // namespace

ExperimentSpec Fig01TechnologyTableSpec() {
  ExperimentSpec spec;
  spec.name = "fig01_technology_table";
  spec.title = "Figure 1";
  spec.what = "local-miss service time, remote memory vs. remote disk";
  spec.description = "remote-memory vs. remote-disk service time (model)";
  spec.trace = TraceKind::kNone;
  spec.run = Run;
  return spec;
}

}  // namespace coopfs
