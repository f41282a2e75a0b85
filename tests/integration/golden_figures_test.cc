// Golden-output tests for the paper's Figure 1 and Figure 3 tables. These
// tables are pure functions of the technology constants (no simulation), so
// their rendered output is locked down byte-for-byte: any drift in the
// constants, the access-time arithmetic, or the table formatter shows up as
// a readable diff against the paper's published numbers.
#include <string>

#include <gtest/gtest.h>

#include "src/common/format.h"
#include "src/model/access_times.h"
#include "src/model/network_model.h"

namespace coopfs {
namespace {

std::string Us(Micros value) { return std::to_string(value) + " us"; }

// Mirrors the table src/exp/specs/fig01_technology_table.cc prints, exactly.
std::string RenderFigure1() {
  const NetworkModel ethernet = NetworkModel::Ethernet10();
  const NetworkModel atm = NetworkModel::Atm155();
  const DiskModel disk = DiskModel::RuemmlerWilkes();

  TableFormatter table({"", "Eth Remote Mem", "Eth Remote Disk", "ATM Remote Mem",
                        "ATM Remote Disk"});
  table.AddRow({"Mem. Copy", Us(ethernet.memory_copy), Us(ethernet.memory_copy),
                Us(atm.memory_copy), Us(atm.memory_copy)});
  table.AddRow({"Net Overhead", Us(ethernet.per_hop * 2), Us(ethernet.per_hop * 2),
                Us(atm.per_hop * 2), Us(atm.per_hop * 2)});
  table.AddRow({"Data", Us(ethernet.block_transfer), Us(ethernet.block_transfer),
                Us(atm.block_transfer), Us(atm.block_transfer)});
  table.AddRow({"Disk", "", Us(disk.access_time), "", Us(disk.access_time)});
  table.AddRule();
  table.AddRow({"Total", Us(ethernet.RemoteFetchTime(2)),
                Us(ethernet.RemoteFetchTime(2) + disk.access_time), Us(atm.RemoteFetchTime(2)),
                Us(atm.RemoteFetchTime(2) + disk.access_time)});
  return table.ToString();
}

// Mirrors the table src/exp/specs/fig03_access_times.cc prints, exactly.
std::string RenderFigure3() {
  const NetworkModel atm = NetworkModel::Atm155();
  const DiskModel disk = DiskModel::RuemmlerWilkes();

  TableFormatter table({"Algorithm", "Local Mem.", "Remote Client Mem.", "Server Mem.",
                        "Server Disk"});
  auto row = [&table](const char* name, const AccessTimes& times) {
    table.AddRow({name, Us(times.local), Us(times.remote_client), Us(times.server_memory),
                  Us(times.server_disk)});
  };
  row("Direct", ComputeAccessTimes(atm, disk, /*remote_hops=*/2));
  row("Greedy", ComputeAccessTimes(atm, disk, /*remote_hops=*/3));
  row("Central", ComputeAccessTimes(atm, disk, /*remote_hops=*/3));
  row("N-Chance", ComputeAccessTimes(atm, disk, /*remote_hops=*/3));
  return table.ToString();
}

TEST(GoldenFiguresTest, Figure1TechnologyTable) {
  const std::string golden =
      "              Eth Remote Mem  Eth Remote Disk  ATM Remote Mem  ATM Remote Disk\n"
      "------------------------------------------------------------------------------\n"
      "Mem. Copy             250 us           250 us          250 us           250 us\n"
      "Net Overhead          400 us           400 us          400 us           400 us\n"
      "Data                 6250 us          6250 us          400 us           400 us\n"
      "Disk                                 14800 us                         14800 us\n"
      "------------------------------------------------------------------------------\n"
      "Total                6900 us         21700 us         1050 us         15850 us\n";
  EXPECT_EQ(RenderFigure1(), golden);
}

TEST(GoldenFiguresTest, Figure3AccessTimesTable) {
  const std::string golden =
      "Algorithm  Local Mem.  Remote Client Mem.  Server Mem.  Server Disk\n"
      "-------------------------------------------------------------------\n"
      "Direct         250 us             1050 us      1050 us     15850 us\n"
      "Greedy         250 us             1250 us      1050 us     15850 us\n"
      "Central        250 us             1250 us      1050 us     15850 us\n"
      "N-Chance       250 us             1250 us      1050 us     15850 us\n";
  EXPECT_EQ(RenderFigure3(), golden);
}

TEST(GoldenFiguresTest, PaperConstants) {
  // Section 2.1 technology assumptions, in microseconds.
  const NetworkModel ethernet = NetworkModel::Ethernet10();
  const NetworkModel atm = NetworkModel::Atm155();
  const DiskModel disk = DiskModel::RuemmlerWilkes();

  EXPECT_EQ(ethernet.memory_copy, 250);
  EXPECT_EQ(ethernet.per_hop, 200);
  EXPECT_EQ(ethernet.block_transfer, 6250);
  EXPECT_EQ(atm.memory_copy, 250);
  EXPECT_EQ(atm.per_hop, 200);
  EXPECT_EQ(atm.block_transfer, 400);
  EXPECT_EQ(disk.access_time, 14800);

  // Figure 1 totals: remote memory vs. remote disk for both networks.
  EXPECT_EQ(ethernet.RemoteFetchTime(2), 6900);
  EXPECT_EQ(ethernet.RemoteFetchTime(2) + disk.access_time, 21700);
  EXPECT_EQ(atm.RemoteFetchTime(2), 1050);
  EXPECT_EQ(atm.RemoteFetchTime(2) + disk.access_time, 15850);
}

TEST(GoldenFiguresTest, Figure3AccessTimeValues) {
  const NetworkModel atm = NetworkModel::Atm155();
  const DiskModel disk = DiskModel::RuemmlerWilkes();

  // Direct cooperation reaches remote client memory in 2 hops; the
  // server-forwarded algorithms need 3.
  const AccessTimes direct = ComputeAccessTimes(atm, disk, /*remote_hops=*/2);
  EXPECT_EQ(direct.local, 250);
  EXPECT_EQ(direct.remote_client, 1050);
  EXPECT_EQ(direct.server_memory, 1050);
  EXPECT_EQ(direct.server_disk, 15850);

  const AccessTimes forwarded = ComputeAccessTimes(atm, disk, /*remote_hops=*/3);
  EXPECT_EQ(forwarded.local, 250);
  EXPECT_EQ(forwarded.remote_client, 1250);
  EXPECT_EQ(forwarded.server_memory, 1050);
  EXPECT_EQ(forwarded.server_disk, 15850);
}

}  // namespace
}  // namespace coopfs
