// Figure 13: per-flow fairness of routing + congestion control.
//
// Normalized per-flow throughput spread for a same-equipment fat-tree
// (k = 8) / Jellyfish (80 switches x 8 ports, 146 servers) pair under
// MPTCP-8, plus Jain's fairness index. Paper shape: both topologies are
// similarly fair (Jain ~0.99), Jellyfish simply has more flows because it
// hosts more servers.
//
// Ported onto the experiment farm: scenarios/fig13.json runs both
// topologies on ECMP-8 and 8-shortest-paths with the packet_sim (Jain
// fairness) and flow_stats (per-flow throughput percentiles) metrics; the
// epilogue tabulates the spread per (topology, routing).
#include <ostream>
#include <string>

#include "common/table.h"
#include "eval/bench_driver.h"

namespace {

void shape_note(const jf::eval::SweepReport& report, std::ostream& os) {
  using jf::Table;
  const auto& point = report.points.front();
  os << "\nnormalized flow throughput spread + Jain fairness:\n";
  Table table({"topology", "routing", "jain", "min", "p10", "p50", "p90"});
  for (const auto& topology : point.report.topology_labels) {
    for (const auto& routing : point.report.routing_labels) {
      auto value = [&](const char* metric) {
        return Table::fmt(jf::eval::mean_for(point, topology, metric, routing));
      };
      table.add_row({topology, routing, value("sim_fairness"), value("flow_tput_min"),
                     value("flow_tput_p10"), value("flow_tput_p50"), value("flow_tput_p90")});
    }
  }
  table.print(os);
  os << "\npaper shape: Jain fairness fat-tree (ECMP) "
     << jf::eval::mean_for(point, "fattree", "sim_fairness", "ecmp") << ", jellyfish (8-SP) "
     << jf::eval::mean_for(point, "jellyfish", "sim_fairness", "ksp")
     << " (paper: 0.991 / 0.988)\n";
}

}  // namespace

int main(int argc, char** argv) {
  return jf::eval::sweep_bench_main(
      argc, argv, "Figure 13: normalized flow throughput spread + Jain fairness",
      JF_SCENARIO_DIR "/fig13.json", shape_note);
}
