// Ablation: how many paths does Jellyfish routing actually need?
//
// The paper fixes k = 8 shortest paths and 8 MPTCP subflows; this ablation
// sweeps both knobs on one oversubscribed Jellyfish (33 switches x 12
// ports, 165 servers) to show where the returns flatten (the justification
// for the paper's choice). Expected shape: large jump from 1 -> 2-4 paths
// (escaping ECMP-style collisions), saturation around 8; subflows track
// path count until they exceed it.
//
// Ported onto the experiment farm: scenarios/ablation_paths.json zips
// routing.width with sim.subflows — first the KSP path count at 8 subflows,
// then the subflow count at 8 paths — with fluid throughput as denominator.
#include <cmath>
#include <ostream>

#include "common/table.h"
#include "eval/bench_driver.h"

namespace {

void shape_note(const jf::eval::SweepReport& report, std::ostream& os) {
  using jf::Table;
  os << "\npacket throughput by KSP path count and MPTCP subflow count:\n";
  Table table({"k_paths", "subflows", "packet_throughput", "fraction_of_fluid"});
  for (const auto& point : report.points) {
    double k = NAN, subflows = NAN;
    for (const auto& [field, value] : point.coords) {
      if (field == "routing.width") k = value;
      if (field == "sim.subflows") subflows = value;
    }
    const double packet = jf::eval::mean_for(point, "jellyfish", "sim_goodput");
    const double fluid = jf::eval::mean_for(point, "jellyfish", "throughput");
    if (std::isnan(packet) || std::isnan(fluid) || fluid <= 0.0) continue;
    table.add_row({Table::fmt(k, 0), Table::fmt(subflows, 0), Table::fmt(packet),
                   Table::fmt(packet / fluid)});
  }
  table.print(os);
  os << "\nexpected shape: biggest gain from 1 -> 4 paths/subflows, saturating by 8\n"
        "(the paper's operating point).\n";
}

}  // namespace

int main(int argc, char** argv) {
  return jf::eval::sweep_bench_main(argc, argv,
                                    "Ablation: KSP path count x MPTCP subflow count",
                                    JF_SCENARIO_DIR "/ablation_paths.json", shape_note);
}
