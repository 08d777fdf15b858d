// Figure 14: two-layer (container-localized) Jellyfish — throughput vs.
// fraction of links kept inside the pod/container.
//
// Paper shape: normalized to the unrestricted Jellyfish, capacity loses <3%
// with 50% of links localized and <6% at 60%, then falls off steeply as
// localization approaches 90%. (A fat-tree's local-link fraction is
// 0.5(1 + 1/k), ~53.6% — Jellyfish can localize more and still win.)
//
// Ported onto the experiment farm: scenarios/fig14.json zips three sizes
// (160 / 375 / 720 servers, 5 per 16-port switch) over the twolayer row and
// the equal-equipment jellyfish row, then sweeps the twolayer local-link
// fraction; the untouched jellyfish row is evaluated once per size.
#include <cmath>
#include <ostream>

#include "common/table.h"
#include "eval/bench_driver.h"

namespace {

void shape_note(const jf::eval::SweepReport& report, std::ostream& os) {
  using jf::Table;
  os << "\nthroughput vs local-link fraction, normalized to unrestricted jellyfish:\n";
  Table table({"point", "throughput", "vs_unrestricted"});
  for (const auto& point : report.points) {
    const double local = jf::eval::mean_for(point, "twolayer", "throughput");
    const double unrestricted = jf::eval::mean_for(point, "jellyfish", "throughput");
    if (std::isnan(local) || std::isnan(unrestricted)) continue;
    table.add_row({point.label, Table::fmt(local),
                   Table::fmt(unrestricted > 0 ? local / unrestricted : 0)});
  }
  table.print(os);
  os << "\npaper shape: <6% loss up to ~0.6 local fraction, steep drop by 0.9.\n";
}

}  // namespace

int main(int argc, char** argv) {
  return jf::eval::sweep_bench_main(
      argc, argv, "Figure 14: 2-layer Jellyfish throughput vs local-link fraction",
      JF_SCENARIO_DIR "/fig14.json", shape_note);
}
