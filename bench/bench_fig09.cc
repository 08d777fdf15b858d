// Figure 9: path diversity per link — ECMP vs. k-shortest-path routing.
//
// On a Jellyfish built from a 686-server fat-tree's equipment, count for
// every directed inter-switch link how many distinct paths cross it under
// 8-way ECMP, 64-way ECMP, and 8-shortest-path routing for one random
// permutation. Paper shape: under ECMP ~55% of links are on <= 2 paths;
// under 8-SP only ~6% are.
//
// Ported onto the experiment farm: scenarios/fig09.json lists the three
// routing schemes; the link_diversity metric evaluates each scheme's
// PathProvider against the same sampled permutation (div_rank_p* in the
// report is the ranked series at deciles, the paper's x-axis).
#include <ostream>

#include "eval/bench_driver.h"

namespace {

void shape_note(const jf::eval::SweepReport& report, std::ostream& os) {
  const auto& point = report.points.front();
  os << "\npaper shape: ECMP leaves ~55% of links on <=2 paths; 8-SP only ~6%.\n";
  for (const auto& scheme : point.report.routing_labels) {
    os << "  " << scheme << ": "
       << jf::eval::mean_for(point, "jellyfish", "div_frac_le2", scheme) * 100
       << "% of links on <=2 paths, mean "
       << jf::eval::mean_for(point, "jellyfish", "div_mean", scheme) << " paths per link\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  return jf::eval::sweep_bench_main(argc, argv,
                                    "Figure 9: #distinct paths per directed link (ranked)",
                                    JF_SCENARIO_DIR "/fig09.json", shape_note);
}
