// Figure 1(c): path-length distribution between servers — 686-server
// Jellyfish (10 trials) vs. the same-equipment fat-tree (k = 14).
//
// Paper's headline numbers: >99.5% of Jellyfish server pairs are reachable
// in < 6 hops; only ~7.5% of fat-tree pairs are.
//
// Ported onto the experiment farm: scenarios/fig01c.json runs both families
// over the 10 trial seeds with the server_cdf metric (the weighted
// server-pair CDF, server_cdf_le{2..6} in the report).
#include <ostream>

#include "eval/bench_driver.h"

namespace {

void shape_note(const jf::eval::SweepReport& report, std::ostream& os) {
  const auto& point = report.points.front();
  os << "\npaper shape check: Jellyfish reachable in <6 hops: "
     << jf::eval::mean_for(point, "jellyfish", "server_cdf_le5") * 100
     << "% (paper >99.5%), fat-tree: "
     << jf::eval::mean_for(point, "fattree", "server_cdf_le5") * 100 << "% (paper ~7.5%)\n";
}

}  // namespace

int main(int argc, char** argv) {
  return jf::eval::sweep_bench_main(
      argc, argv, "Figure 1(c): fraction of server pairs reachable within path length",
      JF_SCENARIO_DIR "/fig01c.json", shape_note);
}
