// Quickstart: build a Jellyfish network, inspect it, grow it, evaluate it.
//
//   $ ./quickstart
//
// Walks through the library's building blocks: construction (topo::),
// path statistics (graph::), fluid throughput and bisection (flow::),
// incremental expansion, failure resilience and cabling (layout::).
#include <iostream>

#include "flow/bisection.h"
#include "flow/throughput.h"
#include "graph/algorithms.h"
#include "layout/cabling.h"
#include "topo/jellyfish.h"

int main() {
  using namespace jf;

  // 40 switches x 12 ports, 160 servers (4 per switch, network degree 8).
  const std::uint64_t seed = 7;
  Rng build_rng(seed);
  auto topo = topo::build_jellyfish_with_servers(40, 12, 160, build_rng);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);  // traffic, KL cuts, splices, failures
  std::cout << "built: " << topo.num_switches() << " switches, " << topo.num_servers()
            << " servers, " << topo.switches().num_edges() << " inter-switch links\n";

  auto stats = graph::path_length_stats(topo.switches());
  std::cout << "switch-level paths: mean " << stats.mean << " hops, diameter "
            << stats.diameter << "\n";

  std::cout << "fluid throughput (random permutation): "
            << flow::mean_permutation_throughput(topo, rng, 3)
            << " (1.0 = every NIC saturated)\n";
  std::cout << "bisection bandwidth (normalized lower bound): "
            << flow::normalized_bisection(topo, rng) << "\n";

  // Incremental expansion: two more racks (12 ports: 8 into the fabric,
  // 4 servers) and one network-only switch.
  topo::expand_add_switch(topo, 12, 8, 4, rng);
  topo::expand_add_switch(topo, 12, 8, 4, rng);
  topo::expand_add_switch(topo, 12, 12, 0, rng);
  std::cout << "after expansion: " << topo.num_switches() << " switches, "
            << topo.num_servers() << " servers, throughput "
            << flow::mean_permutation_throughput(topo, rng, 3) << "\n";

  // Resilience: kill 10% of links.
  const int failed = topo::fail_random_links(topo, 0.10, rng);
  std::cout << "after failing " << failed << " links: throughput "
            << flow::mean_permutation_throughput(topo, rng, 3) << "\n";

  // Deployment artifact: cabling summary for the §6.2 switch-cluster layout.
  auto placement = layout::place(topo, layout::PlacementStyle::kCentralCluster);
  auto cables = layout::analyze_cabling(topo, placement, expansion::CostModel{});
  std::cout << "cabling: " << cables.switch_cables << " switch cables ("
            << cables.optical_fraction * 100 << "% optical), " << cables.server_cables
            << " server cables, " << cables.bundles << " bundles\n";
  return 0;
}
