// Topology face-off: same switching equipment, different interconnects.
//
//   $ ./topology_faceoff
//
// One jf::eval Scenario compares three topology families under two routing
// schemes across a multi-seed batch — path lengths, optimal fluid
// throughput, and scheme-restricted throughput — the paper's §4/§5
// evaluation in one Engine::run call, parallelized across seeds.
#include <iostream>

#include "common/table.h"
#include "eval/engine.h"
#include "flow/throughput.h"
#include "topo/fattree.h"
#include "topo/jellyfish.h"

int main() {
  using namespace jf;
  const int k = 8;  // fat-tree parameter: 80 switches, 128 servers
  const int switches = topo::fattree_switches(k);
  const int servers = topo::fattree_servers(k);

  eval::Scenario s;
  s.name = "topology faceoff";
  s.topologies = {
      {.family = "fattree", .fattree_k = k},
      {.family = "jellyfish", .switches = switches, .ports = k, .servers = servers},
      {.family = "swdc-ring", .switches = switches, .ports = k, .degree = 6,
       .servers_per_switch = 2},
  };
  s.routings = {{"ecmp", 8}, {"ksp", 8}};
  s.metrics = {eval::Metric::kPathStats, eval::Metric::kThroughput,
               eval::Metric::kRoutedThroughput};
  s.seeds = {11, 12};

  print_banner(std::cout, "Same-equipment topology comparison (one Scenario, one run)");
  auto report = eval::Engine().run(s);
  report.to_table().print(std::cout);

  // Resilience spot-check (paper Fig. 8) on one concrete network each:
  // fail 15% of links and re-measure on the same stream.
  print_banner(std::cout, "Throughput after failing 15% of links");
  Table resil({"topology", "before", "after"});
  for (std::uint64_t salt : {20ULL, 21ULL}) {
    Rng build_rng(salt);
    auto net = salt == 20 ? topo::build_fattree(k)
                          : topo::build_jellyfish_with_servers(switches, k, servers, build_rng);
    Rng rng(salt == 20 ? salt : salt ^ 0x9e3779b97f4a7c15ULL);
    const double before = flow::mean_permutation_throughput(net, rng, 1);
    topo::fail_random_links(net, 0.15, rng);
    const double after = flow::mean_permutation_throughput(net, rng, 1);
    resil.add_row({net.name(), Table::fmt(before), Table::fmt(after)});
  }
  resil.print(std::cout);
  std::cout << "\nTakeaway (paper §4): the random graph packs more capacity and degrades\n"
               "more gracefully than structured alternatives on identical hardware.\n";
  return 0;
}
