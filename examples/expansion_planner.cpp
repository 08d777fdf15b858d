// Expansion planning: grow a data center under per-stage budgets and compare
// Jellyfish's random-graph expansion against a structure-preserving Clos
// upgrade path (the paper's §4.2 / Fig. 7 scenario as a CLI tool).
//
//   $ ./expansion_planner
//
// Scenario: a 480-server cluster (34 x 24-port switches) grows to 720
// servers, then receives four capacity-only upgrades.
#include <iostream>

#include "common/rng.h"
#include "common/table.h"
#include "expansion/schedule.h"

int main() {
  using namespace jf;

  // One arc, planned under both growth policies.
  expansion::GrowthSchedule arc;  // 34 switches x 24 ports, 480 servers
  arc.steps = {
      {.min_servers = 720, .budget = 30000.0},  // stage 1: +240 servers plus whatever fits
      {.budget = 30000.0},                      // stages 2-5: network capacity only
      {.budget = 30000.0},
      {.budget = 30000.0},
      {.budget = 30000.0},
  };
  expansion::GrowthSchedule clos_arc = arc;
  clos_arc.policy = "clos";
  expansion::CostModel costs;

  Rng rng(2024);
  Rng jf_rng = rng.fork(1), clos_rng = rng.fork(2);
  auto jf_plan = expansion::plan_growth(arc, costs, jf_rng);
  auto clos_plan = expansion::plan_growth(clos_arc, costs, clos_rng);

  print_banner(std::cout, "Expansion plan: Jellyfish vs structured Clos");
  Table table({"stage", "jf_cost", "jf_switches", "jf_servers", "jf_bisection", "clos_cost",
               "clos_switches", "clos_bisection"});
  for (std::size_t i = 0; i < jf_plan.steps.size(); ++i) {
    const auto& j = jf_plan.steps[i];
    const auto& c = clos_plan.steps[i];
    table.add_row({Table::fmt(j.step), Table::fmt(j.cumulative_cost, 0),
                   Table::fmt(j.switches), Table::fmt(j.servers),
                   Table::fmt(j.normalized_bisection), Table::fmt(c.cumulative_cost, 0),
                   Table::fmt(c.switches), Table::fmt(c.normalized_bisection)});
  }
  table.print(std::cout);

  const auto& last = jf_plan.steps.back();
  std::cout << "\nfinal Jellyfish network: " << last.switches << " switches hosting "
            << last.servers << " servers, normalized bisection bandwidth "
            << last.normalized_bisection << "\n";
  std::cout << "cables touched in the last stage: " << last.cables_touched
            << " (expansion rewiring is local and incremental)\n";
  return 0;
}
