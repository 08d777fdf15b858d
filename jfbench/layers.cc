// Link-time layer interposition for the traced runner (jfbench_traced).
//
// CMakeLists.txt links jfbench_traced with -Wl,--wrap=<symbol> for every
// symbol named in a __wrap_ label below. The linker then routes each call
// the engine makes into that layer's public entry point through the
// wrapper here, which opens an obs::Span named "jfb.<layer>", bumps the
// layer's work counters, and calls the original through __real_<symbol>.
// The spans land in the same trace as the engine's own "engine.cell"
// spans, so jfbench.cc can split each cell's time into layer self-times.
// Nothing in src/ changes, and the plain jfbench binary carries none of it.
//
// The __real_ references are strong: if a later change renames or re-signs
// an entry point, __real_<old name> stays undefined and the jfbench_traced
// link fails, so a layer can never go dark unnoticed; update the mangled
// name below. run.py also checks that every layer its workload exercises
// was called.
#include <span>

#include "eval/scenario.h"
#include "eval/topology_factory.h"
#include "expansion/schedule.h"
#include "flow/mcf.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "layout/cabling.h"
#include "layout/placement.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "routing/path_provider.h"
#include "routing/paths.h"
#include "sim/workload.h"
#include "traffic/traffic.h"

using namespace jf;

#define JFB_WRAP(sym) __asm__("__wrap_" sym)
#define JFB_REAL(sym) __asm__("__real_" sym)

#define SYM_BUILD "_ZN2jf4eval14build_topologyERKNS0_12TopologySpecERNS_3RngE"
#define SYM_SAMPLE "_ZNK2jf4eval11TrafficSpec6sampleEiRNS_3RngE"
#define SYM_COMMODITIES "_ZN2jf7traffic21to_switch_commoditiesERKNS_4topo8TopologyERKNS0_13TrafficMatrixE"
#define SYM_PATHS "_ZN2jf7routing9PathCache5pathsEii"
#define SYM_MCF "_ZN2jf4flow19max_concurrent_flowERKNS_5graph5GraphESt4spanIKNS_7traffic9CommodityELm18446744073709551615EERKNS0_10McfOptionsEPNS_8parallel10WorkBudgetE"
#define SYM_RESTRICTED "_ZN2jf4flow30restricted_max_concurrent_flowERKNS_5graph5GraphESt4spanIKNS_7traffic9CommodityELm18446744073709551615EERNS_7routing12PathProviderERKNS0_10McfOptionsE"
#define SYM_BISECTION "_ZN2jf5graph22min_bisection_estimateERKNS0_5GraphERNS_3RngEi"
#define SYM_PARTITION "_ZN2jf5graph18balanced_partitionERKNS0_5GraphEiRNS_3RngEi"
#define SYM_GROWTH "_ZN2jf9expansion11plan_growthERKNS0_14GrowthScheduleERKNS0_9CostModelERNS_3RngERKNS0_17GrowthPlanOptionsE"
#define SYM_PLACE "_ZN2jf6layout5placeERKNS_4topo8TopologyENS0_14PlacementStyleERKNS0_9FloorPlanE"
#define SYM_CABLING "_ZN2jf6layout15analyze_cablingERKNS_4topo8TopologyERKNS0_9PlacementERKNS_9expansion9CostModelE"
#define SYM_SIM "_ZN2jf3sim12run_workloadERKNS_4topo8TopologyERKNS_7traffic13TrafficMatrixERKNS0_14WorkloadConfigERNS_7routing12PathProviderERNS_3RngEPNS_8parallel10WorkBudgetEPNS0_9TelemetryE"

using Paths = std::vector<std::vector<graph::NodeId>>;

// --- originals (member functions take `this` as their first argument) ---
topo::Topology real_build(const eval::TopologySpec&, Rng&) JFB_REAL(SYM_BUILD);
traffic::TrafficMatrix real_sample(const eval::TrafficSpec*, int, Rng&) JFB_REAL(SYM_SAMPLE);
std::vector<traffic::Commodity> real_commodities(const topo::Topology&,
                                                 const traffic::TrafficMatrix&)
    JFB_REAL(SYM_COMMODITIES);
const Paths& real_paths(routing::PathCache*, graph::NodeId, graph::NodeId) JFB_REAL(SYM_PATHS);
flow::McfResult real_mcf(const graph::Graph&, std::span<const traffic::Commodity>,
                         const flow::McfOptions&, parallel::WorkBudget*) JFB_REAL(SYM_MCF);
flow::McfResult real_restricted(const graph::Graph&, std::span<const traffic::Commodity>,
                                routing::PathProvider&, const flow::McfOptions&)
    JFB_REAL(SYM_RESTRICTED);
graph::BisectionResult real_bisection(const graph::Graph&, Rng&, int) JFB_REAL(SYM_BISECTION);
std::vector<int> real_partition(const graph::Graph&, int, Rng&, int) JFB_REAL(SYM_PARTITION);
expansion::GrowthPlan real_growth(const expansion::GrowthSchedule&, const expansion::CostModel&,
                                  Rng&, const expansion::GrowthPlanOptions&)
    JFB_REAL(SYM_GROWTH);
layout::Placement real_place(const topo::Topology&, layout::PlacementStyle,
                             const layout::FloorPlan&) JFB_REAL(SYM_PLACE);
layout::CableStats real_cabling(const topo::Topology&, const layout::Placement&,
                                const expansion::CostModel&) JFB_REAL(SYM_CABLING);
sim::WorkloadResult real_sim(const topo::Topology&, const traffic::TrafficMatrix&,
                             const sim::WorkloadConfig&, routing::PathProvider&, Rng&,
                             parallel::WorkBudget*, sim::Telemetry*) JFB_REAL(SYM_SIM);

// --- wrappers ---
topo::Topology wrap_build(const eval::TopologySpec&, Rng&) JFB_WRAP(SYM_BUILD);
topo::Topology wrap_build(const eval::TopologySpec& spec, Rng& rng) {
  static obs::Counter& builds = obs::counter("jfb.topo.builds");
  static obs::Counter& links = obs::counter("jfb.topo.links");
  obs::Span span("jfb.topo", "jfbench");
  topo::Topology t = real_build(spec, rng);
  builds.increment();
  links.add(static_cast<std::int64_t>(t.switches().num_edges()));
  return t;
}

traffic::TrafficMatrix wrap_sample(const eval::TrafficSpec*, int, Rng&) JFB_WRAP(SYM_SAMPLE);
traffic::TrafficMatrix wrap_sample(const eval::TrafficSpec* self, int servers, Rng& rng) {
  static obs::Counter& samples = obs::counter("jfb.traffic.samples");
  obs::Span span("jfb.traffic", "jfbench");
  samples.increment();
  return real_sample(self, servers, rng);
}

std::vector<traffic::Commodity> wrap_commodities(const topo::Topology&,
                                                 const traffic::TrafficMatrix&)
    JFB_WRAP(SYM_COMMODITIES);
std::vector<traffic::Commodity> wrap_commodities(const topo::Topology& t,
                                                 const traffic::TrafficMatrix& tm) {
  static obs::Counter& commodities = obs::counter("jfb.traffic.commodities");
  obs::Span span("jfb.traffic", "jfbench");
  auto out = real_commodities(t, tm);
  commodities.add(static_cast<std::int64_t>(out.size()));
  return out;
}

const Paths& wrap_paths(routing::PathCache*, graph::NodeId, graph::NodeId) JFB_WRAP(SYM_PATHS);
const Paths& wrap_paths(routing::PathCache* self, graph::NodeId s, graph::NodeId t) {
  static obs::Counter& pairs = obs::counter("jfb.routing.pairs");
  static obs::Counter& paths = obs::counter("jfb.routing.paths");
  obs::Span span("jfb.routing", "jfbench");
  const Paths& out = real_paths(self, s, t);
  pairs.increment();
  paths.add(static_cast<std::int64_t>(out.size()));
  return out;
}

flow::McfResult wrap_mcf(const graph::Graph&, std::span<const traffic::Commodity>,
                         const flow::McfOptions&, parallel::WorkBudget*) JFB_WRAP(SYM_MCF);
flow::McfResult wrap_mcf(const graph::Graph& g, std::span<const traffic::Commodity> c,
                         const flow::McfOptions& o, parallel::WorkBudget* b) {
  static obs::Counter& calls = obs::counter("jfb.mcf.calls");
  obs::Span span("jfb.mcf", "jfbench");
  calls.increment();
  return real_mcf(g, c, o, b);
}

flow::McfResult wrap_restricted(const graph::Graph&, std::span<const traffic::Commodity>,
                                routing::PathProvider&, const flow::McfOptions&)
    JFB_WRAP(SYM_RESTRICTED);
flow::McfResult wrap_restricted(const graph::Graph& g, std::span<const traffic::Commodity> c,
                                routing::PathProvider& routes, const flow::McfOptions& o) {
  static obs::Counter& solves = obs::counter("jfb.restricted.solves");
  obs::Span span("jfb.restricted", "jfbench");
  solves.increment();
  return real_restricted(g, c, routes, o);
}

graph::BisectionResult wrap_bisection(const graph::Graph&, Rng&, int) JFB_WRAP(SYM_BISECTION);
graph::BisectionResult wrap_bisection(const graph::Graph& g, Rng& rng, int restarts) {
  static obs::Counter& calls = obs::counter("jfb.partition.calls");
  obs::Span span("jfb.partition", "jfbench");
  calls.increment();
  return real_bisection(g, rng, restarts);
}

std::vector<int> wrap_partition(const graph::Graph&, int, Rng&, int) JFB_WRAP(SYM_PARTITION);
std::vector<int> wrap_partition(const graph::Graph& g, int k, Rng& rng, int restarts) {
  static obs::Counter& calls = obs::counter("jfb.partition.calls");
  obs::Span span("jfb.partition", "jfbench");
  calls.increment();
  return real_partition(g, k, rng, restarts);
}

expansion::GrowthPlan wrap_growth(const expansion::GrowthSchedule&, const expansion::CostModel&,
                                  Rng&, const expansion::GrowthPlanOptions&)
    JFB_WRAP(SYM_GROWTH);
expansion::GrowthPlan wrap_growth(const expansion::GrowthSchedule& s,
                                  const expansion::CostModel& costs, Rng& rng,
                                  const expansion::GrowthPlanOptions& o) {
  static obs::Counter& steps = obs::counter("jfb.expansion.steps");
  obs::Span span("jfb.expansion", "jfbench");
  expansion::GrowthPlan plan = real_growth(s, costs, rng, o);
  steps.add(static_cast<std::int64_t>(plan.steps.size()));
  return plan;
}

layout::Placement wrap_place(const topo::Topology&, layout::PlacementStyle,
                             const layout::FloorPlan&) JFB_WRAP(SYM_PLACE);
layout::Placement wrap_place(const topo::Topology& t, layout::PlacementStyle style,
                             const layout::FloorPlan& plan) {
  obs::Span span("jfb.layout", "jfbench");
  return real_place(t, style, plan);
}

layout::CableStats wrap_cabling(const topo::Topology&, const layout::Placement&,
                                const expansion::CostModel&) JFB_WRAP(SYM_CABLING);
layout::CableStats wrap_cabling(const topo::Topology& t, const layout::Placement& p,
                                const expansion::CostModel& costs) {
  static obs::Counter& calls = obs::counter("jfb.layout.calls");
  obs::Span span("jfb.layout", "jfbench");
  calls.increment();
  return real_cabling(t, p, costs);
}

sim::WorkloadResult wrap_sim(const topo::Topology&, const traffic::TrafficMatrix&,
                             const sim::WorkloadConfig&, routing::PathProvider&, Rng&,
                             parallel::WorkBudget*, sim::Telemetry*) JFB_WRAP(SYM_SIM);
sim::WorkloadResult wrap_sim(const topo::Topology& t, const traffic::TrafficMatrix& tm,
                             const sim::WorkloadConfig& cfg, routing::PathProvider& routes,
                             Rng& rng, parallel::WorkBudget* budget, sim::Telemetry* telem) {
  static obs::Counter& calls = obs::counter("jfb.sim.calls");
  static obs::Counter& serial = obs::counter("jfb.sim.serial_calls");
  obs::Span span("jfb.sim", "jfbench");
  calls.increment();
  if (cfg.shards <= 1) serial.increment();
  return real_sim(t, tm, cfg, routes, rng, budget, telem);
}
