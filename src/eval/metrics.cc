// The metric registry: one row per Metric (name, description, needs flags,
// kernel) and the kernels themselves. Adding a metric is one enum value, one
// kernel and one row here; the engine, the scenario loader and jf_eval list
// read everything else from the row.
#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <optional>

#include "common/check.h"
#include "common/stats.h"
#include "eval/cell.h"
#include "eval/topology_factory.h"
#include "expansion/cost_model.h"
#include "flow/bisection.h"
#include "flow/restricted.h"
#include "flow/throughput.h"
#include "graph/algorithms.h"
#include "layout/cabling.h"
#include "routing/diversity.h"
#include "topo/fattree.h"

namespace jf::eval {

// One cell as the kernels see it: its scenario, indices and seed, its
// lazily built inputs and the sample sink.
struct MetricCell {
  // One packet-sim run; `data` is filled only when telemetry is recorded.
  struct SimRun {
    sim::WorkloadResult res;
    sim::TelemetryDataset data;
  };

  const Scenario& scenario;
  const TopologySpec& spec;
  const int topo;
  const int routing;  // -1 in the routing-free cell
  const std::uint64_t seed;
  parallel::WorkBudget* const budget;  // idle batch workers the kernels may borrow
  const topo::Topology* const shared_topology;
  routing::PathProvider* const shared_routes;
  const bool record_telemetry;
  std::vector<Sample> samples;
  std::optional<topo::Topology> own_topology;
  std::unique_ptr<routing::PathProvider> own_routes;
  std::vector<std::optional<SimRun>> sim_runs;
  std::optional<expansion::GrowthPlan> growth_plan;

  void emit(const std::string& metric, int sample, double value) {
    samples.push_back({topo, routing, seed, sample, metric, value});
  }

  // Rng(seed) forked with `tag` + the topology index.
  Rng stream(std::uint64_t tag) const {
    return Rng(seed).fork(tag + static_cast<std::uint64_t>(topo));
  }

  const topo::Topology& topology() {
    if (shared_topology != nullptr) return *shared_topology;
    if (!own_topology) {
      Rng topo_rng = stream(kTopoStream);
      own_topology.emplace(build_topology(spec, topo_rng));
    }
    return *own_topology;
  }

  routing::PathProvider& routes() {
    if (shared_routes != nullptr) return *shared_routes;
    if (!own_routes) {
      own_routes = routing::make_path_provider(
          topology().switches(), scenario.routings[static_cast<std::size_t>(routing)]);
    }
    return *own_routes;
  }

  // Sample k's traffic matrix over the built topology's servers.
  traffic::TrafficMatrix traffic(int k) {
    Rng tr = traffic_rng(seed, topo, k);
    return scenario.traffic.sample(topology().num_servers(), tr);
  }

  // The RNG forks depend only on the cell indices and k, so which metric
  // triggers a run cannot change its stream. Recording is observational:
  // the WorkloadResult (and thus every emitted sample) is byte-identical
  // with the recorder on or off.
  const SimRun& sim_run(int k) {
    sim_runs.resize(static_cast<std::size_t>(scenario.samples_per_seed));
    auto& slot = sim_runs[static_cast<std::size_t>(k)];
    if (!slot) {
      auto tm = traffic(k);
      Rng sim_rng = Rng(seed).fork(kSimStream + static_cast<std::uint64_t>(topo) * 262144 +
                                   static_cast<std::uint64_t>(routing) * 4096 +
                                   static_cast<std::uint64_t>(k));
      slot.emplace();
      // Like the MCF cells, packet-sim cells lend the batch's idle workers
      // to their own engine (the sharded event loop when s.sim.shards > 1).
      if (record_telemetry) {
        sim::Telemetry rec(sim::TelemetryConfig{scenario.sim.telemetry_epoch_ns});
        slot->res =
            sim::run_workload(topology(), tm, scenario.sim, routes(), sim_rng, budget, &rec);
        slot->data = rec.take_dataset();
      } else {
        slot->res = sim::run_workload(topology(), tm, scenario.sim, routes(), sim_rng, budget);
      }
    }
    return *slot;
  }

  // One growth plan per cell, shared by however many expansion metrics the
  // scenario requests; bisection is scored only when some metric reads it.
  const expansion::GrowthPlan& growth() {
    if (!growth_plan) {
      growth_plan = Engine::growth_plan(scenario, topo, seed,
                                        scenario_needs(scenario, kNeedsGrowthBisection), budget);
    }
    return *growth_plan;
  }
};

namespace {

// --- fluid throughput ---

// Failure robustness (Fig. 8) shared by both fluid-throughput metrics: a
// commodity whose endpoints are in different components counts as a
// zero-throughput flow — the solver runs on the reachable commodities and
// the resulting rate is scaled by their demand share — instead of zeroing
// the whole concurrent allocation. On connected topologies every commodity
// survives and the scale factor is exactly 1, so this is the identity
// there. `solve` maps the live commodity set to a lambda.
template <typename Solver>
double failure_robust_throughput(const topo::Topology& topo, const traffic::TrafficMatrix& tm,
                                 const Solver& solve) {
  const auto commodities = traffic::to_switch_commodities(topo, tm);
  const auto comp = graph::connected_components(topo.switches());
  double total_demand = 0.0, reachable_demand = 0.0;
  std::vector<traffic::Commodity> live;
  live.reserve(commodities.size());
  for (const auto& c : commodities) {
    total_demand += c.demand;
    if (comp[static_cast<std::size_t>(c.src_switch)] ==
        comp[static_cast<std::size_t>(c.dst_switch)]) {
      live.push_back(c);
      reachable_demand += c.demand;
    }
  }
  if (live.empty() || total_demand <= 0.0) return 0.0;
  return std::min(1.0, solve(live)) * (reachable_demand / total_demand);
}

// Weighted server-pair path-length CDF: P[server-to-server hops <= L],
// where hops = switch distance + 2 host links (Fig. 1(c)).
std::map<int, double> server_path_cdf(const topo::Topology& t) {
  std::map<int, double> hist;  // server path length -> weighted pair count
  double total = 0.0;
  for (topo::NodeId s = 0; s < t.num_switches(); ++s) {
    if (t.servers_at(s) == 0) continue;
    auto dist = graph::bfs_distances(t.switches(), s);
    for (topo::NodeId v = 0; v < t.num_switches(); ++v) {
      if (dist[v] == graph::kUnreachable) continue;
      double pairs = static_cast<double>(t.servers_at(s)) * t.servers_at(v);
      if (s == v) pairs = static_cast<double>(t.servers_at(s)) * (t.servers_at(s) - 1);
      if (pairs <= 0) continue;
      hist[dist[v] + 2] += pairs;  // +2 for the two server-ToR hops
      total += pairs;
    }
  }
  std::map<int, double> cdf;
  double cum = 0.0;
  for (const auto& [len, cnt] : hist) {
    cum += cnt;
    cdf[len] = cum / total;
  }
  return cdf;
}

// --- kernels ---

void path_stats(MetricCell& c) {
  auto stats = graph::path_length_stats(c.topology().switches());
  c.emit("mean_path", 0, stats.mean);
  c.emit("diameter", 0, static_cast<double>(stats.diameter));
}

void server_cdf(MetricCell& c) {
  auto cdf = server_path_cdf(c.topology());
  for (int len = 2; len <= 6; ++len) {
    double v = 0.0;
    for (const auto& [l, f] : cdf) {
      if (l <= len) v = f;
    }
    c.emit("server_cdf_le" + std::to_string(len), 0, v);
  }
}

void throughput(MetricCell& c) {
  for (int k = 0; k < c.scenario.samples_per_seed; ++k) {
    auto tm = c.traffic(k);
    c.emit("throughput", k,
           failure_robust_throughput(
               c.topology(), tm, [&](const std::vector<traffic::Commodity>& live) {
                 return flow::max_concurrent_flow(c.topology().switches(), live,
                                                  c.scenario.mcf, c.budget)
                     .lambda;
               }));
  }
}

void bisection(MetricCell& c) {
  Rng br = c.stream(kBisectionStream);
  c.emit("bisection", 0, flow::normalized_bisection(c.topology(), br));
}

void routed_throughput(MetricCell& c) {
  for (int k = 0; k < c.scenario.samples_per_seed; ++k) {
    auto tm = c.traffic(k);
    // The restricted solver would otherwise hard-zero the allocation on the
    // first pair the scheme cannot route.
    c.emit("routed_throughput", k,
           failure_robust_throughput(
               c.topology(), tm, [&](const std::vector<traffic::Commodity>& live) {
                 return flow::restricted_max_concurrent_flow(c.topology().switches(), live,
                                                             c.routes(), c.scenario.mcf)
                     .lambda;
               }));
  }
}

void link_diversity(MetricCell& c) {
  const topo::Topology& topo = c.topology();
  flow::LinkIndex links(topo.switches());
  for (int k = 0; k < c.scenario.samples_per_seed; ++k) {
    auto tm = c.traffic(k);
    std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
    pairs.reserve(tm.flows.size());
    for (const auto& f : tm.flows) {
      pairs.emplace_back(topo.server_switch(f.src_server), topo.server_switch(f.dst_server));
    }
    auto counts = routing::link_path_counts(links, pairs, c.routes());
    auto r = routing::ranked(counts);
    double mean = 0.0;
    for (int n : r) mean += n;
    mean /= static_cast<double>(r.empty() ? 1 : r.size());
    c.emit("div_frac_le2", k, routing::fraction_at_or_below(counts, 2));
    c.emit("div_mean", k, mean);
    if (r.empty()) continue;
    c.emit("div_p50", k, static_cast<double>(r[r.size() / 2]));
    c.emit("div_p90", k, static_cast<double>(r[r.size() * 9 / 10]));
    c.emit("div_max", k, static_cast<double>(r.back()));
    // Ranked series sampled at deciles (Fig. 9's x-axis is link rank).
    for (int pct = 0; pct <= 100; pct += 10) {
      const std::size_t idx =
          std::min(r.size() - 1, r.size() * static_cast<std::size_t>(pct) / 100);
      c.emit("div_rank_p" + std::to_string(pct), k, static_cast<double>(r[idx]));
    }
  }
}

void packet_sim(MetricCell& c) {
  for (int k = 0; k < c.scenario.samples_per_seed; ++k) {
    const sim::WorkloadResult& res = c.sim_run(k).res;
    c.emit("sim_goodput", k, res.mean_flow_throughput);
    c.emit("sim_fairness", k, res.jain_fairness);
    c.emit("sim_drops", k, static_cast<double>(res.packet_drops));
  }
}

void flow_stats(MetricCell& c) {
  for (int k = 0; k < c.scenario.samples_per_seed; ++k) {
    const MetricCell::SimRun& run = c.sim_run(k);
    const auto fct = sim::flow_completion_seconds(run.data);
    c.emit("fct_p50", k, percentile(fct, 50.0));
    c.emit("fct_p99", k, percentile(fct, 99.0));
    // Per-flow throughput spread — the paper's Figs. 10-12 compare these
    // flow-by-flow across routings over the *same* matrices (traffic_rng is
    // routing-independent), so min/percentile gaps are paired comparisons,
    // not independent draws.
    c.emit("flow_tput_min", k, summarize(run.res.per_flow).min);
    c.emit("flow_tput_p10", k, percentile(run.res.per_flow, 10.0));
    c.emit("flow_tput_p50", k, percentile(run.res.per_flow, 50.0));
    c.emit("flow_tput_p90", k, percentile(run.res.per_flow, 90.0));
    std::int64_t completed = 0;
    for (const auto& f : run.data.flows) completed += f.completed ? 1 : 0;
    c.emit("flows_completed", k, static_cast<double>(completed));
    std::vector<double> util;
    util.reserve(run.data.links.size());
    double hot_drops = 0.0;
    for (const auto& link : run.data.links) {
      util.push_back(sim::link_run_utilization(link, run.data.t_end_ns));
      std::int64_t drops = 0;
      for (const auto& e : link.epochs) drops += e.drops;
      hot_drops = std::max(hot_drops, static_cast<double>(drops));
    }
    c.emit("link_util_mean", k, summarize(util).mean);
    c.emit("link_util_p99", k, percentile(util, 99.0));
    c.emit("link_util_max", k, summarize(util).max);
    c.emit("hot_link_drops", k, hot_drops);
  }
}

void cabling(MetricCell& c) {
  const topo::Topology& topo = c.topology();
  auto placement = layout::place(topo, c.scenario.cabling_placement);
  auto stats = layout::analyze_cabling(topo, placement, expansion::CostModel{});
  c.emit("cable_switch_count", 0, static_cast<double>(stats.switch_cables));
  c.emit("cable_server_count", 0, static_cast<double>(stats.server_cables));
  c.emit("cable_total_m", 0, stats.total_length_m);
  c.emit("cable_mean_switch_m", 0, stats.mean_switch_cable_m);
  c.emit("cable_optical_frac", 0, stats.optical_fraction);
  c.emit("cable_bundles", 0, static_cast<double>(stats.bundles));
  c.emit("cable_cost", 0, stats.material_cost);
}

void min_ports(MetricCell& c) {
  const TopologySpec& spec = c.spec;
  std::size_t ports = 0;
  if (spec.family == "fattree") {
    check(spec.fattree_k >= 2, "kMinPorts: fattree needs fattree_k >= 2");
    const int servers = spec.servers > 0 ? spec.servers : topo::fattree_servers(spec.fattree_k);
    ports = flow::fattree_min_ports_full_bisection(servers, {&spec.fattree_k, 1});
  } else if (spec.family == "jellyfish") {
    check(spec.servers > 0 && spec.ports > 0, "kMinPorts: jellyfish needs servers and ports");
    ports = flow::jellyfish_min_ports_full_bisection(spec.servers, spec.ports);
  } else {
    check(false, "kMinPorts: only jellyfish and fattree families are supported");
  }
  c.emit("min_ports", 0, static_cast<double>(ports));
}

void capacity(MetricCell& c) {
  const TopologySpec& spec = c.spec;
  if (spec.family == "fattree") {
    check(spec.fattree_k >= 2, "kCapacity: fattree needs fattree_k >= 2");
    c.emit("max_servers", 0, static_cast<double>(topo::fattree_servers(spec.fattree_k)));
  } else if (spec.family == "jellyfish") {
    check(spec.switches >= 2 && spec.ports >= 1,
          "kCapacity: jellyfish needs switches and ports");
    Rng cr = c.stream(kCapacityStream);
    c.emit("max_servers", 0,
           static_cast<double>(flow::max_servers_at_full_capacity(
               spec.switches, spec.ports, cr, c.scenario.capacity, c.budget)));
  } else {
    check(false, "kCapacity: only jellyfish and fattree families are supported");
  }
}

// The expansion metrics report one growth plan per cell: per-step
// sub-results land as "_s<step>" series (step 0 = initial build, so they
// stay distinguishable in aggregates), plus an unsuffixed headline value for
// the whole schedule.
void expansion_cost(MetricCell& c) {
  const expansion::GrowthPlan& plan = c.growth();
  for (const auto& r : plan.steps) {
    const std::string suffix = "_s" + std::to_string(r.step);
    c.emit("expansion_cost" + suffix, r.step, r.cumulative_cost);
    c.emit("expansion_switches" + suffix, r.step, static_cast<double>(r.switches));
    c.emit("expansion_servers" + suffix, r.step, static_cast<double>(r.servers));
  }
  c.emit("expansion_cost", 0, plan.steps.back().cumulative_cost);
}

void rewired_cables(MetricCell& c) {
  const expansion::GrowthPlan& plan = c.growth();
  double rewired = 0.0, touched = 0.0;
  for (const auto& r : plan.steps) {
    const std::string suffix = "_s" + std::to_string(r.step);
    c.emit("rewired_cables" + suffix, r.step, static_cast<double>(r.cables_rewired));
    c.emit("cables_touched" + suffix, r.step, static_cast<double>(r.cables_touched));
    rewired += r.cables_rewired;
    touched += r.cables_touched;
  }
  c.emit("rewired_cables", 0, rewired);
  c.emit("cables_touched", 0, touched);
}

void expansion_bisection(MetricCell& c) {
  const expansion::GrowthPlan& plan = c.growth();
  for (const auto& r : plan.steps) {
    c.emit("expansion_bisection_s" + std::to_string(r.step), r.step, r.normalized_bisection);
  }
  c.emit("expansion_bisection", 0, plan.steps.back().normalized_bisection);
}

// --- the registry ---

constexpr unsigned kRouted = kNeedsRouting | kNeedsBuild;

constexpr MetricInfo kMetrics[] = {
    {Metric::kPathStats, "path_stats",
     "mean inter-switch path length and diameter (routing-free)", kNeedsBuild, path_stats},
    {Metric::kServerCdf, "server_cdf",
     "server-pair path-length CDF, server_cdf_le{2..6} (Fig. 1c)", kNeedsBuild, server_cdf},
    {Metric::kThroughput, "throughput",
     "fluid MCF throughput under optimal routing (failure-robust)", kNeedsBuild, throughput},
    {Metric::kBisection, "bisection",
     "normalized bisection bandwidth (analytic RRG bound or KL cut)", kNeedsBuild, bisection},
    {Metric::kRoutedThroughput, "routed_throughput",
     "fluid MCF restricted to the routing scheme's path sets", kRouted | kNeedsPaths,
     routed_throughput},
    {Metric::kLinkDiversity, "link_diversity", "paths-per-link distribution, div_* (Fig. 9)",
     kRouted | kNeedsPaths, link_diversity},
    {Metric::kPacketSim, "packet_sim", "packet-level sim_goodput/sim_fairness/sim_drops",
     kRouted | kNeedsSim, packet_sim},
    {Metric::kFlowStats, "flow_stats",
     "per-flow telemetry: fct_p50/p99, flow_tput_*, link_util_* (Figs. 10-12)",
     kRouted | kNeedsSim | kNeedsTelemetry, flow_stats},
    {Metric::kCabling, "cabling", "cable counts, lengths, and material cost via layout (§6)",
     kNeedsBuild, cabling},
    {Metric::kMinPorts, "min_ports", "min total ports at full bisection, spec-only (Fig. 2b)", 0,
     min_ports},
    {Metric::kCapacity, "capacity", "max servers at full capacity via binary search (Fig. 2c)",
     0, capacity},
    // The expansion metrics grow their own network from Scenario::growth;
    // the cell's TopologySpec is never built.
    {Metric::kExpansionCost, "expansion_cost",
     "growth schedule: cumulative cost/switches/servers per step (Fig. 7)", kNeedsGrowth,
     expansion_cost},
    {Metric::kRewiredCables, "rewired_cables",
     "growth schedule: cables moved and touched per step (§6)", kNeedsGrowth, rewired_cables},
    {Metric::kExpansionBisection, "expansion_bisection",
     "growth schedule: normalized bisection after every step (Fig. 7)",
     kNeedsGrowth | kNeedsGrowthBisection, expansion_bisection},
};

constexpr bool rows_follow_enum_order() {
  for (std::size_t i = 0; i < std::size(kMetrics); ++i) {
    if (static_cast<std::size_t>(kMetrics[i].metric) != i) return false;
  }
  return std::size(kMetrics) == static_cast<std::size_t>(Metric::kExpansionBisection) + 1;
}
static_assert(rows_follow_enum_order(), "kMetrics must list every Metric, in enum order");

}  // namespace

std::span<const MetricInfo> metric_table() { return kMetrics; }

const MetricInfo& metric_info(Metric m) { return kMetrics[static_cast<std::size_t>(m)]; }

Metric metric_from_name(const std::string& name) {
  for (const MetricInfo& row : kMetrics) {
    if (row.name == name) return row.metric;
  }
  check(false, "metric_from_name: unknown metric '" + name + "'");
  return Metric::kPathStats;
}

std::vector<Sample> evaluate_cell(const Scenario& s, int topo, int routing, std::uint64_t seed,
                                  const topo::Topology* shared_topology,
                                  routing::PathProvider* shared_routes,
                                  parallel::WorkBudget* budget,
                                  std::vector<CellTelemetry>* telemetry) {
  MetricCell c{.scenario = s,
               .spec = s.topologies[static_cast<std::size_t>(topo)],
               .topo = topo,
               .routing = routing,
               .seed = seed,
               .budget = budget,
               .shared_topology = shared_topology,
               .shared_routes = shared_routes,
               .record_telemetry = telemetry != nullptr || scenario_needs(s, kNeedsTelemetry)};
  for (Metric m : s.metrics) {
    const MetricInfo& info = metric_info(m);
    if (info.has(kNeedsRouting) == (routing >= 0)) info.kernel(c);
  }
  if (telemetry != nullptr) {
    for (std::size_t k = 0; k < c.sim_runs.size(); ++k) {
      if (!c.sim_runs[k]) continue;
      telemetry->push_back(
          {topo, routing, seed, static_cast<int>(k), std::move(c.sim_runs[k]->data)});
    }
  }
  return std::move(c.samples);
}

}  // namespace jf::eval
