// jf::eval engine: scenario execution, thread-count determinism, paper
// behaviours run as scenarios, and registry extensibility.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>

#include "eval/engine.h"
#include "eval/serialize.h"
#include "eval/topology_factory.h"

namespace jf {
namespace {

eval::Scenario small_scenario() {
  eval::Scenario s;
  s.name = "test";
  s.topologies = {
      {.family = "jellyfish", .switches = 16, .ports = 6, .servers = 32},
      {.family = "fattree", .fattree_k = 4},
  };
  s.routings = {{"ecmp", 4}, {"ksp", 4}};
  s.metrics = {eval::Metric::kPathStats, eval::Metric::kThroughput,
               eval::Metric::kRoutedThroughput};
  s.seeds = {1, 2, 3, 4, 5, 6, 7, 8};
  return s;
}

// The acceptance bar for the batch runner: the same scenario + seed list
// yields an identical Report regardless of thread count.
TEST(EvalEngine, ReportIdenticalAcrossThreadCounts) {
  const auto s = small_scenario();
  const auto serial = eval::Engine({.threads = 1}).run(s);
  const auto parallel = eval::Engine({.threads = 4}).run(s);

  ASSERT_EQ(serial.samples.size(), parallel.samples.size());
  EXPECT_GT(serial.samples.size(), 0u);
  for (std::size_t i = 0; i < serial.samples.size(); ++i) {
    const auto& a = serial.samples[i];
    const auto& b = parallel.samples[i];
    EXPECT_EQ(a.topology, b.topology);
    EXPECT_EQ(a.routing, b.routing);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.sample, b.sample);
    EXPECT_EQ(a.metric, b.metric);
    EXPECT_EQ(a.value, b.value);  // exact: identical RNG streams, bit-equal
  }
  EXPECT_EQ(serial.topology_labels, parallel.topology_labels);
  EXPECT_EQ(serial.routing_labels, parallel.routing_labels);
}

TEST(EvalEngine, RunsRepeatIdentically) {
  const auto s = small_scenario();
  const auto a = eval::Engine({.threads = 3}).run(s);
  const auto b = eval::Engine({.threads = 3}).run(s);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].value, b.samples[i].value);
  }
}

// Paper Fig. 8: failing 15% of the links degrades throughput gracefully.
// The two scenarios share the topology row index and seed, so they build the
// same graph and sample the same matrices; only the failures differ.
TEST(EvalEngine, FailedLinksDegradeGracefully) {
  eval::Scenario intact;
  intact.topologies = {{.family = "jellyfish", .switches = 30, .ports = 10, .servers = 90}};
  intact.metrics = {eval::Metric::kThroughput};
  intact.seeds = {5};
  intact.samples_per_seed = 2;
  eval::Scenario failed = intact;
  failed.topologies[0].fail_links = 0.15;

  const eval::Engine engine({.threads = 2});
  const double before = summarize(engine.run(intact).series(0, -1, "throughput")).mean;
  const double after = summarize(engine.run(failed).series(0, -1, "throughput")).mean;
  EXPECT_GT(before, 0.0);
  EXPECT_GT(after, before * 0.6);
  EXPECT_LE(after, before + 0.1);
}

// A well-provisioned network beats an oversubscribed one on the same
// switches under both the fluid solver and the packet simulator.
TEST(EvalEngine, FluidAndPacketAgreeOnOrdering) {
  eval::Scenario s;
  s.topologies = {
      {.family = "jellyfish", .label = "rich", .switches = 12, .ports = 10, .servers = 24},
      {.family = "jellyfish", .label = "poor", .switches = 12, .ports = 10, .servers = 84},
  };
  s.routings = {{"ksp", 4}};
  s.metrics = {eval::Metric::kThroughput, eval::Metric::kPacketSim};
  s.seeds = {8};
  s.samples_per_seed = 2;
  s.sim.transport = sim::Transport::kMptcp;
  s.sim.subflows = 4;
  s.sim.warmup_ns = 2 * sim::kMillisecond;
  s.sim.measure_ns = 8 * sim::kMillisecond;
  const auto report = eval::Engine({.threads = 2}).run(s);
  auto mean = [&](int topo, int routing, const std::string& metric) {
    return summarize(report.series(topo, routing, metric)).mean;
  };
  EXPECT_GT(mean(0, -1, "throughput"), mean(1, -1, "throughput"));
  EXPECT_GT(mean(0, 0, "sim_goodput"), mean(1, 0, "sim_goodput"));
}

TEST(EvalEngine, CrossProductCoversEveryCell) {
  auto s = small_scenario();
  s.seeds = {5, 6};
  const auto report = eval::Engine({.threads = 2}).run(s);

  // Routing-free series: one value per seed per topology.
  for (int t = 0; t < 2; ++t) {
    EXPECT_EQ(report.series(t, -1, "throughput").size(), 2u);
    EXPECT_EQ(report.series(t, -1, "mean_path").size(), 2u);
    // Routing-dependent series: one per (routing, seed).
    for (int r = 0; r < 2; ++r) {
      EXPECT_EQ(report.series(t, r, "routed_throughput").size(), 2u);
    }
  }
  // Aggregates exist for every (topology, routing, metric) combination.
  EXPECT_EQ(report.aggregates().size(),
            2u * (2u /*path_stats*/ + 1u /*throughput*/) + 2u * 2u /*routed*/);

  // Traffic matrices are shared across routing schemes, so a scheme offered
  // strictly more paths can't do worse than the optimum, and no scheme can
  // beat unrestricted MCF by more than solver tolerance.
  for (int t = 0; t < 2; ++t) {
    const auto optimal = report.series(t, -1, "throughput");
    for (int r = 0; r < 2; ++r) {
      const auto routed = report.series(t, r, "routed_throughput");
      for (std::size_t i = 0; i < routed.size(); ++i) {
        EXPECT_LE(routed[i], optimal[i] + 0.12);
      }
    }
  }
}

TEST(EvalEngine, SameTopologyAcrossRoutingCells) {
  // kPathStats is routing-free; the guarantee that routing cells rebuild the
  // *same* topology shows up as routed ksp-8 tracking optimal closely on a
  // well-provisioned jellyfish.
  eval::Scenario s;
  s.topologies = {{.family = "jellyfish", .switches = 16, .ports = 8, .servers = 16}};
  s.routings = {{"ksp", 8}};
  s.metrics = {eval::Metric::kThroughput, eval::Metric::kRoutedThroughput};
  s.seeds = {42};
  const auto report = eval::Engine({.threads = 1}).run(s);
  const double optimal = report.series(0, -1, "throughput").at(0);
  const double routed = report.series(0, 0, "routed_throughput").at(0);
  EXPECT_GT(optimal, 0.9);
  EXPECT_GT(routed, 0.75);
}

TEST(EvalEngine, UnknownFamilyAndSchemeThrow) {
  eval::Scenario s;
  s.topologies = {{.family = "hypercube"}};
  s.seeds = {1};
  EXPECT_THROW(eval::Engine({.threads = 1}).run(s), std::invalid_argument);

  eval::Scenario s2;
  s2.topologies = {{.family = "fattree", .fattree_k = 4}};
  s2.routings = {{"segment-routing", 4}};
  s2.metrics = {eval::Metric::kRoutedThroughput};
  s2.seeds = {1};
  EXPECT_THROW(eval::Engine({.threads = 1}).run(s2), std::invalid_argument);
}

TEST(EvalEngine, CustomFamilyAndSchemeRegister) {
  eval::register_topology_family("test-clique", [](const eval::TopologySpec& spec, Rng&) {
    graph::Graph g(spec.switches);
    for (graph::NodeId a = 0; a < spec.switches; ++a) {
      for (graph::NodeId b = a + 1; b < spec.switches; ++b) g.add_edge(a, b);
    }
    std::vector<int> ports(static_cast<std::size_t>(spec.switches), spec.ports);
    std::vector<int> servers(static_cast<std::size_t>(spec.switches), 1);
    return topo::Topology("clique", std::move(g), std::move(ports), std::move(servers));
  });
  routing::register_path_provider(
      "single-shortest", [](const graph::Graph& g, const routing::RoutingSpec&) {
        return routing::make_path_provider(g, routing::RoutingSpec{"ksp", 1});
      });

  eval::Scenario s;
  s.topologies = {{.family = "test-clique", .switches = 6, .ports = 8}};
  s.routings = {{"single-shortest", 1}};
  s.metrics = {eval::Metric::kPathStats, eval::Metric::kRoutedThroughput};
  s.seeds = {1};
  const auto report = eval::Engine({.threads = 1}).run(s);
  EXPECT_EQ(summarize(report.series(0, -1, "mean_path")).mean, 1.0);
  EXPECT_GT(report.series(0, 0, "routed_throughput").at(0), 0.0);
}

// Every metric that runs the packet simulator refuses fail_links up front:
// a disconnected pair would otherwise abort the batch mid-run (or, at low
// failure rates, silently run on a subset of the flows).
TEST(EvalEngine, SimMetricsRejectFailLinksUpFront) {
  eval::Scenario s;
  s.topologies = {{.family = "jellyfish",
                   .label = "jf-failed",
                   .switches = 12,
                   .ports = 6,
                   .servers = 24,
                   .fail_links = 0.05}};
  s.routings = {{"ksp", 4}};
  s.metrics = {eval::Metric::kFlowStats};
  try {
    eval::Engine({.threads = 1}).run(s);
    FAIL() << "flow_stats with fail_links accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("flow_stats"), std::string::npos) << msg;
    EXPECT_NE(msg.find("fail_links"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'jf-failed'"), std::string::npos) << msg;
  }
}

// The `bisection` metric on a jellyfish whose KL cut can leave every server
// on one side (3 servers on 20 switches) stays finite, so the report can be
// written as JSON.
TEST(EvalEngine, BisectionReportWritesWithFewServers) {
  eval::Scenario s;
  s.name = "bisection_few_servers";
  s.topologies = {{.family = "jellyfish", .switches = 20, .ports = 8, .servers = 3}};
  s.metrics = {eval::Metric::kBisection};
  s.seeds = {1, 2, 3, 4, 5, 6, 7, 8};
  const auto report = eval::Engine({.threads = 2}).run(s);
  ASSERT_EQ(report.samples.size(), 8u);
  for (const auto& sample : report.samples) {
    EXPECT_TRUE(std::isfinite(sample.value)) << "seed " << sample.seed;
  }
  EXPECT_NO_THROW((void)eval::report_to_json(report).dump());
}

// The metric registry is the only place a metric is spelled: every row sits
// at its enum index, its name round-trips, and its needs flags are
// consistent.
TEST(EvalEngine, MetricTableRowsAreConsistent) {
  std::set<std::string_view> names;
  const auto table = eval::metric_table();
  ASSERT_FALSE(table.empty());
  for (std::size_t i = 0; i < table.size(); ++i) {
    const eval::MetricInfo& row = table[i];
    SCOPED_TRACE(std::string(row.name));
    EXPECT_EQ(static_cast<std::size_t>(row.metric), i);
    EXPECT_EQ(&eval::metric_info(row.metric), &row);
    EXPECT_EQ(eval::metric_from_name(std::string(row.name)), row.metric);
    EXPECT_EQ(eval::metric_info(eval::metric_from_name(std::string(row.name))).name, row.name);
    EXPECT_TRUE(names.insert(row.name).second) << "duplicate metric name";
    EXPECT_FALSE(row.description.empty());
    EXPECT_NE(row.kernel, nullptr);
    // Path, sim and telemetry readers run in routed cells on a built
    // topology; growth metrics never build the cell's topology.
    if (row.needs & (eval::kNeedsPaths | eval::kNeedsSim | eval::kNeedsTelemetry)) {
      EXPECT_TRUE(row.has(eval::kNeedsRouting | eval::kNeedsBuild));
    }
    EXPECT_TRUE(!row.has(eval::kNeedsTelemetry) || row.has(eval::kNeedsSim));
    EXPECT_TRUE(!row.has(eval::kNeedsGrowthBisection) || row.has(eval::kNeedsGrowth));
    EXPECT_FALSE(row.has(eval::kNeedsGrowth) && row.has(eval::kNeedsBuild));
  }
  EXPECT_THROW(eval::metric_from_name("throughputt"), std::invalid_argument);
}

// Restricted MCF against the unrestricted optimum on the same matrix (the
// traffic stream is routing-independent).
TEST(RestrictedMcf, NeverBeatsUnrestrictedByMuchAndKspRecoversCapacity) {
  eval::Scenario s;
  s.topologies = {{.family = "jellyfish", .switches = 20, .ports = 8, .servers = 40}};
  s.routings = {{"ksp", 8}};
  s.metrics = {eval::Metric::kThroughput, eval::Metric::kRoutedThroughput};
  s.seeds = {3};
  const auto report = eval::Engine({.threads = 1}).run(s);
  const double optimal = report.series(0, -1, "throughput").at(0);
  const double restricted = report.series(0, 0, "routed_throughput").at(0);
  EXPECT_LE(restricted, optimal + 0.12);  // GK tolerance on both sides
  EXPECT_GT(restricted, 0.5 * optimal);   // 8 paths recover most capacity
}

}  // namespace
}  // namespace jf
