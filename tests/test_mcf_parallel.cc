// flow/mcf: decision mode (decide_threshold certificates), disconnected
// commodities, the log-space initial-length fix for tiny epsilon,
// bit-identity of the parallel solver vs the serial path at several thread
// counts, golden values pinned against the per-commodity-Dijkstra solver,
// and the per-source tree work counters.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "flow/mcf.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "topo/fattree.h"
#include "topo/jellyfish.h"
#include "traffic/traffic.h"

namespace jf::flow {
namespace {

McfResult solve_with_threads(const graph::Graph& g, const std::vector<Commodity>& cs,
                             const McfOptions& opts, int threads) {
  if (threads <= 1) return max_concurrent_flow(g, cs, opts);
  parallel::WorkBudget budget(threads - 1);
  return max_concurrent_flow(g, cs, opts, &budget);
}

TEST(McfParallel, BitIdenticalAcrossThreadCounts) {
  Rng rng(42);
  auto topo = topo::build_jellyfish(
      {.num_switches = 30, .ports_per_switch = 10, .network_degree = 6}, rng);
  auto tm = traffic::random_permutation(topo.num_servers(), rng);
  auto cs = traffic::to_switch_commodities(topo, tm);

  const auto serial = solve_with_threads(topo.switches(), cs, {}, 1);
  EXPECT_GT(serial.lambda, 0.0);
  for (int threads : {2, 8}) {
    const auto parallel = solve_with_threads(topo.switches(), cs, {}, threads);
    // Bit-for-bit: the epoch-batched round schedule is identical at any
    // worker count, so every floating-point operation happens in the same
    // order.
    EXPECT_EQ(serial.lambda, parallel.lambda) << threads;
    EXPECT_EQ(serial.lambda_upper, parallel.lambda_upper) << threads;
    EXPECT_EQ(serial.phases, parallel.phases) << threads;
    EXPECT_EQ(serial.decided_above, parallel.decided_above) << threads;
    EXPECT_EQ(serial.decided_below, parallel.decided_below) << threads;
  }
}

TEST(McfParallel, DecisionModeBitIdenticalAcrossThreadCounts) {
  auto ft = topo::build_fattree(4);
  Rng rng(7);
  auto tm = traffic::random_permutation(ft.num_servers(), rng);
  auto cs = traffic::to_switch_commodities(ft, tm);
  McfOptions opts;
  opts.decide_threshold = 0.9;
  const auto serial = solve_with_threads(ft.switches(), cs, opts, 1);
  const auto parallel = solve_with_threads(ft.switches(), cs, opts, 8);
  EXPECT_EQ(serial.lambda, parallel.lambda);
  EXPECT_EQ(serial.phases, parallel.phases);
  EXPECT_EQ(serial.decided_above, parallel.decided_above);
  EXPECT_EQ(serial.decided_below, parallel.decided_below);
}

// A path 0 - 1 - 2 with both 0->2 and 1->2 at unit demand: arc 1->2 carries
// both commodities, so lambda* = 0.5 exactly.
// Golden results, recorded as hexfloats from the solver that ran one
// early-exit Dijkstra per commodity. One tree per source must reproduce them
// bit for bit: the heap order (dist, node id) makes the pop sequence up to a
// target independent of the tree's other targets. Comparing the solver only
// against itself at other thread counts cannot catch a grouping bug that
// shifts every thread count alike; these pins can.
struct Golden {
  double lambda;
  double lambda_upper;
  int phases;
  bool decided_above;
  bool decided_below;
};

void expect_golden(const graph::Graph& g, const std::vector<Commodity>& cs,
                   const McfOptions& opts, const Golden& want) {
  for (int threads : {1, 4}) {
    const auto res = solve_with_threads(g, cs, opts, threads);
    EXPECT_EQ(res.lambda, want.lambda) << threads;
    EXPECT_EQ(res.lambda_upper, want.lambda_upper) << threads;
    EXPECT_EQ(res.phases, want.phases) << threads;
    EXPECT_EQ(res.decided_above, want.decided_above) << threads;
    EXPECT_EQ(res.decided_below, want.decided_below) << threads;
  }
}

// Five switches: a ring 0-1-2-3-4-0 plus chords 0-2 and 1-3.
graph::Graph ring_with_chords() {
  graph::Graph g(5);
  for (auto [u, v] : {std::pair{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2}, {1, 3}}) {
    g.add_edge(u, v);
  }
  return g;
}

TEST(McfGolden, JellyfishPermutation) {
  Rng rng(42);
  auto topo = topo::build_jellyfish(
      {.num_switches = 30, .ports_per_switch = 10, .network_degree = 6}, rng);
  auto tm = traffic::random_permutation(topo.num_servers(), rng);
  auto cs = traffic::to_switch_commodities(topo, tm);
  ASSERT_EQ(cs.size(), 113u);
  expect_golden(topo.switches(), cs, {},
                {0x1.4f0f0f0f0f0f1p-1, 0x1.6baee258b43c5p-1, 100, false, false});
}

TEST(McfGolden, FatTreeK4) {
  auto ft = topo::build_fattree(4);
  Rng rng(7);
  auto tm = traffic::random_permutation(ft.num_servers(), rng);
  auto cs = traffic::to_switch_commodities(ft, tm);
  ASSERT_EQ(cs.size(), 14u);
  expect_golden(ft.switches(), cs, {},
                {0x1.f89467e2519f9p-1, 0x1.133c97c78fa42p+0, 70, false, false});
}

TEST(McfGolden, InterleavedSourcesAndRepeatedPair) {
  // Sources arrive interleaved (0, 1, 0, 0, 4), and (0, 3) appears twice,
  // so one tree serves a target listed twice.
  const std::vector<Commodity> cs = {
      {0, 3, 1.0}, {1, 2, 1.0}, {0, 2, 1.0}, {0, 3, 0.5}, {4, 1, 0.75}};
  expect_golden(ring_with_chords(), cs, {},
                {0x1.c71c71c71c71cp-1, 0x1.5c978c9beb213p+0, 20, false, false});
}

TEST(McfGolden, DecisionModeFatTree) {
  auto ft = topo::build_fattree(4);
  Rng rng(7);
  auto tm = traffic::random_permutation(ft.num_servers(), rng);
  auto cs = traffic::to_switch_commodities(ft, tm);
  McfOptions opts;
  opts.decide_threshold = 0.9;
  expect_golden(ft.switches(), cs, opts,
                {0x1.d1745d1745d17p-1, 0x1.1af60faf07999p+0, 10, true, false});
}

// One phase on the ring: every commodity fits its first path (demand <=
// capacity), so the solve is one round plus the closing dual sweep. Each
// sweep grows one tree per distinct source (0, 1, 4), not one per commodity.
TEST(McfWork, OneTreePerSourcePerSweep) {
  const std::vector<Commodity> cs = {
      {0, 3, 1.0}, {1, 2, 1.0}, {0, 2, 1.0}, {0, 3, 0.5}, {4, 1, 0.75}};
  McfOptions opts;
  opts.max_phases = 1;
  obs::Counter& rounds = obs::counter("mcf.rounds");
  obs::Counter& trees = obs::counter("mcf.trees");
  obs::Counter& settled = obs::counter("mcf.nodes_settled");
  for (int threads : {1, 4}) {
    const std::int64_t rounds0 = rounds.value();
    const std::int64_t trees0 = trees.value();
    const std::int64_t settled0 = settled.value();
    obs::set_metrics_enabled(true);
    const auto res = solve_with_threads(ring_with_chords(), cs, opts, threads);
    obs::set_metrics_enabled(false);
    EXPECT_EQ(res.phases, 1) << threads;
    EXPECT_EQ(rounds.value() - rounds0, 1) << threads;
    EXPECT_EQ(trees.value() - trees0, 2 * 3) << threads;
    // Every tree settles at least its root and its targets, never more
    // than the whole graph.
    const std::int64_t nodes = settled.value() - settled0;
    EXPECT_GE(nodes, 2 * (3 + 2 + 2 + 2)) << threads;
    EXPECT_LE(nodes, 2 * 3 * 5) << threads;
  }
}

TEST(McfDecision, DecidesAboveAndBelowWithCertificates) {
  graph::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  std::vector<Commodity> cs = {{0, 2, 1.0}, {1, 2, 1.0}};

  McfOptions above;
  above.decide_threshold = 0.3;  // well under lambda* = 0.5
  auto res = max_concurrent_flow(g, cs, above);
  EXPECT_TRUE(res.decided_above);
  EXPECT_FALSE(res.decided_below);
  EXPECT_GE(res.lambda, 0.3);

  McfOptions below;
  below.decide_threshold = 0.9;  // well over lambda* = 0.5
  res = max_concurrent_flow(g, cs, below);
  EXPECT_TRUE(res.decided_below);
  EXPECT_FALSE(res.decided_above);
  EXPECT_LT(res.lambda_upper, 0.9);
  // The dual certificate stays a true upper bound on lambda* = 0.5.
  EXPECT_GE(res.lambda_upper, 0.5 - 1e-9);
}

TEST(McfDecision, ThresholdZeroDecidesAboveImmediately) {
  graph::Graph g(2);
  g.add_edge(0, 1);
  std::vector<Commodity> cs = {{0, 1, 1.0}};
  McfOptions opts;
  opts.decide_threshold = 0.0;
  const auto res = max_concurrent_flow(g, cs, opts);
  EXPECT_TRUE(res.decided_above);
}

TEST(McfDisconnected, UnreachableCommodityYieldsZeroLambda) {
  graph::Graph g(4);  // two components: {0,1} and {2,3}
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  std::vector<Commodity> cs = {{0, 1, 1.0}, {0, 2, 1.0}};
  const auto res = max_concurrent_flow(g, cs, {});
  EXPECT_EQ(res.lambda, 0.0);
  EXPECT_EQ(res.lambda_upper, 0.0);
  EXPECT_FALSE(res.decided_below);  // no threshold: no decision claimed

  McfOptions decide;
  decide.decide_threshold = 0.5;
  const auto decided = max_concurrent_flow(g, cs, decide);
  EXPECT_EQ(decided.lambda, 0.0);
  EXPECT_TRUE(decided.decided_below);
  EXPECT_FALSE(decided.decided_above);

  // Also bit-identical under parallel execution (the disconnect is found
  // during a parallel sweep but reported from the canonical apply order).
  const auto parallel = solve_with_threads(g, cs, {}, 8);
  EXPECT_EQ(parallel.lambda, 0.0);
  EXPECT_EQ(parallel.lambda_upper, 0.0);

  // No links at all (e.g. every cable failed): the same certificate.
  const graph::Graph edgeless(3);
  const std::vector<Commodity> lone = {{0, 1, 1.0}};
  const auto none = max_concurrent_flow(edgeless, lone, {});
  EXPECT_EQ(none.lambda, 0.0);
  EXPECT_EQ(none.lambda_upper, 0.0);
  EXPECT_FALSE(none.decided_below);
  const auto none_decided = max_concurrent_flow(edgeless, lone, decide);
  EXPECT_EQ(none_decided.lambda, 0.0);
  EXPECT_EQ(none_decided.lambda_upper, 0.0);
  EXPECT_TRUE(none_decided.decided_below);
  EXPECT_FALSE(none_decided.decided_above);
}

TEST(GkInitialLength, MatchesPowWherePowIsSafe) {
  const std::size_t m = 100;
  const double eps = 0.1;
  const double direct = std::pow(static_cast<double>(m) / (1.0 - eps), -1.0 / eps);
  EXPECT_NEAR(gk_initial_length(m, eps, 1.0), direct, direct * 1e-12);
  EXPECT_NEAR(gk_initial_length(m, eps, 4.0), direct / 4.0, direct * 1e-12);
}

TEST(GkInitialLength, SmallEpsilonOnLargeGraphsStaysPositive) {
  // The direct pow underflows to exactly 0 here; the log-space version must
  // stay a positive normal double.
  const std::size_t m = 4096;
  const double eps = 0.01;
  EXPECT_EQ(std::pow(static_cast<double>(m) / (1.0 - eps), -1.0 / eps), 0.0);
  const double len = gk_initial_length(m, eps, 1.0);
  EXPECT_GT(len, 0.0);
  EXPECT_GE(len, std::numeric_limits<double>::min());  // normal, not denormal
  EXPECT_THROW(gk_initial_length(0, eps, 1.0), std::invalid_argument);
  EXPECT_THROW(gk_initial_length(m, 0.6, 1.0), std::invalid_argument);
  EXPECT_THROW(gk_initial_length(m, eps, 0.0), std::invalid_argument);
}

TEST(McfSmallEpsilon, SolverSurvivesUnderflowRegime) {
  // 12 switches x degree 5 = 30 edges = 60 arcs; (60/0.995)^(-200)
  // underflows, so the old initializer zeroed every arc length and the dual
  // bound collapsed to D = 0. With log-space lengths the solve must produce
  // a positive certified primal under a finite, consistent dual.
  Rng rng(9);
  auto topo = topo::build_jellyfish(
      {.num_switches = 12, .ports_per_switch = 8, .network_degree = 5}, rng);
  auto tm = traffic::random_permutation(topo.num_servers(), rng);
  auto cs = traffic::to_switch_commodities(topo, tm);
  McfOptions opts;
  opts.epsilon = 0.005;
  opts.max_phases = 60;
  const auto res = max_concurrent_flow(topo.switches(), cs, opts);
  EXPECT_GT(res.lambda, 0.0);
  EXPECT_TRUE(std::isfinite(res.lambda_upper));
  EXPECT_GT(res.lambda_upper, 0.0);
  EXPECT_LE(res.lambda, res.lambda_upper * (1.0 + 1e-9));
}

TEST(McfOptionsChecks, RejectsDegenerateRanges) {
  graph::Graph g(2);
  g.add_edge(0, 1);
  std::vector<Commodity> cs = {{0, 1, 1.0}};
  McfOptions opts;
  opts.max_phases = 0;
  EXPECT_THROW(max_concurrent_flow(g, cs, opts), std::invalid_argument);
  opts = {};
  opts.convergence_window = 0;
  EXPECT_THROW(max_concurrent_flow(g, cs, opts), std::invalid_argument);
  opts = {};
  opts.convergence_tol = -1.0;
  EXPECT_THROW(max_concurrent_flow(g, cs, opts), std::invalid_argument);
}

}  // namespace
}  // namespace jf::flow
