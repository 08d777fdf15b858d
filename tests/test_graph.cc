// Unit tests for the graph substrate: structure, BFS/APSP, components.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <set>

#include "common/rng.h"
#include "flow/bisection.h"
#include "graph/algorithms.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "topo/jellyfish.h"

namespace jf::graph {
namespace {

Graph path_graph(int n) {
  Graph g(n);
  for (int i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  return g;
}

Graph cycle_graph(int n) {
  Graph g = path_graph(n);
  g.add_edge(n - 1, 0);
  return g;
}

TEST(Graph, AddRemoveEdges) {
  Graph g(4);
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_EQ(g.num_edges(), 0u);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.degree(1), 2);
  g.remove_edge(0, 1);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(1), 1);
}

TEST(Graph, RejectsSelfLoopsAndParallelEdges) {
  Graph g(3);
  EXPECT_THROW(g.add_edge(1, 1), std::invalid_argument);
  g.add_edge(0, 1);
  EXPECT_THROW(g.add_edge(0, 1), std::invalid_argument);
  EXPECT_THROW(g.add_edge(1, 0), std::invalid_argument);
}

TEST(Graph, RejectsBadIds) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 2), std::invalid_argument);
  EXPECT_THROW(g.degree(-1), std::invalid_argument);
  EXPECT_THROW(g.remove_edge(0, 1), std::invalid_argument);
}

TEST(Graph, AddNodeGrows) {
  Graph g(1);
  NodeId v = g.add_node();
  EXPECT_EQ(v, 1);
  EXPECT_EQ(g.num_nodes(), 2);
  g.add_edge(0, v);
  EXPECT_TRUE(g.has_edge(0, 1));
}

TEST(Graph, EdgesCanonicalSorted) {
  Graph g(4);
  g.add_edge(3, 1);
  g.add_edge(2, 0);
  auto es = g.edges();
  ASSERT_EQ(es.size(), 2u);
  EXPECT_EQ(es[0], (Edge{0, 2}));
  EXPECT_EQ(es[1], (Edge{1, 3}));
}

TEST(Graph, DegreeSumInvariant) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  EXPECT_EQ(g.degree_sum(), 2 * g.num_edges());
}

TEST(Graph, RandomEdgeIsUniformish) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  Rng rng(3);
  std::map<std::pair<NodeId, NodeId>, int> seen;
  for (int i = 0; i < 3000; ++i) {
    auto e = g.random_edge(rng);
    EXPECT_TRUE(g.has_edge(e.a, e.b));
    EXPECT_LT(e.a, e.b);
    ++seen[{e.a, e.b}];
  }
  ASSERT_EQ(seen.size(), 3u);
  for (const auto& [k, count] : seen) EXPECT_GT(count, 700);  // ~1000 each
}

TEST(Graph, RandomEdgeAfterRemoval) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.remove_edge(0, 1);
  Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    auto e = g.random_edge(rng);
    EXPECT_EQ(e.a, 1);
    EXPECT_EQ(e.b, 2);
  }
}

TEST(Graph, MaxDegreeTracksMutation) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  EXPECT_EQ(g.max_degree(), 3);
  g.remove_edge(0, 1);
  EXPECT_EQ(g.max_degree(), 2);
}

TEST(Bfs, DistancesOnPath) {
  auto g = path_graph(5);
  auto d = bfs_distances(g, 0);
  EXPECT_EQ(d, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Bfs, UnreachableIsMarked) {
  Graph g(3);
  g.add_edge(0, 1);
  auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[2], kUnreachable);
}

TEST(ShortestPath, FindsPathAndHandlesTrivialCases) {
  auto g = cycle_graph(6);
  auto p = shortest_path(g, 0, 3);
  EXPECT_EQ(p.size(), 4u);  // 3 hops
  EXPECT_EQ(p.front(), 0);
  EXPECT_EQ(p.back(), 3);
  EXPECT_EQ(shortest_path(g, 2, 2), (std::vector<NodeId>{2}));
  Graph disc(2);
  EXPECT_TRUE(shortest_path(disc, 0, 1).empty());
}

TEST(Connectivity, DetectsComponents) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(is_connected(g));
  auto comp = connected_components(g);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[4], comp[0]);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  EXPECT_TRUE(is_connected(g));
}

TEST(Connectivity, TrivialGraphs) {
  EXPECT_TRUE(is_connected(Graph(0)));
  EXPECT_TRUE(is_connected(Graph(1)));
  EXPECT_FALSE(is_connected(Graph(2)));
}

TEST(PathStats, CycleGraph) {
  auto g = cycle_graph(6);
  auto s = path_length_stats(g);
  EXPECT_TRUE(s.connected);
  EXPECT_EQ(s.diameter, 3);
  // Cycle of 6: per node distances {1,1,2,2,3} -> mean 1.8.
  EXPECT_NEAR(s.mean, 1.8, 1e-12);
  EXPECT_EQ(s.histogram.at(1), 12u);  // ordered pairs
  EXPECT_EQ(s.histogram.at(3), 6u);
}

TEST(PathStats, DisconnectedFlagged) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  auto s = path_length_stats(g);
  EXPECT_FALSE(s.connected);
  EXPECT_EQ(s.diameter, 1);
}

TEST(PathStats, CompleteGraphDiameterOne) {
  Graph g(5);
  for (int i = 0; i < 5; ++i) {
    for (int j = i + 1; j < 5; ++j) g.add_edge(i, j);
  }
  EXPECT_EQ(diameter(g), 1);
  EXPECT_DOUBLE_EQ(mean_path_length(g), 1.0);
}

TEST(ReachableWithin, CountsHorizon) {
  auto g = path_graph(6);
  EXPECT_EQ(reachable_within(g, 0, 0), 0);
  EXPECT_EQ(reachable_within(g, 0, 2), 2);
  EXPECT_EQ(reachable_within(g, 0, 10), 5);
  EXPECT_EQ(reachable_within(g, 2, 1), 2);
}

// Reference KL: the O(n³·Δ) pair scan that the bucketed selection replaced.
// Every step scores every unlocked (a, b) pair with has_edge and updates D
// over all nodes; the library must reproduce its sides and rng use exactly.
BisectionResult reference_kl(const Graph& g, Rng& rng, int target_a) {
  const int n = g.num_nodes();
  std::vector<NodeId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  std::vector<bool> side(static_cast<std::size_t>(n), false);
  for (int i = 0; i < target_a; ++i) side[order[i]] = true;
  auto d_value = [&](NodeId v) {
    int ext = 0, in = 0;
    for (NodeId u : g.neighbors(v)) (side[u] != side[v] ? ext : in) += 1;
    return ext - in;
  };

  bool improved = true;
  while (improved) {
    improved = false;
    std::vector<char> locked(static_cast<std::size_t>(n), 0);
    std::vector<int> d(static_cast<std::size_t>(n));
    for (NodeId v = 0; v < n; ++v) d[v] = d_value(v);
    std::vector<std::pair<NodeId, NodeId>> swaps;
    std::vector<int> gains;
    const int pairs = std::min(target_a, n - target_a);
    for (int step = 0; step < pairs; ++step) {
      int best_gain = std::numeric_limits<int>::min();
      NodeId best_a = -1, best_b = -1;
      for (NodeId a = 0; a < n; ++a) {
        if (locked[a] || !side[a]) continue;
        for (NodeId b = 0; b < n; ++b) {
          if (locked[b] || side[b]) continue;
          const int gain = d[a] + d[b] - 2 * (g.has_edge(a, b) ? 1 : 0);
          if (gain > best_gain) {
            best_gain = gain;
            best_a = a;
            best_b = b;
          }
        }
      }
      if (best_a == -1) break;
      locked[best_a] = locked[best_b] = 1;
      swaps.emplace_back(best_a, best_b);
      gains.push_back(best_gain);
      for (NodeId v = 0; v < n; ++v) {
        if (locked[v]) continue;
        if (g.has_edge(v, best_a)) d[v] += side[v] == side[best_a] ? 2 : -2;
        if (g.has_edge(v, best_b)) d[v] += side[v] == side[best_b] ? 2 : -2;
      }
    }
    int best_sum = 0, run = 0, best_k = 0;
    for (std::size_t i = 0; i < gains.size(); ++i) {
      run += gains[i];
      if (run > best_sum) {
        best_sum = run;
        best_k = static_cast<int>(i) + 1;
      }
    }
    if (best_sum > 0) {
      for (int i = 0; i < best_k; ++i) {
        side[swaps[i].first] = false;
        side[swaps[i].second] = true;
      }
      improved = true;
    }
  }
  std::size_t cut = 0;
  for (const Edge& e : g.edges()) cut += side[e.a] != side[e.b] ? 1 : 0;
  return BisectionResult{side, cut};
}

// Reference recursive k-way split over reference_kl (same recursion as
// balanced_partition).
std::vector<int> reference_partition(const Graph& g, int k, Rng& rng, int restarts) {
  const int n = g.num_nodes();
  k = std::min(k, n);
  std::vector<int> part(static_cast<std::size_t>(n), 0);
  if (k == 1) return part;
  struct Job {
    std::vector<NodeId> nodes;
    int parts, base;
  };
  std::vector<NodeId> all(static_cast<std::size_t>(n));
  std::iota(all.begin(), all.end(), 0);
  std::vector<Job> stack{{all, k, 0}};
  while (!stack.empty()) {
    Job job = std::move(stack.back());
    stack.pop_back();
    const int nn = static_cast<int>(job.nodes.size());
    if (job.parts == 1) {
      for (NodeId v : job.nodes) part[static_cast<std::size_t>(v)] = job.base;
      continue;
    }
    const int kl = job.parts / 2;
    const int target_a = kl * (nn / job.parts) + std::min(nn % job.parts, kl);
    Graph sub(nn);
    std::vector<int> local(static_cast<std::size_t>(n), -1);
    for (int i = 0; i < nn; ++i) local[static_cast<std::size_t>(job.nodes[i])] = i;
    for (int i = 0; i < nn; ++i) {
      for (NodeId u : g.neighbors(job.nodes[static_cast<std::size_t>(i)])) {
        const int j = local[static_cast<std::size_t>(u)];
        if (j > i) sub.add_edge(i, j);
      }
    }
    BisectionResult best = reference_kl(sub, rng, target_a);
    for (int r = 1; r < restarts; ++r) {
      BisectionResult cand = reference_kl(sub, rng, target_a);
      if (cand.cut_edges < best.cut_edges) best = std::move(cand);
    }
    Job left{{}, kl, job.base};
    Job right{{}, job.parts - kl, job.base + kl};
    for (int i = 0; i < nn; ++i) {
      (best.side[static_cast<std::size_t>(i)] ? left : right)
          .nodes.push_back(job.nodes[static_cast<std::size_t>(i)]);
    }
    stack.push_back(std::move(right));
    stack.push_back(std::move(left));
  }
  return part;
}

// Erdős–Rényi G(n, p) with edges inserted in shuffled order, so adjacency
// lists are unsorted; irregular and, for small p, disconnected.
Graph random_graph(int n, double p, Rng& rng) {
  std::vector<Edge> edges;
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      if (rng.bernoulli(p)) edges.push_back({a, b});
    }
  }
  rng.shuffle(edges);
  Graph g(n);
  for (const Edge& e : edges) g.add_edge(e.a, e.b);
  return g;
}

// The equivalence corpus: random regular, irregular and disconnected graphs.
std::vector<Graph> kl_corpus() {
  std::vector<Graph> graphs;
  Rng rng(2024);
  for (int n : {2, 3, 4, 7, 12, 25, 40}) {
    graphs.push_back(random_graph(n, 0.3, rng));
    graphs.push_back(random_graph(n, 0.08, rng));  // mostly disconnected
  }
  for (auto [n, r] : {std::pair{10, 3}, {24, 5}, {36, 4}, {50, 7}}) {
    graphs.push_back(
        topo::build_jellyfish({.num_switches = n, .ports_per_switch = r + 2, .network_degree = r},
                              rng)
            .switches());
  }
  graphs.push_back(topo::build_jellyfish_with_servers(45, 8, 101, rng).switches());
  Graph two_cycles(20);  // two disjoint 10-cycles
  for (int i = 0; i < 20; ++i) two_cycles.add_edge(i, i % 10 == 9 ? i - 9 : i + 1);
  graphs.push_back(std::move(two_cycles));
  graphs.push_back(Graph(9));  // edgeless
  return graphs;
}

TEST(Partition, KernighanLinMatchesReferencePairScan) {
  int cases = 0;
  for (const Graph& g : kl_corpus()) {
    const int n = g.num_nodes();
    for (std::uint64_t seed : {1u, 7u, 31u}) {
      for (int size_a : {1, (n + 1) / 2, n - 1}) {
        Rng r1(seed), r2(seed);
        const auto got = kernighan_lin_bisection(g, r1, size_a);
        const auto want = reference_kl(g, r2, size_a);
        ASSERT_EQ(got.side, want.side) << "n=" << n << " seed=" << seed << " |A|=" << size_a;
        ASSERT_EQ(got.cut_edges, want.cut_edges);
        ASSERT_TRUE(r1.engine() == r2.engine());  // same rng draws
        ++cases;
      }
      Rng r1(seed), r2(seed);
      EXPECT_EQ(kernighan_lin_bisection(g, r1).side, reference_kl(g, r2, (n + 1) / 2).side);
    }
  }
  EXPECT_GT(cases, 100);
}

TEST(Partition, BalancedPartitionMatchesReference) {
  for (const Graph& g : kl_corpus()) {
    for (int k : {2, 3, 5, 8}) {
      for (int restarts : {1, 3}) {
        Rng r1(k * 100 + restarts), r2(k * 100 + restarts);
        ASSERT_EQ(balanced_partition(g, k, r1, restarts), reference_partition(g, k, r2, restarts))
            << "n=" << g.num_nodes() << " k=" << k << " restarts=" << restarts;
        ASSERT_TRUE(r1.engine() == r2.engine());
      }
    }
  }
}

// Pinned from the pair-scan implementation on the Fig. 7-size non-uniform
// jellyfish (982 servers on 195 twelve-port switches): the best-of-5 cut,
// a digest of its sides, and the normalized bisection it scores.
TEST(Partition, NonUniformJellyfishCutIsPinned) {
  Rng build(195);
  const auto topo = topo::build_jellyfish_with_servers(195, 12, 982, build);
  Rng kl(5);
  const auto cut = min_bisection_estimate(topo.switches(), kl, 5);
  std::uint64_t digest = 1469598103934665603ULL;  // FNV-1a over the side bits
  for (bool a : cut.side) {
    digest ^= a ? 1u : 0u;
    digest *= 1099511628211ULL;
  }
  EXPECT_EQ(cut.cut_edges, 160u);
  EXPECT_EQ(digest, 0x31bbd4769a74b8fbULL);
  Rng kl2(5);
  EXPECT_EQ(flow::estimated_normalized_bisection(topo, kl2, 5), 0x1.4e5e0a72f0539p-2);
}

TEST(Partition, BalancedPartitionSizesAndDeterminism) {
  Rng rng(7);
  Graph g = cycle_graph(22);
  for (int k : {1, 2, 3, 4, 8}) {
    Rng r1(11), r2(11);
    auto p1 = balanced_partition(g, k, r1);
    auto p2 = balanced_partition(g, k, r2);
    EXPECT_EQ(p1, p2) << "k=" << k;  // same rng stream -> same parts
    std::vector<int> sizes(static_cast<std::size_t>(k), 0);
    for (int part : p1) {
      ASSERT_GE(part, 0);
      ASSERT_LT(part, k);
      ++sizes[static_cast<std::size_t>(part)];
    }
    const auto [lo, hi] = std::minmax_element(sizes.begin(), sizes.end());
    EXPECT_LE(*hi - *lo, 1) << "k=" << k;  // balanced to within one node
  }
}

TEST(Partition, BalancedPartitionClampsAndCutsSanely) {
  Rng rng(3);
  // k > n clamps to n: every node its own part.
  Graph tiny = path_graph(3);
  auto p = balanced_partition(tiny, 8, rng);
  std::set<int> parts(p.begin(), p.end());
  EXPECT_EQ(parts.size(), 3u);
  // On two disjoint cliques, a 2-way partition should find the zero cut.
  Graph g(8);
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) {
      g.add_edge(a, b);
      g.add_edge(4 + a, 4 + b);
    }
  }
  auto q = balanced_partition(g, 2, rng, /*restarts=*/5);
  std::size_t cut = 0;
  for (const Edge& e : g.edges()) {
    if (q[static_cast<std::size_t>(e.a)] != q[static_cast<std::size_t>(e.b)]) ++cut;
  }
  EXPECT_EQ(cut, 0u);
}

}  // namespace
}  // namespace jf::graph
