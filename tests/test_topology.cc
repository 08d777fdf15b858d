// Tests for the Topology container and the fat-tree builder.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "graph/algorithms.h"
#include "topo/fattree.h"
#include "topo/topology.h"

namespace jf::topo {
namespace {

TEST(Topology, BasicAccounting) {
  graph::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  Topology t("test", std::move(g), {4, 4, 4}, {2, 1, 0});
  EXPECT_EQ(t.num_switches(), 3);
  EXPECT_EQ(t.num_servers(), 3);
  EXPECT_EQ(t.total_ports(), 12u);
  EXPECT_EQ(t.network_degree(1), 2);
  EXPECT_EQ(t.free_ports(0), 1);   // 4 - 1 link - 2 servers
  EXPECT_EQ(t.free_ports(2), 3);
}

TEST(Topology, ServerIndexing) {
  graph::Graph g(3);
  Topology t("test", std::move(g), {4, 4, 4}, {2, 0, 3});
  EXPECT_EQ(t.server_switch(0), 0);
  EXPECT_EQ(t.server_switch(1), 0);
  EXPECT_EQ(t.server_switch(2), 2);
  EXPECT_EQ(t.server_switch(4), 2);
  EXPECT_THROW(t.server_switch(5), std::invalid_argument);
  auto [first, last] = t.servers_of_switch(2);
  EXPECT_EQ(first, 2);
  EXPECT_EQ(last, 5);
  auto [f1, l1] = t.servers_of_switch(1);
  EXPECT_EQ(f1, l1);  // no servers
}

TEST(Topology, ValidatesPortBudget) {
  graph::Graph g(2);
  g.add_edge(0, 1);
  EXPECT_THROW(Topology("bad", std::move(g), {1, 4}, {1, 0}), std::logic_error);
}

TEST(Topology, AddSwitchAndSetServers) {
  graph::Graph g(2);
  Topology t("test", std::move(g), {4, 4}, {1, 1});
  NodeId v = t.add_switch(6, 2);
  EXPECT_EQ(v, 2);
  EXPECT_EQ(t.num_switches(), 3);
  EXPECT_EQ(t.num_servers(), 4);
  t.set_servers_at(v, 5);
  EXPECT_EQ(t.servers_at(v), 5);
  EXPECT_THROW(t.set_servers_at(v, 7), std::invalid_argument);
  // Index stays consistent after mutation.
  EXPECT_EQ(t.server_switch(t.num_servers() - 1), v);
}

TEST(Topology, EmptyTopologyHasNoServers) {
  const Topology t;
  EXPECT_EQ(t.num_servers(), 0);
  EXPECT_THROW(t.server_switch(0), std::invalid_argument);
}

// The evaluation engine shares one const Topology across concurrent cells:
// the server index must be built before any reader runs, never lazily by
// the first one (ThreadSanitizer flags the lazy rebuild as a data race).
TEST(Topology, ConcurrentConstReadersAgree) {
  const Topology t = build_fattree(8);
  std::vector<int> first_server(static_cast<std::size_t>(t.num_switches()) + 1, 0);
  for (NodeId sw = 0; sw < t.num_switches(); ++sw) {
    first_server[static_cast<std::size_t>(sw) + 1] =
        first_server[static_cast<std::size_t>(sw)] + t.servers_at(sw);
  }
  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> readers;
  for (int r = 0; r < kThreads; ++r) {
    readers.emplace_back([&t, &first_server, &mismatches, r] {
      for (NodeId sw = 0; sw < t.num_switches(); ++sw) {
        const auto [first, last] = t.servers_of_switch(sw);
        if (first != first_server[static_cast<std::size_t>(sw)] ||
            last != first_server[static_cast<std::size_t>(sw) + 1]) {
          ++mismatches[static_cast<std::size_t>(r)];
        }
        for (int s = first; s < last; ++s) {
          if (t.server_switch(s) != sw) ++mismatches[static_cast<std::size_t>(r)];
        }
      }
    });
  }
  for (auto& reader : readers) reader.join();
  for (int r = 0; r < kThreads; ++r) EXPECT_EQ(mismatches[static_cast<std::size_t>(r)], 0);
}

TEST(Fattree, CountsMatchFormulae) {
  for (int k : {2, 4, 6, 8}) {
    auto ft = build_fattree(k);
    EXPECT_EQ(ft.num_switches(), fattree_switches(k)) << k;
    EXPECT_EQ(ft.num_servers(), fattree_servers(k)) << k;
    ft.validate();
  }
}

TEST(Fattree, RejectsOddK) {
  EXPECT_THROW(build_fattree(3), std::invalid_argument);
  EXPECT_THROW(build_fattree(0), std::invalid_argument);
}

TEST(Fattree, StructureIsCorrect) {
  const int k = 4;
  auto ft = build_fattree(k);
  const auto layers = fattree_layers(k);
  EXPECT_EQ(layers.num_edge, 8);
  EXPECT_EQ(layers.num_agg, 8);
  EXPECT_EQ(layers.num_core, 4);
  const auto& g = ft.switches();
  // Every switch uses exactly k ports (edge: k/2 servers + k/2 aggs).
  for (NodeId v = 0; v < layers.num_edge; ++v) {
    EXPECT_EQ(g.degree(v), k / 2);
    EXPECT_EQ(ft.servers_at(v), k / 2);
    EXPECT_EQ(ft.free_ports(v), 0);
  }
  for (NodeId v = layers.num_edge; v < layers.num_edge + layers.num_agg; ++v) {
    EXPECT_EQ(g.degree(v), k);
    EXPECT_EQ(ft.servers_at(v), 0);
  }
  for (NodeId v = layers.num_edge + layers.num_agg; v < ft.num_switches(); ++v) {
    EXPECT_EQ(g.degree(v), k);  // core: one link per pod
  }
  EXPECT_TRUE(graph::is_connected(g));
}

TEST(Fattree, DiameterIsFour) {
  // Switch-level diameter of a 3-level fat-tree is 4 (edge-agg-core-agg-edge);
  // server-to-server (+2) gives the paper's 6.
  auto ft = build_fattree(4);
  EXPECT_EQ(graph::diameter(ft.switches()), 4);
}

TEST(Fattree, IntraPodDistance) {
  auto ft = build_fattree(4);
  // Edge switches 0 and 1 are in pod 0: distance 2 via any pod agg.
  auto d = graph::bfs_distances(ft.switches(), 0);
  EXPECT_EQ(d[1], 2);
}

}  // namespace
}  // namespace jf::topo
