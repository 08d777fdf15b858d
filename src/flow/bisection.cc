#include "flow/bisection.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "graph/partition.h"

namespace jf::flow {

double bollobas_bisection_edges(int n, int r) {
  check(n >= 2 && r >= 0, "bollobas_bisection_edges: bad (n, r)");
  const double rd = static_cast<double>(r);
  const double edges = n * (rd / 4.0 - std::sqrt(rd * std::log(2.0)) / 2.0);
  return std::max(0.0, edges);
}

double rrg_normalized_bisection(int n, int r, int total_servers) {
  check(total_servers > 0, "rrg_normalized_bisection: need servers");
  const double cut = bollobas_bisection_edges(n, r);
  return cut / (static_cast<double>(total_servers) / 2.0);
}

double fattree_bisection_edges(int k) {
  check(k >= 2 && k % 2 == 0, "fattree_bisection_edges: bad k");
  return static_cast<double>(k) * k * k / 8.0;
}

double fattree_normalized_bisection(int k, int total_servers) {
  check(total_servers > 0, "fattree_normalized_bisection: need servers");
  return fattree_bisection_edges(k) / (static_cast<double>(total_servers) / 2.0);
}

std::size_t jellyfish_min_ports_full_bisection(int servers, int ports_per_switch) {
  check(servers >= 1 && ports_per_switch >= 2, "jellyfish_min_ports_full_bisection: bad input");
  const int k = ports_per_switch;
  std::size_t best = 0;
  for (int r = 2; r < k; ++r) {
    const int per_switch = k - r;  // servers each switch hosts
    if (per_switch <= 0) continue;
    const int n = (servers + per_switch - 1) / per_switch;
    if (r >= n) continue;  // simple-graph constraint
    if (rrg_normalized_bisection(n, r, n * per_switch) < 1.0) continue;
    const std::size_t cost = static_cast<std::size_t>(n) * static_cast<std::size_t>(k);
    if (best == 0 || cost < best) best = cost;
  }
  return best;
}

std::size_t fattree_min_ports_full_bisection(int servers, std::span<const int> port_choices) {
  check(servers >= 1, "fattree_min_ports_full_bisection: bad servers");
  std::size_t best = 0;
  for (int k : port_choices) {
    check(k >= 2 && k % 2 == 0, "fattree_min_ports_full_bisection: k must be even");
    if (k * k * k / 4 < servers) continue;
    // 5k^2/4 switches with k ports each.
    const std::size_t cost = static_cast<std::size_t>(5) * k * k / 4 * static_cast<std::size_t>(k);
    if (best == 0 || cost < best) best = cost;
  }
  return best;
}

double estimated_normalized_bisection(const topo::Topology& topo, Rng& rng, int restarts) {
  const auto& g = topo.switches();
  check(g.num_nodes() >= 2, "estimated_normalized_bisection: need >= 2 switches");
  check(topo.num_servers() > 0, "estimated_normalized_bisection: need servers");
  auto result = graph::min_bisection_estimate(g, rng, restarts);

  // Count the servers on each side; normalize by the lighter side (the
  // bandwidth the cut must carry per paper convention is per-partition).
  // A cut that leaves every server on one side has no lighter side to
  // speak of; it is normalized by half the servers, the convention
  // rrg_normalized_bisection uses.
  double servers_a = 0, servers_b = 0;
  for (topo::NodeId sw = 0; sw < topo.num_switches(); ++sw) {
    if (result.side[sw]) servers_a += topo.servers_at(sw);
    else servers_b += topo.servers_at(sw);
  }
  double denom = std::min(servers_a, servers_b);
  if (denom <= 0) denom = (servers_a + servers_b) / 2.0;
  return static_cast<double>(result.cut_edges) / denom;
}

double normalized_bisection(const topo::Topology& topo, Rng& rng) {
  const auto& g = topo.switches();
  bool uniform = true;
  const int r0 = g.num_nodes() > 0 ? g.degree(0) : 0;
  for (topo::NodeId v = 1; v < g.num_nodes(); ++v) {
    if (g.degree(v) != r0) {
      uniform = false;
      break;
    }
  }
  if (uniform && g.num_nodes() >= 2 && topo.num_servers() > 0) {
    return rrg_normalized_bisection(g.num_nodes(), r0, topo.num_servers());
  }
  return estimated_normalized_bisection(topo, rng, /*restarts=*/5);
}

}  // namespace jf::flow
