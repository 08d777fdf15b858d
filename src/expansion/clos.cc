#include "expansion/clos.h"

#include <algorithm>
#include <string>

#include "common/check.h"

namespace jf::expansion {

bool ClosConfig::feasible() const {
  if (edge <= 0 || spine <= 0 || down <= 0 || ports <= 0) return false;
  if (down >= ports) return false;  // needs at least one uplink
  // Spine port capacity: S*k ports must terminate all E*u uplinks.
  return edge * up() <= spine * ports;
}

double ClosConfig::normalized_bisection() const {
  if (!feasible() || servers() == 0) return 0.0;
  return std::min(1.0, static_cast<double>(up()) / static_cast<double>(down));
}

std::map<std::pair<int, int>, int> clos_cables(const ClosConfig& cfg) {
  std::map<std::pair<int, int>, int> cables;
  for (int e = 0; e < cfg.edge; ++e) {
    for (int j = 0; j < cfg.up(); ++j) {
      const int s = (e * cfg.up() + j) % cfg.spine;
      ++cables[{e, s}];
    }
  }
  return cables;
}

namespace {

// One edge row of the round-robin cable grid, walked spine by spine. Edge
// e's uplinks take the u consecutive slots e*u .. e*u+u-1 mod S, so spine s
// gets floor(u/S) of them plus one more iff ((s - e*u) mod S) < u mod S.
struct CableRow {
  CableRow(const ClosConfig& cfg, int e) : spine(cfg.spine) {
    if (cfg.up() <= 0 || spine <= 0) return;  // no cables
    q = cfg.up() / spine;
    r = cfg.up() % spine;
    offset = static_cast<int>((spine - static_cast<long long>(e) * cfg.up() % spine) % spine);
  }
  // count(e, s) for s = 0, 1, ... on successive calls.
  int next() {
    const int count = s < spine ? q + (offset < r ? 1 : 0) : 0;
    ++s;
    if (++offset == spine) offset = 0;
    return count;
  }
  int spine, q = 0, r = 0, offset = 0, s = 0;
};

}  // namespace

std::pair<int, int> cable_delta(const ClosConfig& from, const ClosConfig& to) {
  int added = 0, removed = 0;
  // Edge rows both configurations have: compare cell by cell over the
  // union of spines.
  const int from_edges = std::max(0, from.edge), to_edges = std::max(0, to.edge);
  const int rows = std::min(from_edges, to_edges);
  const int cols = std::max(from.spine, to.spine);
  for (int e = 0; e < rows; ++e) {
    CableRow have(from, e), want(to, e);
    for (int s = 0; s < cols; ++s) {
      const int diff = want.next() - have.next();
      if (diff > 0) added += diff;
      else removed -= diff;
    }
  }
  // Edge rows only one side has: all of that edge's uplinks differ.
  added += (to_edges - rows) * std::max(0, to.up());
  removed += (from_edges - rows) * std::max(0, from.up());
  return {added, removed};
}

topo::Topology build_clos(const ClosConfig& cfg) {
  check(cfg.feasible(), "build_clos: infeasible configuration");
  graph::Graph g(cfg.switches());
  // Edge switches are ids [0, E); spines [E, E+S). Parallel cables in the
  // round-robin assignment are collapsed (the Graph is simple); capacity-
  // accurate evaluation uses the multiset from clos_cables().
  for (const auto& [key, count] : clos_cables(cfg)) {
    const int e = key.first;
    const int s = cfg.edge + key.second;
    if (!g.has_edge(e, s)) g.add_edge(e, s);
  }
  std::vector<int> ports(static_cast<std::size_t>(cfg.switches()), cfg.ports);
  std::vector<int> servers(static_cast<std::size_t>(cfg.switches()), 0);
  for (int e = 0; e < cfg.edge; ++e) servers[e] = cfg.down;
  return topo::Topology("clos(E=" + std::to_string(cfg.edge) + ",S=" +
                            std::to_string(cfg.spine) + ",d=" + std::to_string(cfg.down) + ")",
                        std::move(g), std::move(ports), std::move(servers));
}

ClosConfig best_clos_upgrade(const ClosConfig& current, int min_servers, double budget,
                             const CostModel& costs, double* spent, int rewire_limit) {
  check(min_servers >= 0, "best_clos_upgrade: negative servers");
  ClosConfig best = current;
  double best_spent = 0.0;
  double best_bisection = current.servers() >= min_servers ? current.normalized_bisection() : -1.0;

  const int k = current.ports;
  // Upper bound on purchasable switches this stage.
  const int max_new = static_cast<int>(budget / costs.switch_cost(k));
  for (int de = 0; de <= max_new; ++de) {
    for (int ds = 0; de + ds <= max_new; ++ds) {
      const int e = current.edge + de;
      const int s = current.spine + ds;
      for (int d = 1; d < k; ++d) {
        ClosConfig cand{e, s, d, k};
        if (!cand.feasible() || cand.servers() < min_servers) continue;
        const auto [added, removed] = cable_delta(current, cand);
        if (rewire_limit >= 0 && removed > rewire_limit) continue;
        const double cost = costs.switch_cost(k) * (de + ds) +
                            costs.new_cable_cost() * added + costs.detach_cost() * removed;
        if (cost > budget) continue;
        const double bis = cand.normalized_bisection();
        if (bis > best_bisection + 1e-12 ||
            (std::abs(bis - best_bisection) <= 1e-12 && cost < best_spent)) {
          best = cand;
          best_bisection = bis;
          best_spent = cost;
        }
      }
    }
  }
  if (spent != nullptr) *spent = best_spent;
  return best;
}

}  // namespace jf::expansion
