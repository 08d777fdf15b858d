#include "flow/mcf.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <span>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace jf::flow {

namespace {

// Compact directed-arc representation (CSR) for fast repeated Dijkstra.
struct ArcGraph {
  int num_nodes = 0;
  std::vector<int> first;    // node -> index into arc arrays (size n+1)
  std::vector<int> to;       // arc target
  std::vector<double> cap;   // arc capacity
  std::vector<double> len;   // GK length
  std::vector<double> load;  // accumulated flow
};

ArcGraph build_arcs(const graph::Graph& g, double capacity) {
  ArcGraph a;
  a.num_nodes = g.num_nodes();
  a.first.assign(static_cast<std::size_t>(a.num_nodes) + 1, 0);
  const auto edges = g.edges();
  for (const auto& e : edges) {
    ++a.first[e.a + 1];
    ++a.first[e.b + 1];
  }
  for (int v = 0; v < a.num_nodes; ++v) a.first[v + 1] += a.first[v];
  a.to.assign(edges.size() * 2, 0);
  std::vector<int> cursor(a.first.begin(), a.first.end() - 1);
  for (const auto& e : edges) {
    a.to[cursor[e.a]++] = e.b;
    a.to[cursor[e.b]++] = e.a;
  }
  a.cap.assign(a.to.size(), capacity);
  a.len.assign(a.to.size(), 0.0);
  a.load.assign(a.to.size(), 0.0);
  return a;
}

// Per-slot scratch for the sweep's shortest-path trees, reused across
// rounds so the sweep stays allocation-free after the first one. Each slot
// sits on its own cache line: every tree writes its slot's vector headers
// (assign, push_back), and without the alignment adjacent slots' headers
// share lines — bench_mcf_scaling ran 1.2-1.5x slower at 2 and 4 threads
// on a 4-core Xeon (false sharing).
struct alignas(64) TreeScratch {
  std::vector<double> dist;
  std::vector<int> parent_arc;
  std::vector<char> is_target;
  std::vector<std::pair<double, int>> heap;
};

// Dijkstra from `s` under arc lengths; fills dist and parent-arc and stops
// once every node in `targets` (duplicates allowed) is settled, or the
// reachable set is exhausted. Returns the number of nodes settled. The heap
// is ordered on (dist, node id), a total order, so the pop sequence up to
// any target depends only on the lengths — never on the other targets or on
// scheduling — and each target's parent chain is exactly the one a
// single-target run would leave.
int dijkstra(const ArcGraph& a, int s, std::span<const int> targets, TreeScratch& sc) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto n = static_cast<std::size_t>(a.num_nodes);
  sc.dist.assign(n, kInf);
  sc.parent_arc.assign(n, -1);
  sc.is_target.resize(n, 0);
  int pending = 0;
  for (int t : targets) {
    if (!sc.is_target[t]) {
      sc.is_target[t] = 1;
      ++pending;
    }
  }
  auto& heap = sc.heap;
  heap.clear();
  sc.dist[s] = 0.0;
  heap.emplace_back(0.0, s);
  int settled = 0;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    const auto [d, u] = heap.back();
    heap.pop_back();
    if (d > sc.dist[u]) continue;
    ++settled;
    if (sc.is_target[u]) {
      sc.is_target[u] = 0;
      if (--pending == 0) break;
    }
    for (int i = a.first[u]; i < a.first[u + 1]; ++i) {
      const int v = a.to[i];
      const double nd = d + a.len[i];
      if (nd < sc.dist[v]) {
        sc.dist[v] = nd;
        sc.parent_arc[v] = i;
        heap.emplace_back(nd, v);
        std::push_heap(heap.begin(), heap.end(), std::greater<>());
      }
    }
  }
  for (int t : targets) sc.is_target[t] = 0;  // unreachable targets stay marked
  return settled;
}

}  // namespace

double gk_initial_length(std::size_t num_arcs, double epsilon, double capacity) {
  check(num_arcs > 0, "gk_initial_length: need >= 1 arc");
  check(epsilon > 0 && epsilon < 0.5, "gk_initial_length: epsilon in (0, 0.5)");
  check(capacity > 0, "gk_initial_length: capacity must be positive");
  constexpr double kMinNormal = std::numeric_limits<double>::min();
  // delta = (m / (1 - eps))^(-1/eps), in log space so it cannot underflow.
  const double log_delta =
      -std::log(static_cast<double>(num_arcs) / (1.0 - epsilon)) / epsilon;
  const double delta = std::exp(std::max(log_delta, std::log(kMinNormal)));
  return std::max(delta / capacity, kMinNormal);
}

McfResult max_concurrent_flow(const graph::Graph& g, std::span<const Commodity> commodities,
                              const McfOptions& opts, parallel::WorkBudget* budget) {
  check(opts.epsilon > 0 && opts.epsilon < 0.5, "max_concurrent_flow: epsilon in (0, 0.5)");
  check(opts.link_capacity > 0, "max_concurrent_flow: capacity must be positive");
  check(opts.max_phases >= 1, "max_concurrent_flow: max_phases must be >= 1");
  check(opts.convergence_window >= 1, "max_concurrent_flow: convergence_window >= 1");
  check(opts.convergence_tol >= 0, "max_concurrent_flow: convergence_tol >= 0");

  McfResult result;
  std::vector<Commodity> cs;
  for (const auto& c : commodities) {
    check(c.src_switch >= 0 && c.src_switch < g.num_nodes() && c.dst_switch >= 0 &&
              c.dst_switch < g.num_nodes() && c.src_switch != c.dst_switch,
          "max_concurrent_flow: bad commodity endpoints");
    if (c.demand > 0) cs.push_back(c);
  }
  if (cs.empty()) {
    result.lambda = 1e9;
    result.lambda_upper = 1e9;
    result.decided_above = opts.decide_threshold >= 0;
    return result;
  }

  // GK telemetry: counts are exact and schedule-independent (rounds/phases
  // are decided by the serial apply order); the _ns distributions are wall
  // times. sweep_ns also covers the sweeps dual_upper() issues.
  static obs::Counter& obs_solves = obs::counter("mcf.solves");
  static obs::Counter& obs_phases = obs::counter("mcf.phases");
  static obs::Counter& obs_rounds = obs::counter("mcf.rounds");
  static obs::Counter& obs_trees = obs::counter("mcf.trees");
  static obs::Counter& obs_nodes_settled = obs::counter("mcf.nodes_settled");
  static obs::Distribution& obs_sweep_ns = obs::distribution("mcf.sweep_ns");
  static obs::Distribution& obs_apply_ns = obs::distribution("mcf.apply_ns");
  obs_solves.increment();
  obs::Span span("mcf.solve", "mcf");
  span.arg("commodities", static_cast<std::int64_t>(cs.size()));

  // Some commodity has no path: no concurrent flow is possible, and lambda*
  // = 0 is certified from both sides.
  auto disconnected = [&]() {
    result.lambda = 0.0;
    result.lambda_upper = 0.0;
    result.decided_below = opts.decide_threshold >= 0;
    return result;
  };

  ArcGraph a = build_arcs(g, opts.link_capacity);
  const std::size_t m = a.to.size();
  if (m == 0) return disconnected();  // no links: nothing routable

  // Source node of each CSR arc (for path extraction).
  std::vector<int> arc_src(m);
  for (int v = 0; v < a.num_nodes; ++v) {
    for (int i = a.first[v]; i < a.first[v + 1]; ++i) arc_src[i] = v;
  }

  const double eps = opts.epsilon;
  // Uniform capacities (build_arcs): one initial length serves every arc.
  const double init_len = gk_initial_length(m, eps, opts.link_capacity);
  for (std::size_t i = 0; i < m; ++i) a.len[i] = init_len;

  const int num_cs = static_cast<int>(cs.size());
  std::vector<double> routed(cs.size(), 0.0);  // flow shipped per commodity

  // Commodities grouped by source switch, whatever order they arrive in:
  // group_of[j] is a dense id of commodity j's source, numbered by first
  // appearance in canonical order; group_src maps it back to the switch.
  std::vector<int> group_of(cs.size());
  std::vector<int> group_src;
  {
    std::vector<int> group_of_node(static_cast<std::size_t>(a.num_nodes), -1);
    for (std::size_t j = 0; j < cs.size(); ++j) {
      int& gid = group_of_node[static_cast<std::size_t>(cs[j].src_switch)];
      if (gid < 0) {
        gid = static_cast<int>(group_src.size());
        group_src.push_back(cs[j].src_switch);
      }
      group_of[j] = gid;
    }
  }
  const int num_sources = static_cast<int>(group_src.size());

  // Workers borrowed for the whole solve: every round's sweep runs one
  // shortest-path tree per distinct source on 1 + extra threads (extra may
  // be 0 — same schedule, serial execution). Per-commodity outputs (dists,
  // paths) land in index-addressed slots, so nothing depends on which
  // worker computed what.
  parallel::WorkerTeam team(budget, num_sources - 1);
  std::vector<TreeScratch> scratch(static_cast<std::size_t>(team.size()));
  std::vector<double> dists(cs.size(), 0.0);
  std::vector<std::vector<int>> paths(cs.size());

  // One sweep's trees: tree k is rooted at switch tree_root[k] and serves
  // commodities tree_members[tree_first[k] .. tree_first[k+1]), in
  // canonical order; tree_targets holds their destination switches.
  std::vector<int> group_fill(static_cast<std::size_t>(num_sources) + 1);
  std::vector<int> tree_root;
  std::vector<int> tree_first;
  std::vector<int> tree_members;
  std::vector<int> tree_targets;

  // Shortest path for every listed commodity against the *current* lengths,
  // which the caller must keep frozen for the duration of the sweep.
  auto sweep = [&](const std::vector<int>& js) {
    obs::ScopedTimer sweep_timer(obs_sweep_ns);
    // Stable counting sort of js by source group.
    std::fill(group_fill.begin(), group_fill.end(), 0);
    for (int j : js) ++group_fill[static_cast<std::size_t>(group_of[j]) + 1];
    tree_root.clear();
    tree_first.clear();
    for (int gid = 0; gid < num_sources; ++gid) {
      const auto gi = static_cast<std::size_t>(gid);
      if (group_fill[gi + 1] > 0) {
        tree_root.push_back(group_src[gi]);
        tree_first.push_back(group_fill[gi]);
      }
      group_fill[gi + 1] += group_fill[gi];
    }
    tree_first.push_back(static_cast<int>(js.size()));
    tree_members.resize(js.size());
    tree_targets.resize(js.size());
    for (int j : js) {
      const int pos = group_fill[static_cast<std::size_t>(group_of[j])]++;
      tree_members[static_cast<std::size_t>(pos)] = j;
      tree_targets[static_cast<std::size_t>(pos)] = cs[static_cast<std::size_t>(j)].dst_switch;
    }

    team.run(static_cast<int>(tree_root.size()), [&](int k, int slot) {
      const auto ki = static_cast<std::size_t>(k);
      const auto first = static_cast<std::size_t>(tree_first[ki]);
      const auto count = static_cast<std::size_t>(tree_first[ki + 1]) - first;
      auto& sc = scratch[static_cast<std::size_t>(slot)];
      const int settled = dijkstra(
          a, tree_root[ki], std::span<const int>(tree_targets).subspan(first, count), sc);
      obs_trees.increment();
      obs_nodes_settled.add(settled);
      for (std::size_t q = first; q < first + count; ++q) {
        const int j = tree_members[q];
        const int t = tree_targets[q];
        dists[static_cast<std::size_t>(j)] = sc.dist[static_cast<std::size_t>(t)];
        auto& path = paths[static_cast<std::size_t>(j)];
        path.clear();
        for (int cur = t; sc.parent_arc[cur] != -1; cur = arc_src[sc.parent_arc[cur]]) {
          path.push_back(sc.parent_arc[cur]);
        }
      }
    });
  };

  std::vector<int> all_commodities(cs.size());
  for (int j = 0; j < num_cs; ++j) all_commodities[static_cast<std::size_t>(j)] = j;

  // Certified primal value: scale all accumulated flow down by the worst
  // arc overload; the result is feasible, so lambda >= min_j routed_j/(ovl*d_j).
  auto primal_lambda = [&]() {
    double overload = 0.0;
    for (std::size_t i = 0; i < m; ++i) overload = std::max(overload, a.load[i] / a.cap[i]);
    if (overload <= 0) return 0.0;
    double lam = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < cs.size(); ++j) {
      lam = std::min(lam, routed[j] / overload / cs[j].demand);
    }
    return lam;
  };

  // LP-duality upper bound: lambda* <= D(l)/alpha(l) for any lengths l, with
  // D = sum_e len*cap and alpha = sum_j demand_j * dist_j(l). Costs one
  // sweep (one tree per source, parallel across sources; the alpha reduction
  // runs in canonical commodity order), so it is evaluated periodically.
  auto dual_upper = [&]() {
    double D = 0.0;
    for (std::size_t i = 0; i < m; ++i) D += a.len[i] * a.cap[i];
    sweep(all_commodities);
    double alpha = 0.0;
    for (int j = 0; j < num_cs; ++j) {
      const double d = dists[static_cast<std::size_t>(j)];
      if (!std::isfinite(d)) return std::numeric_limits<double>::infinity();
      alpha += cs[static_cast<std::size_t>(j)].demand * d;
    }
    return alpha > 0 ? D / alpha : std::numeric_limits<double>::infinity();
  };

  constexpr double kRelativeDualGap = 0.05;  // stop when UB <= LB * (1+gap)
  const int dual_check_every = std::max(4, opts.convergence_window);
  double lambda_at_last_check = 0.0;

  std::vector<double> remaining(cs.size(), 0.0);
  std::vector<int> active;
  std::vector<int> still_active;
  active.reserve(cs.size());
  still_active.reserve(cs.size());

  for (int phase = 0; phase < opts.max_phases; ++phase) {
    // Epoch-batched rounds: freeze the lengths, find every active
    // commodity's shortest path in parallel (one tree per source), then
    // route and update lengths serially in canonical commodity order. The
    // schedule — and thus every arithmetic operation — is identical at any
    // worker count.
    for (std::size_t j = 0; j < cs.size(); ++j) remaining[j] = cs[j].demand;
    active = all_commodities;
    while (!active.empty()) {
      obs_rounds.increment();
      sweep(active);
      obs::ScopedTimer apply_timer(obs_apply_ns);
      still_active.clear();
      for (int j : active) {
        const std::size_t ji = static_cast<std::size_t>(j);
        if (!std::isfinite(dists[ji])) return disconnected();
        const auto& path = paths[ji];
        double bottleneck = std::numeric_limits<double>::infinity();
        for (int arc : path) bottleneck = std::min(bottleneck, a.cap[arc]);
        const double f = std::min(remaining[ji], bottleneck);
        for (int arc : path) {
          a.load[arc] += f;
          a.len[arc] *= 1.0 + eps * f / a.cap[arc];
        }
        routed[ji] += f;
        remaining[ji] -= f;
        if (remaining[ji] > 1e-12) still_active.push_back(j);
      }
      active.swap(still_active);
    }
    result.phases = phase + 1;
    obs_phases.increment();
    result.lambda = std::max(result.lambda, primal_lambda());

    if (opts.decide_threshold >= 0 && result.lambda >= opts.decide_threshold) {
      result.decided_above = true;
      return result;
    }
    const bool check_dual =
        opts.decide_threshold >= 0 || (phase + 1) % dual_check_every == 0;
    if (check_dual) {
      result.lambda_upper = std::min(result.lambda_upper, dual_upper());
      if (opts.decide_threshold >= 0 && result.lambda_upper < opts.decide_threshold) {
        result.decided_below = true;
        return result;
      }
      if (result.lambda_upper <= result.lambda * (1.0 + kRelativeDualGap)) break;
      // Plateau detection: the certified primal improves ~lambda/phase per
      // phase late in the run; once per-window gains drop below tol the
      // extra phases buy nothing (the dual gap is dominated by GK's epsilon
      // bias, not by unconverged flow).
      if (opts.decide_threshold < 0 && phase + 1 >= 2 * dual_check_every &&
          result.lambda - lambda_at_last_check <
              opts.convergence_tol * std::max(result.lambda, 1e-9)) {
        break;
      }
      lambda_at_last_check = result.lambda;
    }
  }
  result.lambda_upper = std::min(result.lambda_upper, dual_upper());
  span.arg("phases", result.phases);
  return result;
}

}  // namespace jf::flow
