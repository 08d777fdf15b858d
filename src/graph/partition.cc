#include "graph/partition.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/check.h"

namespace jf::graph {

namespace {

std::size_t cut_size(const Graph& g, const std::vector<bool>& side) {
  std::size_t cut = 0;
  for (const Edge& e : g.edges()) {
    if (side[e.a] != side[e.b]) ++cut;
  }
  return cut;
}

// D-value: external minus internal cost of v under the current partition.
int d_value(const Graph& g, const std::vector<bool>& side, NodeId v) {
  int ext = 0, in = 0;
  for (NodeId u : g.neighbors(v)) {
    if (side[u] != side[v]) ++ext;
    else ++in;
  }
  return ext - in;
}

}  // namespace

BisectionResult kernighan_lin_bisection(const Graph& g, Rng& rng) {
  const int n = g.num_nodes();
  check(n >= 2, "kernighan_lin_bisection: need >= 2 nodes");
  return kernighan_lin_bisection(g, rng, (n + 1) / 2);
}

BisectionResult kernighan_lin_bisection(const Graph& g, Rng& rng, int size_a) {
  const int n = g.num_nodes();
  check(size_a >= 1 && size_a < n, "kernighan_lin_bisection: bad side size");

  // Random start with |A| = size_a.
  std::vector<NodeId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  std::vector<bool> side(static_cast<std::size_t>(n), false);
  for (int i = 0; i < size_a; ++i) side[order[i]] = true;

  // KL passes: greedily swap the best (a, b) pair, lock both, keep the best
  // prefix of swaps; repeat while a pass improves the cut.
  //
  // The swap rule is exact: the largest d[a] + d[b] - 2*w(a, b), ties to the
  // smallest a, then the smallest b. Each step buckets the unlocked B nodes
  // by d (ascending id within a bucket), so a's best non-neighbour is the
  // first unmarked node of the highest bucket that has one; a's <= Δ
  // neighbours are scored directly. A step is O(n·Δ), a pass O(n²·Δ).
  const int dmax = g.max_degree();  // |d[v]| <= deg(v) throughout a pass
  const int nbuckets = 2 * dmax + 1;
  std::vector<int> bucket_start(static_cast<std::size_t>(nbuckets) + 1);
  std::vector<int> cursor(static_cast<std::size_t>(nbuckets));
  std::vector<NodeId> bucketed(static_cast<std::size_t>(n));
  // mark[v] == a iff v neighbours a: a marks its neighbours before it scans
  // the buckets, and the graph never changes, so stale marks stay true.
  std::vector<NodeId> mark(static_cast<std::size_t>(n), -1);
  bool improved = true;
  while (improved) {
    improved = false;
    std::vector<char> locked(static_cast<std::size_t>(n), 0);
    std::vector<int> d(static_cast<std::size_t>(n));
    for (NodeId v = 0; v < n; ++v) d[v] = d_value(g, side, v);

    std::vector<std::pair<NodeId, NodeId>> swaps;
    std::vector<int> gains;
    const int pairs = std::min(size_a, n - size_a);
    for (int step = 0; step < pairs; ++step) {
      // Counting sort of the unlocked B nodes by d, stable in id.
      std::fill(bucket_start.begin(), bucket_start.end(), 0);
      for (NodeId b = 0; b < n; ++b) {
        if (!locked[b] && !side[b]) ++bucket_start[d[b] + dmax + 1];
      }
      for (int i = 0; i < nbuckets; ++i) bucket_start[i + 1] += bucket_start[i];
      std::copy(bucket_start.begin(), bucket_start.end() - 1, cursor.begin());
      int top = -1;  // highest non-empty bucket
      for (NodeId b = 0; b < n; ++b) {
        if (locked[b] || side[b]) continue;
        const int i = d[b] + dmax;
        bucketed[static_cast<std::size_t>(cursor[i]++)] = b;
        top = std::max(top, i);
      }

      int best_gain = std::numeric_limits<int>::min();
      NodeId best_a = -1, best_b = -1;
      for (NodeId a = 0; a < n; ++a) {
        if (locked[a] || !side[a]) continue;
        // No b scores above the top bucket; an equal gain loses to an
        // earlier a.
        if (top < 0 || (best_a != -1 && d[a] + top - dmax <= best_gain)) continue;
        int score = std::numeric_limits<int>::min();  // best d[b] - 2*w(a, b)
        NodeId pick = -1;
        for (NodeId u : g.neighbors(a)) {
          mark[u] = a;
          if (locked[u] || side[u]) continue;
          const int su = d[u] - 2;
          if (su > score || (su == score && u < pick)) {
            score = su;
            pick = u;
          }
        }
        for (int i = top; i >= 0; --i) {
          if (i - dmax < score) break;  // no better non-neighbour remains
          const int lo = bucket_start[i], hi = bucket_start[i + 1];
          int j = lo;
          while (j < hi && mark[bucketed[static_cast<std::size_t>(j)]] == a) ++j;
          if (j == hi) continue;
          const NodeId b = bucketed[static_cast<std::size_t>(j)];
          if (i - dmax > score || b < pick) {
            score = i - dmax;
            pick = b;
          }
          break;
        }
        if (pick == -1) continue;
        const int gain = d[a] + score;
        if (gain > best_gain) {
          best_gain = gain;
          best_a = a;
          best_b = pick;
        }
      }
      if (best_a == -1) break;
      locked[best_a] = locked[best_b] = 1;
      swaps.emplace_back(best_a, best_b);
      gains.push_back(best_gain);
      // Update D-values of unlocked nodes as if the swap was applied; only
      // neighbours of the swapped pair change.
      for (NodeId x : {best_a, best_b}) {
        for (NodeId v : g.neighbors(x)) {
          if (!locked[v]) d[v] += side[v] == side[x] ? 2 : -2;
        }
      }
    }

    // Best prefix of cumulative gains.
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

  return BisectionResult{side, cut_size(g, side)};
}

BisectionResult min_bisection_estimate(const Graph& g, Rng& rng, int restarts) {
  check(restarts >= 1, "min_bisection_estimate: restarts must be >= 1");
  BisectionResult best = kernighan_lin_bisection(g, rng);
  for (int i = 1; i < restarts; ++i) {
    BisectionResult r = kernighan_lin_bisection(g, rng);
    if (r.cut_edges < best.cut_edges) best = std::move(r);
  }
  return best;
}

std::vector<int> balanced_partition(const Graph& g, int k, Rng& rng, int restarts) {
  const int n = g.num_nodes();
  check(n >= 1, "balanced_partition: empty graph");
  check(k >= 1, "balanced_partition: k must be >= 1");
  check(restarts >= 1, "balanced_partition: restarts must be >= 1");
  k = std::min(k, n);
  std::vector<int> part(static_cast<std::size_t>(n), 0);
  if (k == 1) return part;

  struct Job {
    std::vector<NodeId> nodes;  // global ids, subgraph membership
    int parts;
    int base;  // first part id assigned to this subgraph
  };
  std::vector<Job> stack;
  {
    std::vector<NodeId> all(static_cast<std::size_t>(n));
    std::iota(all.begin(), all.end(), 0);
    stack.push_back({std::move(all), k, 0});
  }

  while (!stack.empty()) {
    Job job = std::move(stack.back());
    stack.pop_back();
    const int nn = static_cast<int>(job.nodes.size());
    if (job.parts == 1) {
      for (NodeId v : job.nodes) part[static_cast<std::size_t>(v)] = job.base;
      continue;
    }
    // Left takes kl of the parts and a proportional node share such that
    // every final part ends up with floor(n/k) or floor(n/k)+1 nodes.
    const int kl = job.parts / 2;
    const int base_size = nn / job.parts;
    const int bigs = nn % job.parts;
    const int target_a = kl * base_size + std::min(bigs, kl);

    // Induced subgraph with local ids in job.nodes order.
    Graph sub(nn);
    std::vector<int> local(static_cast<std::size_t>(n), -1);
    for (int i = 0; i < nn; ++i) local[static_cast<std::size_t>(job.nodes[i])] = i;
    for (int i = 0; i < nn; ++i) {
      for (NodeId u : g.neighbors(job.nodes[static_cast<std::size_t>(i)])) {
        const int j = local[static_cast<std::size_t>(u)];
        if (j > i) sub.add_edge(i, j);
      }
    }

    BisectionResult best = kernighan_lin_bisection(sub, rng, target_a);
    for (int r = 1; r < restarts; ++r) {
      BisectionResult cand = kernighan_lin_bisection(sub, rng, target_a);
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

}  // namespace jf::graph
