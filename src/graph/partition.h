// Kernighan-Lin balanced-bisection heuristic.
//
// Exact minimum bisection is NP-hard; the paper sidesteps it with the
// Bollobás probabilistic lower bound for RRGs and closed forms for Clos
// networks. We additionally provide this KL heuristic to produce concrete
// near-minimal bisections: it upper-bounds the true minimum cut and is used
// to cross-check the analytic bounds and to score irregular (expanded)
// topologies in the LEGUP-style comparison (Fig. 7).
#pragma once

#include <vector>

#include "common/rng.h"
#include "graph/graph.h"

namespace jf::graph {

struct BisectionResult {
  std::vector<bool> side;   // side[v] == true -> partition A
  std::size_t cut_edges = 0;  // edges crossing the partition
};

// KL contract (every entry point below): each step swaps the unlocked pair
// (a in A, b in B) with the largest gain d[a] + d[b] - 2*w(a, b), ties to
// the smallest a, then the smallest b; a pass keeps the best prefix of its
// swaps. One pass costs O(n²·Δ) for n nodes of maximum degree Δ (bucketed
// selection, neighbour-only D updates). The rng is drawn only for the
// random start, so outputs and rng state are fixed by the graph, the sizes
// and the seed.

// One KL run from a random balanced start. |A| = ceil(N/2).
BisectionResult kernighan_lin_bisection(const Graph& g, Rng& rng);

// One KL run with |A| pinned to `size_a` (1 <= size_a < N); swaps keep the
// side sizes fixed.
BisectionResult kernighan_lin_bisection(const Graph& g, Rng& rng, int size_a);

// Best of `restarts` KL runs (smallest cut).
BisectionResult min_bisection_estimate(const Graph& g, Rng& rng, int restarts);

// Balanced k-way partition by recursive KL bisection: part[v] in [0, k),
// part sizes differ by at most one, and each level splits an induced
// subgraph with side sizes proportional to the part counts it feeds (so
// odd k stays balanced). Deterministic given the rng state; used by the
// sharded packet simulator to carve the switch set into per-shard event
// domains with few cut links. k is clamped to [1, num_nodes].
std::vector<int> balanced_partition(const Graph& g, int k, Rng& rng, int restarts = 3);

}  // namespace jf::graph
