// Yen's loopless k-shortest-paths algorithm (Yen 1971), unit edge weights.
//
// This is the path-computation primitive behind the paper's k-shortest-path
// routing (§5): with k = 8 it supplies the longer-than-shortest paths that
// ECMP cannot use. Paths are simple (loopless), returned sorted by
// (hop count, lexicographic node sequence), and deterministic for a given
// graph, which makes routing tables reproducible.
//
// Cost: each call sorts the adjacency by neighbour id once (O(m log Δ)) and
// reuses one set of BFS buffers for all of its spur searches, so a spur
// search allocates only the path it returns.
#pragma once

#include <vector>

#include "graph/graph.h"

namespace jf::graph {

// Up to `k` distinct loopless shortest paths from s to t (node sequences
// including both endpoints). Fewer are returned when fewer exist. s == t
// yields one trivial path {s}. Unreachable t yields an empty result.
std::vector<std::vector<NodeId>> k_shortest_paths(const Graph& g, NodeId s, NodeId t, int k);

}  // namespace jf::graph
