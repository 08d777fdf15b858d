#include "graph/yen.h"

#include <algorithm>
#include <set>
#include <span>
#include <utility>

#include "common/check.h"

namespace jf::graph {

namespace {

// Per-call search state: the adjacency sorted once by neighbour id (CSR), and
// one parent array reused across every spur search of the call.
class MaskedBfs {
 public:
  explicit MaskedBfs(const Graph& g)
      : offset_(static_cast<std::size_t>(g.num_nodes()) + 1),
        parent_(static_cast<std::size_t>(g.num_nodes()), kUnseen) {
    const int n = g.num_nodes();
    nbrs_.reserve(2 * g.num_edges());
    for (NodeId u = 0; u < n; ++u) {
      offset_[u] = static_cast<int>(nbrs_.size());
      nbrs_.insert(nbrs_.end(), g.neighbors(u).begin(), g.neighbors(u).end());
      std::sort(nbrs_.begin() + offset_[u], nbrs_.end());
    }
    offset_[n] = static_cast<int>(nbrs_.size());
    queue_.reserve(static_cast<std::size_t>(n));
  }

  // BFS shortest path from s to t avoiding `blocked_nodes` and the edges
  // {s, v} for v in `blocked_next`. Yen only ever blocks edges out of the
  // spur node, which is the search source here, so no other edge needs a
  // check. Neighbours are visited smallest id first, so parents (and thus
  // paths) do not depend on adjacency-list mutation history. Returns {} if
  // t is unreachable.
  std::vector<NodeId> shortest_path(NodeId s, NodeId t, std::span<const NodeId> blocked_nodes,
                                    const std::vector<NodeId>& blocked_next) {
    for (NodeId x : blocked_nodes) parent_[x] = kRoot;  // seen, never expanded
    queue_.clear();
    parent_[s] = kRoot;
    queue_.push_back(s);
    for (std::size_t head = 0; head < queue_.size() && parent_[t] == kUnseen; ++head) {
      const NodeId u = queue_[head];
      for (int i = offset_[u]; i < offset_[u + 1]; ++i) {
        const NodeId v = nbrs_[static_cast<std::size_t>(i)];
        if (parent_[v] != kUnseen) continue;
        if (u == s &&
            std::find(blocked_next.begin(), blocked_next.end(), v) != blocked_next.end()) {
          continue;
        }
        parent_[v] = u;
        queue_.push_back(v);
      }
    }
    std::vector<NodeId> path;
    if (parent_[t] != kUnseen) {
      for (NodeId cur = t; cur != kRoot; cur = parent_[cur]) path.push_back(cur);
      std::reverse(path.begin(), path.end());
    }
    // Reset through the visited list.
    for (NodeId v : queue_) parent_[v] = kUnseen;
    for (NodeId x : blocked_nodes) parent_[x] = kUnseen;
    return path;
  }

 private:
  static constexpr NodeId kUnseen = -2;
  static constexpr NodeId kRoot = -1;

  std::vector<int> offset_;
  std::vector<NodeId> nbrs_;
  std::vector<NodeId> parent_;  // kUnseen until reached
  std::vector<NodeId> queue_;   // doubles as the visited list
};

}  // namespace

std::vector<std::vector<NodeId>> k_shortest_paths(const Graph& g, NodeId s, NodeId t, int k) {
  check(s >= 0 && s < g.num_nodes() && t >= 0 && t < g.num_nodes(),
        "k_shortest_paths: bad endpoints");
  check(k >= 1, "k_shortest_paths: k must be >= 1");
  if (s == t) return {{s}};

  using Path = std::vector<NodeId>;
  auto path_less = [](const Path& x, const Path& y) {
    if (x.size() != y.size()) return x.size() < y.size();
    return x < y;  // lexicographic tiebreak
  };

  std::vector<Path> result;
  // Candidate pool ordered by (length, lex); a set both orders and dedupes.
  std::set<Path, decltype(path_less)> candidates(path_less);

  MaskedBfs bfs(g);
  std::vector<NodeId> blocked_next;  // spur's blocked next hops, <= k entries

  Path first = bfs.shortest_path(s, t, {}, blocked_next);
  if (first.empty()) return {};
  result.push_back(std::move(first));

  while (static_cast<int>(result.size()) < k) {
    const Path& prev = result.back();
    // Spur node ranges over all but the last node of the previous path.
    for (std::size_t i = 0; i + 1 < prev.size(); ++i) {
      const NodeId spur = prev[i];
      const Path root(prev.begin(), prev.begin() + static_cast<std::ptrdiff_t>(i) + 1);

      // Block the next edge of every accepted path sharing this root; each
      // such edge leaves the spur node.
      blocked_next.clear();
      for (const Path& p : result) {
        if (p.size() > i && std::equal(root.begin(), root.end(), p.begin())) {
          blocked_next.push_back(p[i + 1]);
        }
      }
      // Block root nodes except the spur to keep paths loopless.
      Path spur_path =
          bfs.shortest_path(spur, t, std::span<const NodeId>(root.data(), i), blocked_next);
      if (spur_path.empty()) continue;

      Path total(root.begin(), root.end() - 1);
      total.insert(total.end(), spur_path.begin(), spur_path.end());
      if (std::find(result.begin(), result.end(), total) == result.end()) {
        candidates.insert(std::move(total));
      }
    }
    if (candidates.empty()) break;
    result.push_back(*candidates.begin());
    candidates.erase(candidates.begin());
  }
  return result;
}

}  // namespace jf::graph
