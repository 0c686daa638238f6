#include "graph/shortest_path.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>
#include <queue>

namespace disco {
namespace {

struct QueueItem {
  Dist dist;
  NodeId node;
  // Min-heap by (dist, node id); the id tie-break makes settling order (and
  // therefore truncated vicinities) deterministic across runs.
  bool operator>(const QueueItem& o) const {
    return dist > o.dist || (dist == o.dist && node > o.node);
  }
};

using MinQueue =
    std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>>;

// Appends v's parent chain up to its root: `root`, or the node whose
// parent is kInvalidNode.
bool AppendParentChain(const std::vector<Dist>& dist,
                       const std::vector<NodeId>& parent, NodeId v,
                       NodeId root, std::vector<NodeId>* out) {
  if (dist[v] >= kInfDist) return false;
  for (NodeId cur = v; cur != kInvalidNode; cur = parent[cur]) {
    out->push_back(cur);
    if (cur == root) break;
  }
  return true;
}

}  // namespace

std::vector<NodeId> ShortestPathTree::PathTo(NodeId v) const {
  std::vector<NodeId> path;
  AppendPathToSource(v, &path);
  std::reverse(path.begin(), path.end());
  return path;
}

bool ShortestPathTree::AppendPathToSource(NodeId v,
                                          std::vector<NodeId>* out) const {
  return AppendParentChain(dist, parent, v, source, out);
}

ShortestPathTree Dijkstra(const Graph& g, NodeId source) {
  const NodeId n = g.num_nodes();
  ShortestPathTree t;
  t.source = source;
  t.dist.assign(n, kInfDist);
  t.parent.assign(n, kInvalidNode);
  t.dist[source] = 0;

  MinQueue q;
  q.push({0, source});
  while (!q.empty()) {
    const auto [d, v] = q.top();
    q.pop();
    if (d > t.dist[v]) continue;  // stale entry
    for (const Neighbor& nb : g.neighbors(v)) {
      const Dist nd = d + nb.weight;
      if (nd < t.dist[nb.to] ||
          (nd == t.dist[nb.to] && v < t.parent[nb.to])) {
        t.dist[nb.to] = nd;
        t.parent[nb.to] = v;
        q.push({nd, nb.to});
      }
    }
  }
  return t;
}

namespace {

// Per-thread state of the truncated searches (KNearest, WithinRadius).
// The arrays grow to the largest graph searched on the thread and stay
// clean between calls: every node a search writes is listed in `touched`
// and reset before the search returns, so a call costs O(nodes touched)
// instead of allocating and zero-filling three O(n) arrays.
struct SearchScratch {
  std::vector<Dist> dist;
  std::vector<NodeId> parent;
  std::vector<char> settled;
  std::vector<NodeId> touched;
  std::vector<QueueItem> heap;
};

// Claims the thread's scratch for one search and resets what the search
// touched on exit, exceptions included.
class ScratchLease {
 public:
  explicit ScratchLease(NodeId n) : s_(Scratch()) {
    if (s_.dist.size() < n) {
      s_.dist.resize(n, kInfDist);
      s_.parent.resize(n, kInvalidNode);
      s_.settled.resize(n, 0);
    }
  }
  ~ScratchLease() {
    for (const NodeId v : s_.touched) {
      s_.dist[v] = kInfDist;
      s_.parent[v] = kInvalidNode;
      s_.settled[v] = 0;
    }
    s_.touched.clear();
    s_.heap.clear();
  }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  SearchScratch& operator*() const { return s_; }

 private:
  static SearchScratch& Scratch() {
    thread_local SearchScratch scratch;
    return scratch;
  }
  SearchScratch& s_;
};

// Dijkstra from `source` that settles nodes in (dist, id) order into
// `out` until `k` are settled or nothing within `bound` remains. It never
// relaxes an arc that lands farther than `bound` and skips a settled
// node's whole adjacency when even its lightest arc would. Both skips are
// exact: a relaxation beyond the bound can neither settle a node within
// it nor change the parent of one. Once k nodes have been discovered,
// the k-th closest node lies no farther than the largest of their
// tentative distances, so the bound tightens to that value.
void TruncatedSearch(const Graph& g, NodeId source, std::size_t k,
                     Dist bound, std::vector<NearNode>* out) {
  out->clear();
  if (k == 0) return;
  const ScratchLease lease(g.num_nodes());
  SearchScratch& s = *lease;
  const auto discover = [&](NodeId v) {
    s.touched.push_back(v);
    if (s.touched.size() != k) return;
    Dist kth = 0;
    for (const NodeId t : s.touched) kth = std::max(kth, s.dist[t]);
    bound = std::min(bound, kth);
  };
  const auto push = [&](Dist d, NodeId v) {
    s.heap.push_back({d, v});
    std::push_heap(s.heap.begin(), s.heap.end(), std::greater<>());
  };

  s.dist[source] = 0;
  discover(source);
  push(0, source);
  const Dist w_min = g.min_weight();
  while (!s.heap.empty() && out->size() < k) {
    std::pop_heap(s.heap.begin(), s.heap.end(), std::greater<>());
    const auto [d, v] = s.heap.back();
    s.heap.pop_back();
    if (s.settled[v] || d > s.dist[v]) continue;
    s.settled[v] = 1;
    out->push_back({v, s.parent[v], d});
    if (d + w_min > bound) continue;
    for (const Neighbor& nb : g.neighbors(v)) {
      const Dist nd = d + nb.weight;
      if (nd > bound) continue;
      Dist& cur = s.dist[nb.to];
      if (nd < cur || (nd == cur && v < s.parent[nb.to])) {
        const bool fresh = cur == kInfDist;
        cur = nd;
        s.parent[nb.to] = v;
        if (fresh) discover(nb.to);
        push(nd, nb.to);
      }
    }
  }
}

}  // namespace

std::vector<NearNode> KNearest(const Graph& g, NodeId source, std::size_t k) {
  std::vector<NearNode> out;
  out.reserve(std::min<std::size_t>(k, g.num_nodes()));
  TruncatedSearch(g, source, k, kInfDist, &out);
  return out;
}

void KNearest(const Graph& g, NodeId source, std::size_t k,
              std::vector<NearNode>* out) {
  TruncatedSearch(g, source, k, kInfDist, out);
}

std::vector<NearNode> WithinRadius(const Graph& g, NodeId source,
                                   Dist radius) {
  std::vector<NearNode> out;
  WithinRadius(g, source, radius, &out);
  return out;
}

void WithinRadius(const Graph& g, NodeId source, Dist radius,
                  std::vector<NearNode>* out) {
  TruncatedSearch(g, source, std::numeric_limits<std::size_t>::max(),
                  radius, out);
}

std::vector<NodeId> MultiSourceTree::PathFromSource(NodeId v) const {
  std::vector<NodeId> path;
  AppendPathToSource(v, &path);
  std::reverse(path.begin(), path.end());
  return path;
}

bool MultiSourceTree::AppendPathToSource(NodeId v,
                                         std::vector<NodeId>* out) const {
  return AppendParentChain(dist, parent, v, kInvalidNode, out);
}

MultiSourceTree MultiSourceDijkstra(const Graph& g,
                                    const std::vector<NodeId>& sources) {
  const NodeId n = g.num_nodes();
  MultiSourceTree t;
  t.dist.assign(n, kInfDist);
  t.parent.assign(n, kInvalidNode);
  t.closest.assign(n, kInvalidNode);

  MinQueue q;
  for (const NodeId s : sources) {
    // Smaller source id wins ties at the seed level.
    if (t.dist[s] == 0 && t.closest[s] != kInvalidNode &&
        t.closest[s] < s) {
      continue;
    }
    t.dist[s] = 0;
    t.closest[s] = s;
    q.push({0, s});
  }
  while (!q.empty()) {
    const auto [d, v] = q.top();
    q.pop();
    if (d > t.dist[v]) continue;
    for (const Neighbor& nb : g.neighbors(v)) {
      const Dist nd = d + nb.weight;
      const bool better =
          nd < t.dist[nb.to] ||
          (nd == t.dist[nb.to] && t.closest[v] < t.closest[nb.to]);
      if (better) {
        t.dist[nb.to] = nd;
        t.parent[nb.to] = v;
        t.closest[nb.to] = t.closest[v];
        q.push({nd, nb.to});
      }
    }
  }
  return t;
}

Dist PathLength(const Graph& g, const std::vector<NodeId>& path) {
  if (path.size() < 2) return 0;
  Dist total = 0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    Dist best = kInfDist;
    for (const Neighbor& nb : g.neighbors(path[i])) {
      if (nb.to == path[i + 1]) best = std::min(best, nb.weight);
    }
    if (best == kInfDist) return kInfDist;
    total += best;
  }
  return total;
}

}  // namespace disco
