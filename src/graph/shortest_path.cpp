#include "graph/shortest_path.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "util/span.h"

namespace disco {
namespace {

// One (dist, node) heap entry packed into an unsigned 128-bit key: the
// distance's IEEE-754 bit pattern in the high 64 bits, the node id in the
// low 32. Distances are non-negative, and for non-negative doubles the bit
// pattern orders like the value, so one integer compare orders two keys
// by (dist, id). That order fixes every search's settling order, so the
// id tie-break keeps truncated vicinities deterministic across runs.
using HeapKey = unsigned __int128;

HeapKey Pack(Dist d, NodeId v) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  return (static_cast<HeapKey>(bits) << 64) | v;
}

Dist DistOf(HeapKey key) {
  const auto bits = static_cast<std::uint64_t>(key >> 64);
  Dist d;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

NodeId NodeOf(HeapKey key) { return static_cast<NodeId>(key); }

// The min-heap every search here runs on: 4-ary, so a pop's sift-down is
// half as deep as a binary heap's, and it picks the least of four
// adjacent children by arithmetic on compare results instead of branches.
// `keys_` holds size_ keys followed by at least four kNoKey sentinels, so
// every child group is full and no sentinel is ever chosen over a key.
class MinHeap {
 public:
  bool empty() const { return size_ == 0; }
  HeapKey top() const { return keys_[0]; }
  Span<const HeapKey> keys() const { return {keys_.data(), size_}; }
  void clear() {
    std::fill(keys_.begin(), keys_.begin() + size_, kNoKey);
    size_ = 0;
  }

  void push(HeapKey key) {
    if (keys_.size() < size_ + 5) keys_.resize(2 * size_ + 8, kNoKey);
    std::size_t i = size_++;
    while (i > 0) {
      const std::size_t up = (i - 1) / 4;
      if (keys_[up] <= key) break;
      keys_[i] = keys_[up];
      i = up;
    }
    keys_[i] = key;
  }

  void pop() {
    const HeapKey last = keys_[--size_];
    keys_[size_] = kNoKey;
    std::size_t i = 0;
    for (;;) {
      const std::size_t c = 4 * i + 1;
      if (c >= size_) break;
      const std::size_t a = c + (keys_[c + 1] < keys_[c]);
      const std::size_t b = c + 2 + (keys_[c + 3] < keys_[c + 2]);
      const std::size_t min = keys_[b] < keys_[a] ? b : a;
      if (last <= keys_[min]) break;
      keys_[i] = keys_[min];
      i = min;
    }
    keys_[i] = last;
  }

 private:
  static constexpr HeapKey kNoKey = ~HeapKey{0};
  std::vector<HeapKey> keys_;
  std::size_t size_ = 0;
};

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

// Every search below queues a node once per strict improvement of its
// distance. An equal distance through a smaller-id parent (or, in
// MultiSourceDijkstra, a smaller closest source) only relabels the node:
// the relaxing node is strictly closer, so the relabeled node's entry at
// that distance has not been taken out yet.
ShortestPathTree Dijkstra(const Graph& g, NodeId source) {
  const NodeId n = g.num_nodes();
  ShortestPathTree t;
  t.source = source;
  t.dist.assign(n, kInfDist);
  t.parent.assign(n, kInvalidNode);
  t.dist[source] = 0;

  MinHeap heap;
  heap.push(Pack(0, source));
  while (!heap.empty()) {
    const HeapKey key = heap.top();
    heap.pop();
    const Dist d = DistOf(key);
    const NodeId v = NodeOf(key);
    if (d > t.dist[v]) continue;  // stale entry
    for (const Neighbor& nb : g.neighbors(v)) {
      const Dist nd = d + nb.weight;
      Dist& cur = t.dist[nb.to];
      if (nd < cur) {
        cur = nd;
        t.parent[nb.to] = v;
        heap.push(Pack(nd, nb.to));
      } else if (nd == cur && v < t.parent[nb.to]) {
        t.parent[nb.to] = v;
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
// instead of allocating and filling O(n) arrays.
struct SearchScratch {
  std::vector<Dist> dist;
  std::vector<NodeId> parent;
  std::vector<std::uint64_t> at_bound;  // one bit per node, by id
  std::vector<NodeId> touched;
  MinHeap heap;
};

// Claims the thread's scratch for one search and resets what the search
// touched on exit, exceptions included.
class ScratchLease {
 public:
  explicit ScratchLease(NodeId n) : s_(Scratch()) {
    if (s_.dist.size() < n) {
      s_.dist.resize(n, kInfDist);
      s_.parent.resize(n, kInvalidNode);
      s_.at_bound.resize((n + 63) / 64, 0);
    }
  }
  ~ScratchLease() {
    for (const NodeId v : s_.touched) {
      s_.dist[v] = kInfDist;
      s_.parent[v] = kInvalidNode;
      s_.at_bound[v / 64] = 0;
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
// `out` until `k` are settled or nothing within `bound` remains.
//
// Pruning. It never relaxes an arc that lands farther than `bound` and
// skips a settled node's whole adjacency when even its lightest arc
// would. Both skips are exact: a relaxation beyond the bound can neither
// settle a node within it nor change the parent of one. Once k nodes have
// been discovered, the k-th closest node lies no farther than the largest
// of their tentative distances, so the bound tightens to that value.
//
// The bound level. A node relaxed to exactly the bound once the bound is
// known is not queued; it sets its bit in `at_bound` instead. When the
// heap's minimum reaches the bound, every node below it has settled, and
// the queued entries at the bound join the bitmap. Every arc is positive,
// so each possible parent of a node at the bound lies below it, has
// settled and has relaxed, smaller-id tie-break included: the node's
// parent is final, and settling it would relax nothing within the bound.
// The level is therefore emitted in id order by scanning the bitmap,
// skipping every bit whose node has since moved below the bound.
void TruncatedSearch(const Graph& g, NodeId source, std::size_t k,
                     Dist bound, std::vector<NearNode>* out) {
  out->clear();
  if (k == 0) return;
  const ScratchLease lease(g.num_nodes());
  SearchScratch& s = *lease;
  // at_bound words [lo_word, hi_word] may hold set bits.
  std::size_t lo_word = std::numeric_limits<std::size_t>::max();
  std::size_t hi_word = 0;
  const auto mark = [&](NodeId v) {
    const std::size_t w = v / 64;
    s.at_bound[w] |= std::uint64_t{1} << (v % 64);
    lo_word = std::min(lo_word, w);
    hi_word = std::max(hi_word, w);
  };
  const auto discover = [&](NodeId v) {
    s.touched.push_back(v);
    if (s.touched.size() != k) return;
    Dist kth = 0;
    for (const NodeId t : s.touched) kth = std::max(kth, s.dist[t]);
    bound = std::min(bound, kth);
  };
  const Dist w_min = g.min_weight();
  const auto settle = [&](Dist d, NodeId v) {
    out->push_back({v, s.parent[v], d});
    if (d + w_min > bound) return;
    for (const Neighbor& nb : g.neighbors(v)) {
      const Dist nd = d + nb.weight;
      if (nd > bound) continue;
      Dist& cur = s.dist[nb.to];
      if (nd < cur) {
        const bool fresh = cur == kInfDist;
        cur = nd;
        s.parent[nb.to] = v;
        if (fresh) discover(nb.to);
        if (nd == bound) {
          mark(nb.to);
        } else {
          s.heap.push(Pack(nd, nb.to));
        }
      } else if (nd == cur && v < s.parent[nb.to]) {
        s.parent[nb.to] = v;
      }
    }
  };

  s.dist[source] = 0;
  discover(source);
  settle(0, source);
  while (!s.heap.empty() && out->size() < k) {
    const HeapKey key = s.heap.top();
    const Dist d = DistOf(key);
    if (d >= bound) break;
    s.heap.pop();
    const NodeId v = NodeOf(key);
    if (d == s.dist[v]) settle(d, v);  // else stale
  }
  if (out->size() == k) return;
  for (const HeapKey key : s.heap.keys()) {
    if (DistOf(key) == bound) mark(NodeOf(key));
  }
  for (std::size_t w = lo_word; w <= hi_word; ++w) {
    for (std::uint64_t bits = s.at_bound[w]; bits != 0; bits &= bits - 1) {
      const auto v = static_cast<NodeId>(w * 64 + __builtin_ctzll(bits));
      if (s.dist[v] != bound) continue;
      out->push_back({v, s.parent[v], bound});
      if (out->size() == k) return;
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

  MinHeap heap;
  for (const NodeId s : sources) {
    if (t.closest[s] == s) continue;  // listed twice
    t.dist[s] = 0;
    t.closest[s] = s;
    heap.push(Pack(0, s));
  }
  while (!heap.empty()) {
    const HeapKey key = heap.top();
    heap.pop();
    const Dist d = DistOf(key);
    const NodeId v = NodeOf(key);
    if (d > t.dist[v]) continue;
    for (const Neighbor& nb : g.neighbors(v)) {
      const Dist nd = d + nb.weight;
      Dist& cur = t.dist[nb.to];
      // A tie goes to the smaller closest-source id.
      if (nd < cur || (nd == cur && t.closest[v] < t.closest[nb.to])) {
        if (nd < cur) heap.push(Pack(nd, nb.to));
        cur = nd;
        t.parent[nb.to] = v;
        t.closest[nb.to] = t.closest[v];
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
