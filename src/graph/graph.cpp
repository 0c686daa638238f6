#include "graph/graph.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "runtime/parallel_for.h"

namespace disco {
namespace {

// Edge count above which GraphBuilder::Build lays the CSR out with the
// parallel two-pass plan. Below it the sequential fill is both faster and
// trivially identical to the historical FromEdges; above it the parallel
// plan reproduces the same arrays bit for bit (see Build).
constexpr std::size_t kParallelBuildEdges = std::size_t{1} << 15;

}  // namespace

Graph& Graph::operator=(const Graph& other) {
  if (this == &other) return *this;
  num_nodes_ = other.num_nodes_;
  num_edges_ = other.num_edges_;
  min_weight_ = other.min_weight_;
  if (other.backing_ != nullptr) {
    // Borrowed graphs alias immutable storage; copies share it.
    own_offsets_.clear();
    own_arc_to_.clear();
    own_arc_edge_.clear();
    own_ends_.clear();
    own_weights_.clear();
    backing_ = other.backing_;
    offsets_ = other.offsets_;
    arc_to_ = other.arc_to_;
    arc_edge_ = other.arc_edge_;
    ends_ = other.ends_;
    weights_ = other.weights_;
  } else {
    backing_.reset();
    own_offsets_ = other.own_offsets_;
    own_arc_to_ = other.own_arc_to_;
    own_arc_edge_ = other.own_arc_edge_;
    own_ends_ = other.own_ends_;
    own_weights_ = other.own_weights_;
    BindOwned();
  }
  return *this;
}

void Graph::BindOwned() {
  offsets_ = own_offsets_.data();
  arc_to_ = own_arc_to_.data();
  arc_edge_ = own_arc_edge_.data();
  ends_ = own_ends_.data();
  weights_ = own_weights_.data();
  ComputeMinWeight();
}

void Graph::ComputeMinWeight() {
  min_weight_ = kInfDist;
  for (std::size_t e = 0; e < num_edges_; ++e) {
    min_weight_ = std::min(min_weight_, weights_[e]);
  }
}

Graph Graph::FromEdges(NodeId n, Span<const WeightedEdge> edges) {
  GraphBuilder b(n, edges.size());
  b.Add(edges);
  return std::move(b).Build();
}

Graph Graph::FromSections(NodeId n, std::size_t m,
                          const std::uint64_t* offsets,
                          const NodeId* arc_to, const EdgeId* arc_edge,
                          const NodeId* ends, const double* weights,
                          std::shared_ptr<const void> backing) {
  Graph g;
  g.num_nodes_ = n;
  g.num_edges_ = m;
  g.offsets_ = offsets;
  g.arc_to_ = arc_to;
  g.arc_edge_ = arc_edge;
  g.ends_ = ends;
  g.weights_ = weights;
  g.backing_ = std::move(backing);
  g.ComputeMinWeight();
  return g;
}

int Graph::InterfaceTo(NodeId v, NodeId to) const {
  const auto ns = neighbor_ids(v);
  for (std::size_t i = 0; i < ns.size(); ++i) {
    if (ns[i] == to) return static_cast<int>(i);
  }
  return -1;
}

Dist Graph::total_weight() const {
  Dist sum = 0;
  for (std::size_t e = 0; e < num_edges_; ++e) sum += weights_[e];
  return sum;
}

GraphBuilder::GraphBuilder(NodeId n, std::size_t reserve_edges) : n_(n) {
  ends_.reserve(2 * reserve_edges);
  weights_.reserve(reserve_edges);
}

void GraphBuilder::Add(NodeId a, NodeId b, Dist weight) {
  assert(a < n_ && b < n_);
  assert(weight > 0);
  if (a == b) return;  // self-loops carry no routing information
  ends_.push_back(a);
  ends_.push_back(b);
  weights_.push_back(weight);
}

Graph GraphBuilder::Build() && {
  const NodeId n = n_;
  const std::size_t m = weights_.size();
  Graph g;
  g.num_nodes_ = n;
  g.num_edges_ = m;
  g.own_ends_ = std::move(ends_);
  g.own_weights_ = std::move(weights_);
  g.own_offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  g.own_arc_to_.resize(2 * m);
  g.own_arc_edge_.resize(2 * m);
  const NodeId* const ends = g.own_ends_.data();
  std::uint64_t* const offsets = g.own_offsets_.data();

  if (m < kParallelBuildEdges) {
    // Sequential two-pass fill — the historical FromEdges layout: arcs of
    // each node appear in ascending edge-id order because edges are
    // scanned in id order.
    std::vector<std::uint32_t> deg(n, 0);
    for (std::size_t e = 0; e < m; ++e) {
      ++deg[ends[2 * e]];
      ++deg[ends[2 * e + 1]];
    }
    for (NodeId v = 0; v < n; ++v) offsets[v + 1] = offsets[v] + deg[v];
    std::vector<std::uint64_t> fill(offsets, offsets + n);
    for (std::size_t e = 0; e < m; ++e) {
      const NodeId a = ends[2 * e], b = ends[2 * e + 1];
      const EdgeId id = static_cast<EdgeId>(e);
      g.own_arc_to_[fill[a]] = b;
      g.own_arc_edge_[fill[a]++] = id;
      g.own_arc_to_[fill[b]] = a;
      g.own_arc_edge_[fill[b]++] = id;
    }
    g.BindOwned();
    return g;
  }

  // Parallel plan: atomic degree histogram -> prefix sum -> atomic
  // placement of (edge id, to) pairs -> per-node sort by edge id. Within
  // one node's slice every edge id is distinct (self-loops were dropped;
  // parallel edges have distinct ids), so ascending edge id is a unique
  // total order — exactly the order the sequential fill produces — and
  // the result is bit-identical at any thread count. The atomics use the
  // default (sequentially consistent) order; on the architectures this
  // repo targets a contended fetch_add costs the same as a relaxed one,
  // and it keeps the determinism linter's relaxed-atomic rule moot.
  std::vector<std::atomic<std::uint32_t>> deg(n);
  runtime::ParallelFor(0, m, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t e = lo; e < hi; ++e) {
      deg[ends[2 * e]].fetch_add(1);
      deg[ends[2 * e + 1]].fetch_add(1);
    }
  });
  for (NodeId v = 0; v < n; ++v) offsets[v + 1] = offsets[v] + deg[v].load();

  std::vector<std::atomic<std::uint64_t>> cursor(n);
  runtime::ParallelFor(0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t v = lo; v < hi; ++v) cursor[v].store(offsets[v]);
  });
  // One packed word per arc: (edge id << 32) | to. Placement order is
  // schedule-dependent; the sort below erases it.
  std::vector<std::uint64_t> packed(2 * m);
  runtime::ParallelFor(0, m, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t e = lo; e < hi; ++e) {
      const NodeId a = ends[2 * e], b = ends[2 * e + 1];
      const std::uint64_t id = static_cast<std::uint64_t>(e) << 32;
      packed[cursor[a].fetch_add(1)] = id | b;
      packed[cursor[b].fetch_add(1)] = id | a;
    }
  });
  runtime::ParallelFor(0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t v = lo; v < hi; ++v) {
      std::sort(packed.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
                packed.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]));
    }
  });
  runtime::ParallelFor(0, 2 * m, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      g.own_arc_to_[i] = static_cast<NodeId>(packed[i]);
      g.own_arc_edge_[i] = static_cast<EdgeId>(packed[i] >> 32);
    }
  });
  g.BindOwned();
  return g;
}

}  // namespace disco
