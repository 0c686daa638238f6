// Weighted undirected graph in compressed sparse row (CSR) form.
//
// This is the substrate every protocol routes over (§4.1 of the paper: an
// undirected connected network with arbitrary structure and link distances).
// Nodes are dense 32-bit indices; each undirected edge has a stable EdgeId
// shared by both directions (used by the congestion experiments to count how
// many routes cross each physical link).
//
// Storage is struct-of-arrays, packed for million-node topologies:
//   offsets[n+1]  uint64   CSR row starts (arc indices)
//   arc_to[2m]    uint32   neighbor node per arc
//   arc_edge[2m]  uint32   undirected edge id per arc
//   ends[2m]      uint32   (a, b) per edge, construction order preserved
//   weights[m]    double   one weight per undirected edge
// — ~28 bytes/arc-pair + 8/node instead of the former 24-byte padded
// Neighbor AoS plus a duplicate WeightedEdge list. A Graph either *owns*
// these arrays (vectors, built by GraphBuilder) or *borrows* them from an
// mmap'd v2 snapshot (graph/io.h) — zero-copy load, and the physical pages
// are shared read-only across every process that maps the same file. Both
// modes sit behind the same API; algorithms cannot tell them apart.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/span.h"

namespace disco {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;
using Dist = double;

inline constexpr NodeId kInvalidNode = 0xFFFFFFFFu;
inline constexpr Dist kInfDist = 1e300;

/// An undirected edge for graph construction.
struct WeightedEdge {
  NodeId a = 0;
  NodeId b = 0;
  Dist weight = 1.0;
};

/// One directed arc in the CSR adjacency of a node.
struct Neighbor {
  NodeId to = 0;
  Dist weight = 1.0;
  EdgeId edge = 0;  // undirected edge id, shared with the reverse arc
};

/// The adjacency of one node: a lightweight view over the packed CSR
/// columns that materializes Neighbor records on access. Indexing and
/// iteration yield by value (the arrays behind it may be a read-only
/// mmap); range-for over `const Neighbor&` still works via lifetime
/// extension, so call sites read exactly as they did over the old
/// Span<const Neighbor>.
class NeighborView {
 public:
  NeighborView(const NodeId* to, const EdgeId* edge, const double* weights,
               std::size_t size)
      : to_(to), edge_(edge), weights_(weights), size_(size) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  Neighbor operator[](std::size_t i) const {
    return {to_[i], weights_[edge_[i]], edge_[i]};
  }

  class iterator {
   public:
    using value_type = Neighbor;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::input_iterator_tag;
    using pointer = void;
    using reference = Neighbor;

    iterator(const NeighborView* view, std::size_t i)
        : view_(view), i_(i) {}
    Neighbor operator*() const { return (*view_)[i_]; }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const iterator& o) const { return i_ == o.i_; }
    bool operator!=(const iterator& o) const { return i_ != o.i_; }

   private:
    const NeighborView* view_;
    std::size_t i_;
  };

  iterator begin() const { return {this, 0}; }
  iterator end() const { return {this, size_}; }

 private:
  const NodeId* to_;
  const EdgeId* edge_;
  const double* weights_;
  std::size_t size_;
};

class Graph {
 public:
  Graph() = default;

  // Owned vectors move with their buffers, so the raw section pointers
  // stay valid; copies must rebind them (or share the mmap backing).
  Graph(Graph&&) noexcept = default;
  Graph& operator=(Graph&&) noexcept = default;
  Graph(const Graph& other) { *this = other; }
  Graph& operator=(const Graph& other);

  /// Builds a graph with `n` nodes from an undirected edge list.
  /// Self-loops are dropped; parallel edges are kept (they are harmless to
  /// every algorithm here). Edge weights must be positive.
  static Graph FromEdges(NodeId n, Span<const WeightedEdge> edges);

  NodeId num_nodes() const { return num_nodes_; }
  std::size_t num_edges() const { return num_edges_; }

  NeighborView neighbors(NodeId v) const {
    const std::uint64_t lo = offsets_[v];
    return {arc_to_ + lo, arc_edge_ + lo, weights_,
            static_cast<std::size_t>(offsets_[v + 1] - lo)};
  }

  /// The neighbor node ids of `v` as one contiguous slice of the CSR
  /// column — the zero-copy replacement for the old AdjacencyLists()
  /// materialization (gossip simulation et al. iterate this directly).
  Span<const NodeId> neighbor_ids(NodeId v) const {
    const std::uint64_t lo = offsets_[v];
    return {arc_to_ + lo, static_cast<std::size_t>(offsets_[v + 1] - lo)};
  }

  std::uint32_t degree(NodeId v) const {
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// The `i`-th undirected edge as given at construction. By value: the
  /// SoA layout has no WeightedEdge record to reference.
  WeightedEdge edge(EdgeId e) const {
    return {ends_[2 * static_cast<std::size_t>(e)],
            ends_[2 * static_cast<std::size_t>(e) + 1], weights_[e]};
  }

  /// Index of the arc (v -> to) within neighbors(v), or -1 if absent.
  /// Interface indices are what the compact label codec encodes.
  int InterfaceTo(NodeId v, NodeId to) const;

  /// Sum of edge weights (diagnostics).
  Dist total_weight() const;

  /// Smallest edge weight (kInfDist for an edgeless graph). Truncated
  /// searches use it to skip a node's whole adjacency when even its
  /// lightest arc would land beyond their distance bound.
  Dist min_weight() const { return min_weight_; }

  /// True when the arrays are a borrowed view (an mmap'd snapshot kept
  /// alive by the backing handle) rather than owned vectors.
  bool borrowed() const { return backing_ != nullptr; }

  // Raw packed sections, in the exact on-disk order of the v2 snapshot
  // format (graph/io.h) — the writer serializes these verbatim.
  Span<const std::uint64_t> csr_offsets() const {
    return {offsets_, static_cast<std::size_t>(num_nodes_) + 1};
  }
  Span<const NodeId> csr_to() const { return {arc_to_, 2 * num_edges_}; }
  Span<const EdgeId> csr_edge() const {
    return {arc_edge_, 2 * num_edges_};
  }
  Span<const NodeId> edge_ends() const { return {ends_, 2 * num_edges_}; }
  Span<const double> edge_weights() const { return {weights_, num_edges_}; }

  /// Wraps pre-validated packed sections without copying — the zero-copy
  /// load path (graph/io.h). `backing` keeps the storage (an mmap or an
  /// open artifact reader) alive for the graph's lifetime; the sections
  /// must satisfy every CSR invariant (io.cpp validates before calling).
  static Graph FromSections(NodeId n, std::size_t m,
                            const std::uint64_t* offsets,
                            const NodeId* arc_to, const EdgeId* arc_edge,
                            const NodeId* ends, const double* weights,
                            std::shared_ptr<const void> backing);

 private:
  friend class GraphBuilder;

  NodeId num_nodes_ = 0;
  std::size_t num_edges_ = 0;
  Dist min_weight_ = kInfDist;

  // Section pointers — into the own_* vectors (owned mode) or into
  // backing_'s storage (borrowed mode). Never null for a built graph; a
  // default-constructed Graph has n = 0 and no valid sections.
  const std::uint64_t* offsets_ = nullptr;  // n + 1
  const NodeId* arc_to_ = nullptr;          // 2m
  const EdgeId* arc_edge_ = nullptr;        // 2m
  const NodeId* ends_ = nullptr;            // 2m, (a, b) per edge
  const double* weights_ = nullptr;         // m

  std::vector<std::uint64_t> own_offsets_;
  std::vector<NodeId> own_arc_to_;
  std::vector<EdgeId> own_arc_edge_;
  std::vector<NodeId> own_ends_;
  std::vector<double> own_weights_;
  std::shared_ptr<const void> backing_;

  void BindOwned();
  void ComputeMinWeight();
};

/// Streaming CSR construction: generators Add() edges one (or a chunk) at
/// a time — no intermediate WeightedEdge list — and Build() lays out the
/// adjacency with a two-pass count/placement that parallelizes over the
/// shared pool for large graphs. Edge ids are assignment order of the
/// kept (non-self-loop) edges, bit-identical to the sequential fill at
/// any thread count.
class GraphBuilder {
 public:
  explicit GraphBuilder(NodeId n, std::size_t reserve_edges = 0);

  /// Appends one undirected edge. Self-loops are dropped (they carry no
  /// routing information); weights must be positive.
  void Add(NodeId a, NodeId b, Dist weight);

  void Add(Span<const WeightedEdge> edges) {
    for (const WeightedEdge& e : edges) Add(e.a, e.b, e.weight);
  }

  /// Edges kept so far (self-loops excluded).
  std::size_t num_edges() const { return weights_.size(); }

  /// Finalizes the CSR arrays. The builder is consumed.
  Graph Build() &&;

 private:
  NodeId n_;
  std::vector<NodeId> ends_;      // 2 per kept edge
  std::vector<double> weights_;   // 1 per kept edge
};

}  // namespace disco
