// Shortest-path machinery: full Dijkstra (landmark trees), truncated
// k-nearest Dijkstra (vicinities, §4.2), and multi-source Dijkstra (the
// closest-landmark forest that yields every node's address in one pass).
//
// All of them run on one 4-ary min-heap whose keys pack (dist, node id)
// into one unsigned 128-bit integer, so every search settles nodes in the
// same (dist, id) total order and its outputs do not depend on the heap.
// Edge weights must be positive.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace disco {

/// Result of a single-source Dijkstra: distances and parent pointers toward
/// the source. Unreachable nodes have dist == kInfDist, parent ==
/// kInvalidNode.
struct ShortestPathTree {
  NodeId source = kInvalidNode;
  std::vector<Dist> dist;
  std::vector<NodeId> parent;

  bool reachable(NodeId v) const { return dist[v] < kInfDist; }

  /// Path source -> v (inclusive of both endpoints). Empty if unreachable.
  std::vector<NodeId> PathTo(NodeId v) const;

  /// Appends the path v -> source (v's parent chain, both ends included).
  /// Returns false, appending nothing, if v is unreachable.
  bool AppendPathToSource(NodeId v, std::vector<NodeId>* out) const;
};

ShortestPathTree Dijkstra(const Graph& g, NodeId source);

/// One settled node of a truncated Dijkstra, in settling order. The two
/// ids lead so that the entry packs into 16 bytes with no padding.
struct NearNode {
  NodeId node = kInvalidNode;
  NodeId parent = kInvalidNode;  // previous hop toward the source
  Dist dist = 0;
};
static_assert(sizeof(NearNode) == 16, "NearNode must pack to 16 bytes");

/// The k nodes closest to `source` (including `source` itself at distance
/// 0), in nondecreasing distance order with ties broken by node id. Returns
/// fewer than k entries only if the component of `source` is smaller.
///
/// Deterministic tie-breaking matters: two nodes computing "the k closest"
/// must agree on the boundary, and tests rely on it. The result (node,
/// dist and parent) equals the (dist, id)-ordered prefix of a full
/// Dijkstra; the search only skips relaxations that provably cannot reach
/// that prefix, and costs O(nodes touched), not O(n), per call, plus one
/// word read per 64 ids that the k-th distance level spans. That level is
/// taken in id order from a per-thread bitmap once every closer node has
/// settled, not popped node by node from the heap.
std::vector<NearNode> KNearest(const Graph& g, NodeId source, std::size_t k);

/// The same search into a caller's buffer: `out` is cleared and refilled,
/// so a loop over many sources reuses one allocation.
void KNearest(const Graph& g, NodeId source, std::size_t k,
              std::vector<NearNode>* out);

/// Every node within distance `radius` (inclusive) of `source`, in
/// nondecreasing distance order with ties broken by id — the "ball" used
/// for S4 cluster computations (C(v) membership is a radius test). Costs
/// O(ball) per call, like KNearest, which it shares its search with (nodes
/// at exactly `radius` come from the bitmap).
std::vector<NearNode> WithinRadius(const Graph& g, NodeId source,
                                   Dist radius);

/// The same search into a caller's buffer (S4 computes one ball per node
/// of the network).
void WithinRadius(const Graph& g, NodeId source, Dist radius,
                  std::vector<NearNode>* out);

/// Multi-source Dijkstra: for every node, the distance and parent toward its
/// closest source (ties broken by smaller source id). `closest[v]` names
/// that source. This is exactly the "closest landmark forest": the parent
/// chain from v is the explicit route of v's address, reversed.
struct MultiSourceTree {
  std::vector<Dist> dist;
  std::vector<NodeId> parent;
  std::vector<NodeId> closest;

  /// Path from the closest source of v down to v (inclusive).
  std::vector<NodeId> PathFromSource(NodeId v) const;

  /// Appends the path v -> closest source (v's parent chain, both ends
  /// included). Returns false, appending nothing, if no source reaches v.
  bool AppendPathToSource(NodeId v, std::vector<NodeId>* out) const;
};

MultiSourceTree MultiSourceDijkstra(const Graph& g,
                                    const std::vector<NodeId>& sources);

/// Length of a node path under g's weights; kInfDist if any hop is missing.
Dist PathLength(const Graph& g, const std::vector<NodeId>& path);

}  // namespace disco
