#include "core/nddisco.h"

#include <algorithm>

#include "graph/shortest_path.h"

namespace disco {

NdDisco::NdDisco(const Graph& g, const Params& params)
    : NdDisco(g, params, SelectLandmarks(g.num_nodes(), params)) {}

NdDisco::NdDisco(const Graph& g, const Params& params, LandmarkSet landmarks)
    : g_(&g), params_(params), landmarks_(std::move(landmarks)),
      addresses_(g, landmarks_),
      vicinities_(g, VicinitySize(g.num_nodes(), params.vicinity_factor)),
      trees_(g, landmarks_, params.tree_cache_capacity) {}

bool NdDisco::KnowsDirect(NodeId u, NodeId t) {
  if (u == t) return true;
  if (landmarks_.Contains(t)) return true;
  return vicinities_.Get(u)->Contains(t);
}

bool NdDisco::AppendDirectPath(NodeId u, NodeId t,
                               std::vector<NodeId>* out) {
  if (u == t) {
    out->push_back(u);
    return true;
  }
  const auto vic = vicinities_.Get(u);
  if (const NearNode* m = vic->Find(t)) {
    const std::size_t start = out->size();
    vic->AppendPathToOwner(*m, out);
    std::reverse(out->begin() + static_cast<std::ptrdiff_t>(start),
                 out->end());
    return true;
  }
  // u's landmark table holds the shortest path to t: u's parent chain in
  // t's tree (the same length both ways in an undirected graph).
  return landmarks_.Contains(t) && trees_.Tree(t)->AppendPathToSource(u, out);
}

std::vector<NodeId> NdDisco::DirectPath(NodeId u, NodeId t) {
  std::vector<NodeId> path;
  AppendDirectPath(u, t, &path);
  return path;
}

bool NdDisco::AppendFirstPacketPlan(NodeId s, NodeId t,
                                    std::vector<NodeId>* out) {
  if (AppendDirectPath(s, t, out)) return true;
  // Segment s ; l_t from s's landmark table, then l_t ; t, the explicit
  // route of t's address: t's chain in the closest-landmark forest.
  const NodeId lt = addresses_.closest_landmark(t);
  if (lt == kInvalidNode || !trees_.Tree(lt)->AppendPathToSource(s, out)) {
    out->clear();
    return false;
  }
  out->pop_back();  // l_t starts the address route
  const std::size_t start = out->size();
  addresses_.forest().AppendPathToSource(t, out);
  std::reverse(out->begin() + static_cast<std::ptrdiff_t>(start),
               out->end());
  return false;
}

std::vector<NodeId> NdDisco::FirstPacketPlan(NodeId s, NodeId t) {
  std::vector<NodeId> plan;
  AppendFirstPacketPlan(s, t, &plan);
  return plan;
}

RouteCandidate NdDisco::RouteFirstInto(NodeId s, NodeId t, Shortcut mode,
                                       ShortcutScratch* scratch) {
  return ShortcutPlan(
      mode, s, t,
      [this](NodeId from, NodeId to, std::vector<NodeId>* out) {
        return AppendFirstPacketPlan(from, to, out);
      },
      scratch);
}

RouteCandidate NdDisco::RouteLaterInto(NodeId s, NodeId t, Shortcut mode,
                                       ShortcutScratch* scratch) {
  // Handshake (§4.2): t checked whether s ∈ V(t); if so it told s the
  // direct path, which is simply the shortest path: s's parent chain in
  // V(t).
  const auto vic = vicinities_.Get(t);
  if (const NearNode* m = vic->Find(s)) {
    scratch->forward.clear();
    vic->AppendPathToOwner(*m, &scratch->forward);
    return {&scratch->forward, PathLength(*g_, scratch->forward)};
  }
  // Otherwise later packets keep using the first-packet route (stretch ≤ 3
  // once both t ∉ V(s) and s ∉ V(t)).
  return RouteFirstInto(s, t, mode, scratch);
}

Route NdDisco::RouteFirst(NodeId s, NodeId t, Shortcut mode) {
  return RouteFirstInto(s, t, mode, &ThreadScratch(0)).ToRoute();
}

Route NdDisco::RouteLater(NodeId s, NodeId t, Shortcut mode) {
  return RouteLaterInto(s, t, mode, &ThreadScratch(0)).ToRoute();
}

StateBreakdown NdDisco::State(NodeId v, const ResolutionDb* resolution) {
  StateBreakdown b;
  b.landmark_entries = landmarks_.count();
  b.vicinity_entries = std::min<std::size_t>(vicinities_.k(),
                                             g_->num_nodes());
  // §4.5: forwarding-label mappings are needed only for interfaces on
  // shortest paths to landmarks or vicinity members.
  b.label_entries = std::min<std::size_t>(
      g_->degree(v), b.landmark_entries + b.vicinity_entries);
  if (resolution != nullptr) b.resolution_entries = resolution->EntriesAt(v);
  return b;
}

}  // namespace disco
