// S4 (Mao et al., NSDI'07 [34]) — the closest prior distributed compact
// routing protocol and the paper's main comparison point.
//
// S4 adapts the Thorup–Zwick scheme of [44] §3: uniform-random landmarks
// plus per-node *clusters* — C(v) = {w : d(v,w) ≤ d(w, l_w)}, the nodes
// closer to v than to their own landmark. Routing goes toward l_t and cuts
// over to the direct path at the first node whose cluster contains t
// ("To-Destination" shortcutting is integral to S4), giving stretch ≤ 3
// once the destination's address is known.
//
// Two properties the evaluation exposes:
//  * clusters are unbounded — uniform-random landmark selection breaks the
//    TZ state bound, so central nodes can hold Θ(n) entries (footnote 6's
//    tree, and the Internet-like maps in Fig. 2/7);
//  * the first packet detours through the consistent-hashing resolution
//    landmark (S4's location service), so first-packet stretch is
//    unbounded (Fig. 3's S4-First tails).
#pragma once

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/name_resolution.h"
#include "core/names.h"
#include "core/route.h"
#include "core/state.h"
#include "graph/graph.h"
#include "graph/shortest_path.h"
#include "routing/address.h"
#include "routing/landmark_trees.h"
#include "routing/landmarks.h"
#include "routing/params.h"
#include "routing/vicinity.h"

namespace disco {

class S4 {
 public:
  S4(const Graph& g, const Params& params);

  const Graph& graph() const { return *g_; }
  const LandmarkSet& landmarks() const { return landmarks_; }
  const AddressBook& addresses() const { return addresses_; }
  const NameTable& names() const { return names_; }
  const ResolutionDb& resolution() const { return resolution_; }

  /// Fans every landmark-tree Dijkstra out over the thread pool up front
  /// (when the whole set fits in the cache). Harness-level opt-in for
  /// sweeps that will touch most landmarks; ad-hoc routing stays lazy.
  void PrewarmLandmarkTrees();

  /// d(t, l_t): the cluster-inclusion radius of destination t.
  Dist ClusterRadius(NodeId t) const {
    return addresses_.landmark_distance(t);
  }

  /// The "ball" of t: every node whose cluster contains t, i.e. all u with
  /// d(u,t) ≤ d(t,l_t), with parents for materializing direct paths.
  /// Memoized per destination.
  std::shared_ptr<const Vicinity> Ball(NodeId t);

  /// Routes a packet when s already knows t's address (post-resolution):
  /// toward l_t, cutting to the direct path at the first node whose
  /// cluster holds t. Stretch ≤ 3. Fails (empty path, kInfDist) when t
  /// is in another component.
  Route RouteLater(NodeId s, NodeId t);

  /// First packet of a flow: s only knows the flat name, so the packet
  /// detours via the resolution landmark owning h(t) (S4's location
  /// service), which forwards it with full knowledge of t's address.
  /// Fails when t or that landmark is in another component than s.
  Route RouteFirst(NodeId s, NodeId t);

  /// Data-plane state: landmark routes + cluster entries + label map +
  /// hosted resolution records. Cluster sizes for *all* nodes are computed
  /// on first use (one bounded Dijkstra per node, radius d(w, l_w)).
  StateBreakdown State(NodeId v);

  /// Cluster sizes for every node (the Fig. 2 state distribution). The
  /// per-node ball searches fan out over the runtime thread pool; counts
  /// are integer sums, so the result is thread-count-invariant.
  const std::vector<std::size_t>& ClusterSizes();

 private:
  /// Cluster-inclusion radius with a relative epsilon (see s4.cpp).
  Dist BallRadius(NodeId t) const;

  std::vector<NodeId> PlanVia(NodeId from, NodeId t);

  const Graph* g_;
  Params params_;
  LandmarkSet landmarks_;
  AddressBook addresses_;
  LandmarkTreeCache trees_;
  NameTable names_;
  ResolutionDb resolution_;

  // Guards the memo structures below; routing entry points are safe to
  // call concurrently (the ball/cluster computations themselves run
  // unlocked).
  std::mutex mu_;
  std::vector<std::size_t> cluster_sizes_;  // lazily filled
  // Memoized destination balls (routing touches few destinations but
  // repeatedly).
  std::unordered_map<NodeId, std::shared_ptr<const Vicinity>> balls_;
};

}  // namespace disco
