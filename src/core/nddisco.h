// NDDisco (§4.2): the name-dependent distributed compact routing protocol
// underlying Disco, a distributed realization of Thorup–Zwick's
// handshaking-based scheme [44].
//
// Converged state per node: shortest paths to all Θ(sqrt(n ln n)) landmarks
// and to the k = Θ(sqrt(n ln n)) closest nodes (the vicinity). A node's
// address is (l_v, explicit route l_v ; v). Given the destination's
// address, the first packet takes s ; l_t ; t (stretch ≤ 5); the handshake
// then lets t install the direct path when s ∈ V(t), and every later packet
// has stretch ≤ 3 (often 1).
//
// This class is the static simulator's view: it materializes the routes the
// converged distributed protocol would use, with the shortcutting
// heuristics of Fig. 6 applied on top. The DES in src/sim/ reproduces the
// convergence messaging of the same protocol.
//
// Routes come out of the shortcut kernel (core/shortcut.h): plan segments
// are appended into per-thread scratch straight from the parent chains of
// the vicinity, the landmark tree and the closest-landmark forest, and
// only the chosen path is copied into Route::path. A segment that cannot
// reach its end (the endpoints lie in different components) empties its
// plan, so such a query returns a failed Route rather than a path that is
// not a walk from s to t.
//
// Converged tables never change, so serving reads them from frozen
// tables: PrewarmVicinities() and PrewarmLandmarkTrees() build immutable
// vicinity and landmark-tree tables that queries read with no lock. Nodes
// and landmarks outside them fall through to bounded LRUs that compute on
// demand (the counted miss path).
#pragma once

#include <memory>
#include <vector>

#include "core/name_resolution.h"
#include "core/route.h"
#include "core/shortcut.h"
#include "core/state.h"
#include "graph/graph.h"
#include "routing/address.h"
#include "routing/landmark_trees.h"
#include "routing/landmarks.h"
#include "routing/params.h"
#include "routing/vicinity.h"

namespace disco {

class NdDisco {
 public:
  NdDisco(const Graph& g, const Params& params);

  /// Operator-chosen landmarks (§6): any set works as long as each node
  /// keeps a landmark in its vicinity; the stretch machinery is unchanged.
  NdDisco(const Graph& g, const Params& params, LandmarkSet landmarks);

  const Graph& graph() const { return *g_; }
  const Params& params() const { return params_; }
  const LandmarkSet& landmarks() const { return landmarks_; }
  const AddressBook& addresses() const { return addresses_; }
  std::size_t vicinity_size() const { return vicinities_.k(); }

  /// The converged vicinity of v: a lock-free read of the frozen table
  /// when v was prewarmed, else computed on the counted miss path.
  VicinityRef vicinity(NodeId v) {
    return vicinities_.Get(v);
  }

  /// Freezes the vicinities of `nodes`, computed over the runtime thread
  /// pool (wall-clock only; contents are deterministic). Use before a
  /// sweep or a serving run that routes from a known set of sources.
  void PrewarmVicinities(const std::vector<NodeId>& nodes) {
    vicinities_.Prewarm(nodes);
  }

  /// Resolves every landmark tree over the thread pool up front and
  /// freezes the set (when it fits in the cache). For sweeps that will
  /// touch most landmarks anyway; ad-hoc routing should stay lazy/LRU.
  void PrewarmLandmarkTrees() { trees_.Prewarm(); }

  /// The Dijkstra tree of landmark l (frozen or memoized); how every node
  /// knows its shortest path to l.
  std::shared_ptr<const ShortestPathTree> LandmarkTree(NodeId l) {
    return trees_.Tree(l);
  }

  /// Whether u can route to t with no extra information: t is a landmark
  /// or t ∈ V(u).
  bool KnowsDirect(NodeId u, NodeId t);

  /// Appends the shortest path u .. t if u knows one directly (u == t,
  /// t ∈ V(u), or a reachable landmark t); else appends nothing and
  /// returns false.
  bool AppendDirectPath(NodeId u, NodeId t, std::vector<NodeId>* out);

  /// The shortest path u -> t if u knows one directly; empty otherwise.
  std::vector<NodeId> DirectPath(NodeId u, NodeId t);

  /// Appends the planned first-packet path s .. t (before shortcutting):
  /// direct if s knows t, else s ; l_t ; t along l_t's tree and t's
  /// address route. Returns whether the plan is s's direct path. If a
  /// segment is unreachable, clears all of `out`: a plan that cannot reach
  /// t is no plan.
  bool AppendFirstPacketPlan(NodeId s, NodeId t, std::vector<NodeId>* out);

  /// The first-packet plan as a fresh vector (empty if unreachable).
  std::vector<NodeId> FirstPacketPlan(NodeId s, NodeId t);

  /// Routes the first packet of a flow, s knowing t's address
  /// (name-dependent model). Worst-case stretch 5.
  Route RouteFirst(NodeId s, NodeId t,
                   Shortcut mode = Shortcut::kNoPathKnowledge);

  /// Routes packets after the handshake: direct if either endpoint has the
  /// other in its vicinity, else via l_t. Worst-case stretch 3 w.h.p.
  Route RouteLater(NodeId s, NodeId t,
                   Shortcut mode = Shortcut::kNoPathKnowledge);

  /// RouteLater without the copy out: the chosen route as a candidate in
  /// `scratch` (valid until its next use).
  RouteCandidate RouteLaterInto(NodeId s, NodeId t, Shortcut mode,
                                ShortcutScratch* scratch);

  /// The shortcut kernel over this protocol's converged tables, for a
  /// caller-supplied plan (Disco plans longer first-packet routes but
  /// shortcuts through the same tables).
  template <class Plan>
  RouteCandidate ShortcutPlan(Shortcut mode, NodeId s, NodeId t, Plan&& plan,
                              ShortcutScratch* scratch) {
    return ShortcutRoute(
        mode, *g_, s, t, plan,
        [this](NodeId u, NodeId v, std::vector<NodeId>* out) {
          return AppendDirectPath(u, v, out);
        },
        [this](NodeId u) { return vicinities_.Get(u); }, scratch);
  }

  /// Data-plane state of node v (§4.5): landmark routes, vicinity routes,
  /// forwarding-label map, plus hosted resolution records when `resolution`
  /// is provided and v is a landmark.
  StateBreakdown State(NodeId v, const ResolutionDb* resolution = nullptr);

 private:
  /// RouteFirst without the copy out.
  RouteCandidate RouteFirstInto(NodeId s, NodeId t, Shortcut mode,
                                ShortcutScratch* scratch);

  const Graph* g_;
  Params params_;
  LandmarkSet landmarks_;
  AddressBook addresses_;
  VicinityCache vicinities_;
  LandmarkTreeCache trees_;
};

}  // namespace disco
