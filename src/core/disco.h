// Disco (§4.4): name-independent compact routing — the paper's headline
// system. Composition of:
//   * NDDisco          (name-dependent routing on addresses, §4.2)
//   * ResolutionDb     (consistent hashing over landmarks, §4.3)
//   * SloppyGroups     (hash-prefix groups of ~sqrt(n) log n nodes, §4.4)
//   * Overlay          (Symphony-style dissemination of addresses, §4.4)
//
// To route to a flat name t, a source s that doesn't know t directly finds
// the vicinity member w with the longest hash-prefix match against h(t);
// w.h.p. w belongs to t's sloppy group and stores t's current address, so
// the first packet travels s ; w ; l_t ; t — stretch ≤ 7 (Theorem 1).
// After the handshake, packets take the NDDisco route: stretch ≤ 3.
// If no group member sits in the vicinity (w.h.p. never), the landmark
// resolution DB answers as a fallback.
//
// Routing runs NDDisco's shortcut kernel with Disco's longer first-packet
// plan: the s ; w segment comes from V(s), the rest from the same
// converged tables, all appended into per-thread scratch. A later packet
// compares the NDDisco candidate (scratch frame 0) with the first-packet
// one (frame 1) and copies out only the shorter, so every query allocates
// just its returned path.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "core/name_resolution.h"
#include "core/names.h"
#include "core/nddisco.h"
#include "core/overlay.h"
#include "core/route.h"
#include "core/sloppy_group.h"
#include "core/state.h"
#include "graph/graph.h"
#include "routing/params.h"

namespace disco {

class Disco {
 public:
  /// Builds the full protocol with default ("node-<i>") names and exact
  /// knowledge of n.
  Disco(const Graph& g, const Params& params);

  /// Custom names and (optionally) per-node estimates of n; pass estimates
  /// to reproduce the §5.2 error-injection experiment. An empty estimate
  /// vector means every node knows n exactly.
  Disco(const Graph& g, const Params& params, NameTable names,
        std::vector<double> n_estimates = {});

  const Graph& graph() const { return nd_.graph(); }
  NdDisco& nd() { return nd_; }
  const NameTable& names() const { return names_; }
  const SloppyGroups& groups() const { return groups_; }
  const Overlay& overlay() const { return overlay_; }
  const ResolutionDb& resolution() const { return resolution_; }

  /// First packet of a flow toward a flat name (stretch ≤ 7 w.h.p.).
  Route RouteFirst(NodeId s, NodeId t,
                   Shortcut mode = Shortcut::kNoPathKnowledge);

  /// Packets after the handshake (stretch ≤ 3 w.h.p.).
  Route RouteLater(NodeId s, NodeId t,
                   Shortcut mode = Shortcut::kNoPathKnowledge);

  /// Name-keyed convenience API (the public face a deployment would use).
  /// Returns a failed Route if either name is unknown.
  Route RouteFirstByName(std::string_view from, std::string_view to,
                         Shortcut mode = Shortcut::kNoPathKnowledge);

  /// Full per-node state (§4.5): NDDisco state + stored sloppy-group
  /// addresses + overlay neighbors + hosted resolution records.
  StateBreakdown State(NodeId v);

 private:
  /// Appends the forward plan (before shortcutting) for the first packet
  /// s -> t and returns whether it is s's direct path; clears `out` if a
  /// segment is unreachable. Reports the contact or the fallback through
  /// the pointers that are non-null.
  bool AppendFirstPacketPlan(NodeId s, NodeId t, std::vector<NodeId>* out,
                             NodeId* contact, bool* fallback);

  /// RouteFirst without the copy out, in `scratch`.
  RouteCandidate RouteFirstInto(NodeId s, NodeId t, Shortcut mode,
                                ShortcutScratch* scratch, NodeId* contact,
                                bool* fallback);

  NameTable names_;
  NdDisco nd_;
  SloppyGroups groups_;
  ResolutionDb resolution_;
  Overlay overlay_;
};

}  // namespace disco
