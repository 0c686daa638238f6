// Shortcutting heuristics (§4.2 and Fig. 6 of the paper).
//
// A compact-routing route s ; l_t ; t is a plan, not a commitment: nodes
// along the way often know better. The paper evaluates six levels of
// opportunism, from none to full "Path Knowledge":
//
//   kNone                     follow the planned route verbatim
//   kToDestination            any on-path node that knows a direct path to
//                             the destination (vicinity or landmark) cuts
//                             over to it (S4's built-in behavior)
//   kShorterOfForwardReverse  also plan the reverse route t ; s and use
//                             whichever direction is shorter
//   kNoPathKnowledge          To-Destination + forward/reverse choice; the
//                             paper's default for all headline results
//   kUpDownStream             the first packet carries the planned node
//                             list; each on-path node may splice in a
//                             shorter vicinity path to *any* downstream
//                             node, not just the destination
//   kPathKnowledge            Up-Down-Stream + forward/reverse choice
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "routing/vicinity.h"

namespace disco {

enum class Shortcut {
  kNone,
  kToDestination,
  kShorterOfForwardReverse,
  kNoPathKnowledge,
  kUpDownStream,
  kPathKnowledge,
};

const char* ShortcutName(Shortcut mode);

/// All six modes, in the order of the paper's Fig. 6 table.
inline constexpr Shortcut kAllShortcuts[] = {
    Shortcut::kNone,
    Shortcut::kToDestination,
    Shortcut::kShorterOfForwardReverse,
    Shortcut::kNoPathKnowledge,
    Shortcut::kUpDownStream,
    Shortcut::kPathKnowledge,
};

/// Direct-knowledge oracle: the shortest path u -> t if u knows one
/// (t is a landmark or t ∈ V(u)); empty otherwise.
using DirectPathFn =
    std::function<std::vector<NodeId>(NodeId u, NodeId t)>;

/// Vicinity oracle for Up-Down-Stream splicing.
using VicinityFn = std::function<VicinityRef(NodeId u)>;

/// Walks `path` from the source; the first node whose oracle knows the
/// destination truncates the plan there and appends the direct path.
/// Never lengthens the route (a direct path is shortest from that node).
std::vector<NodeId> ApplyToDestination(std::vector<NodeId> path,
                                       const DirectPathFn& direct);

/// Up-Down-Stream: scanning forward, each reached node looks for the
/// farthest downstream plan node to which its vicinity knows a strictly
/// shorter path, and splices that path in. Subsumes To-Destination (the
/// destination is the last downstream node).
std::vector<NodeId> ApplyUpDownStream(const Graph& g,
                                      const std::vector<NodeId>& path,
                                      const VicinityFn& vicinity);

/// Applies `mode` given the forward plan and a lazy reverse plan (invoked
/// only for the modes that compare directions; it must return the t -> s
/// plan, which is reversed internally). Returns the chosen s -> t path.
std::vector<NodeId> ApplyShortcutMode(
    Shortcut mode, const Graph& g, std::vector<NodeId> forward_plan,
    const std::function<std::vector<NodeId>()>& reverse_plan,
    const DirectPathFn& direct, const VicinityFn& vicinity);

}  // namespace disco
