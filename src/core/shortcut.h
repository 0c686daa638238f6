// Shortcutting heuristics (§4.2 and Fig. 6 of the paper), and the route
// kernel that applies them.
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
//
// The kernel (ShortcutRoute) builds each plan into per-thread scratch
// buffers, shortcuts it in place, compares the candidate directions by
// PathLength and hands back the winner still in scratch; only the caller's
// final copy into Route::path allocates. The knowledge it consults is
// passed as plain callables (no std::function), so tests can substitute
// their own.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/route.h"
#include "graph/graph.h"
#include "graph/shortest_path.h"
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

/// To-Destination, in place: scanning plan positions [from, size - 1), the
/// first node u for which `append_direct(u, t, path)` appends a direct path
/// u .. t truncates the plan at u and splices that path in. Never lengthens
/// the route (a direct path is shortest from that node).
///
/// `append_direct(NodeId u, NodeId t, std::vector<NodeId>* out) -> bool`
/// appends the shortest path u .. t if u knows one, else appends nothing
/// and returns false.
template <class AppendDirect>
void CutToDestination(std::vector<NodeId>* path, std::size_t from,
                      AppendDirect&& append_direct) {
  const std::size_t end = path->size();
  if (end < 2) return;
  const NodeId t = path->back();
  for (std::size_t i = from; i + 1 < end; ++i) {
    if (!append_direct((*path)[i], t, path)) continue;
    // The plan up to u, then the appended u .. t.
    path->erase(path->begin() + static_cast<std::ptrdiff_t>(i),
                path->begin() + static_cast<std::ptrdiff_t>(end));
    return;
  }
}

/// `cum[i]`: the plan's hop-weight sum from its first node to position i.
void PlanPrefixLengths(const Graph& g, const std::vector<NodeId>& plan,
                       std::vector<Dist>* cum);

/// Up-Down-Stream: scanning forward, each reached node looks for the
/// farthest downstream plan node to which its vicinity knows a strictly
/// shorter path, and splices that path in. Subsumes To-Destination (the
/// destination is the last downstream node). Writes the result to `out`;
/// `cum` is scratch.
///
/// `vicinity_of(NodeId u)` returns u's VicinityRef.
template <class VicinityOf>
void SpliceUpDownStream(const Graph& g, const std::vector<NodeId>& plan,
                        VicinityOf&& vicinity_of, std::vector<NodeId>* out,
                        std::vector<Dist>* cum) {
  if (plan.size() < 3) {
    out->assign(plan.begin(), plan.end());
    return;
  }
  PlanPrefixLengths(g, plan, cum);
  out->assign(1, plan[0]);
  std::size_t i = 0;
  while (i + 1 < plan.size()) {
    const auto vic = vicinity_of(plan[i]);
    std::size_t cut_j = 0;
    // Prefer the farthest strictly improving splice.
    for (std::size_t j = plan.size() - 1; j > i; --j) {
      const NearNode* m = vic->Find(plan[j]);
      if (m != nullptr && m->dist < (*cum)[j] - (*cum)[i]) {
        // out ends at plan[i], the vicinity's owner: replace it with the
        // owner .. plan[j] path.
        out->pop_back();
        const std::size_t start = out->size();
        vic->AppendPathToOwner(*m, out);
        std::reverse(out->begin() + static_cast<std::ptrdiff_t>(start),
                     out->end());
        cut_j = j;
        break;
      }
    }
    if (cut_j != 0) {
      i = cut_j;
    } else {
      out->push_back(plan[i + 1]);
      ++i;
    }
  }
}

/// Whether `mode` also plans the reverse route t ; s and keeps the shorter
/// direction.
constexpr bool ComparesDirections(Shortcut mode) {
  return mode == Shortcut::kShorterOfForwardReverse ||
         mode == Shortcut::kNoPathKnowledge ||
         mode == Shortcut::kPathKnowledge;
}

/// A route chosen by the kernel, still in scratch: the s -> t path and its
/// PathLength, or no path when neither direction reaches t.
struct RouteCandidate {
  const std::vector<NodeId>* path = nullptr;
  Dist length = kInfDist;

  bool ok() const { return path != nullptr; }

  /// Copies the path into a Route: a query's one allocation. A failed
  /// candidate gives a failed Route.
  Route ToRoute() const;
};

/// The kernel's reusable buffers. Each frame holds one candidate at a time.
struct ShortcutScratch {
  /// Capacity reserved up front: plans are a few dozen nodes, so the
  /// buffers almost never grow (and allocate) while serving.
  static constexpr std::size_t kReservedNodes = 256;

  ShortcutScratch();

  std::vector<NodeId> forward, reverse, spliced;
  std::vector<Dist> cum;
};

/// The calling thread's scratch frames. Frame 0 serves a whole query; a
/// query that keeps one candidate while computing another (Disco's later
/// packets) puts the second in frame 1.
ShortcutScratch& ThreadScratch(int frame);

/// The route kernel: plans s ; t (and, for the modes that compare
/// directions, t ; s) into `scratch`, applies `mode` in place and returns
/// the chosen s -> t candidate. On a tie the forward direction wins; an
/// empty direction loses to the other.
///
/// `plan(NodeId from, NodeId to, std::vector<NodeId>* out) -> bool`
/// appends the plan from .. to to the empty `out` and returns whether it is
/// from's own direct path; it leaves `out` empty if the plan cannot reach
/// `to`. `append_direct` and `vicinity_of` are as for CutToDestination and
/// SpliceUpDownStream.
template <class Plan, class AppendDirect, class VicinityOf>
RouteCandidate ShortcutRoute(Shortcut mode, const Graph& g, NodeId s,
                             NodeId t, Plan&& plan,
                             AppendDirect&& append_direct,
                             VicinityOf&& vicinity_of,
                             ShortcutScratch* scratch) {
  // One direction: plan and shortcut into *buf, oriented from -> to.
  const auto shortcut = [&](NodeId from, NodeId to,
                            std::vector<NodeId>* buf) {
    buf->clear();
    const bool direct = plan(from, to, buf);
    if (buf->empty()) return;
    switch (mode) {
      case Shortcut::kToDestination:
      case Shortcut::kNoPathKnowledge:
        // A direct plan is already the shortest path from its source; a
        // plan that is not direct starts at a node that does not know the
        // destination, so the scan begins at position 1.
        if (!direct) CutToDestination(buf, 1, append_direct);
        break;
      case Shortcut::kUpDownStream:
      case Shortcut::kPathKnowledge:
        SpliceUpDownStream(g, *buf, vicinity_of, &scratch->spliced,
                           &scratch->cum);
        buf->swap(scratch->spliced);
        break;
      case Shortcut::kNone:
      case Shortcut::kShorterOfForwardReverse:
        break;
    }
  };
  const auto candidate = [&g](const std::vector<NodeId>& path) {
    return path.empty() ? RouteCandidate{}
                        : RouteCandidate{&path, PathLength(g, path)};
  };

  shortcut(s, t, &scratch->forward);
  const RouteCandidate forward = candidate(scratch->forward);
  if (!ComparesDirections(mode)) return forward;
  shortcut(t, s, &scratch->reverse);
  std::reverse(scratch->reverse.begin(), scratch->reverse.end());
  const RouteCandidate reverse = candidate(scratch->reverse);
  if (!reverse.ok()) return forward;
  if (!forward.ok()) return reverse;
  return forward.length <= reverse.length ? forward : reverse;
}

}  // namespace disco
