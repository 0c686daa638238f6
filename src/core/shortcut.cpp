#include "core/shortcut.h"

#include <algorithm>
#include <cassert>

namespace disco {

const char* ShortcutName(Shortcut mode) {
  switch (mode) {
    case Shortcut::kNone:
      return "No Shortcutting";
    case Shortcut::kToDestination:
      return "To-Destination Shortcuts";
    case Shortcut::kShorterOfForwardReverse:
      return "Shorter{ReversePath, ForwardPath}";
    case Shortcut::kNoPathKnowledge:
      return "No Path Knowledge";
    case Shortcut::kUpDownStream:
      return "Up-Down Stream";
    case Shortcut::kPathKnowledge:
      return "Using Path Knowledge";
  }
  return "?";
}

void PlanPrefixLengths(const Graph& g, const std::vector<NodeId>& plan,
                       std::vector<Dist>* cum) {
  cum->assign(plan.size(), 0);
  for (std::size_t i = 1; i < plan.size(); ++i) {
    // Weight of the (cheapest) edge between adjacent plan nodes.
    Dist hop = kInfDist;
    for (const Neighbor& nb : g.neighbors(plan[i - 1])) {
      if (nb.to == plan[i]) hop = std::min(hop, nb.weight);
    }
    assert(hop < kInfDist && "plan contains a non-edge");
    (*cum)[i] = (*cum)[i - 1] + hop;
  }
}

Route RouteCandidate::ToRoute() const {
  Route r;
  if (path == nullptr) return r;
  r.path = *path;
  r.length = length;
  return r;
}

ShortcutScratch::ShortcutScratch() {
  forward.reserve(kReservedNodes);
  reverse.reserve(kReservedNodes);
  spliced.reserve(kReservedNodes);
  cum.reserve(kReservedNodes);
}

ShortcutScratch& ThreadScratch(int frame) {
  thread_local ShortcutScratch frames[2];
  assert(frame == 0 || frame == 1);
  return frames[frame];
}

}  // namespace disco
