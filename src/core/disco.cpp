#include "core/disco.h"

#include <algorithm>
#include <utility>

#include "graph/shortest_path.h"

namespace disco {

Disco::Disco(const Graph& g, const Params& params)
    : Disco(g, params, NameTable::Default(g.num_nodes())) {}

Disco::Disco(const Graph& g, const Params& params, NameTable names,
             std::vector<double> n_estimates)
    : names_(std::move(names)), nd_(g, params),
      groups_(n_estimates.empty()
                  ? SloppyGroups(names_, g.num_nodes(),
                                 params.group_bits_offset)
                  : SloppyGroups(names_, n_estimates,
                                 params.group_bits_offset)),
      resolution_(names_, nd_.landmarks(),
                  params.resolution_virtual_points),
      overlay_(names_, groups_, params) {}

bool Disco::AppendFirstPacketPlan(NodeId s, NodeId t,
                                  std::vector<NodeId>* out, NodeId* contact,
                                  bool* fallback) {
  if (nd_.AppendDirectPath(s, t, out)) return true;

  // Find the sloppy-group contact: the vicinity member with the longest
  // hash-prefix match against h(t).
  const auto vic = nd_.vicinity(s);
  const auto w = groups_.FindContact(*vic, t);
  if (w.has_value() && groups_.Stores(*w, t)) {
    if (contact) *contact = *w;
    // s ; w via the vicinity, then w routes on t's address: w ; l_t ; t.
    const std::size_t start = out->size();
    vic->AppendPathToOwner(*vic->Find(*w), out);
    std::reverse(out->begin() + static_cast<std::ptrdiff_t>(start),
                 out->end());
    out->pop_back();  // w starts its own plan
    nd_.AppendFirstPacketPlan(*w, t, out);
    return false;
  }

  // w.h.p.-never fallback (§4.4): query the landmark resolution DB. The
  // packet rides to the owner landmark, which knows t's address.
  if (fallback) *fallback = true;
  const NodeId owner = resolution_.OwnerLandmark(names_.hash(t));
  // s's parent chain in the owner's tree runs s .. owner.
  if (!nd_.LandmarkTree(owner)->AppendPathToSource(s, out)) {
    out->clear();
    return false;
  }
  out->pop_back();  // the owner starts its own plan
  nd_.AppendFirstPacketPlan(owner, t, out);
  return false;
}

RouteCandidate Disco::RouteFirstInto(NodeId s, NodeId t, Shortcut mode,
                                     ShortcutScratch* scratch,
                                     NodeId* contact, bool* fallback) {
  return nd_.ShortcutPlan(
      mode, s, t,
      [&](NodeId from, NodeId to, std::vector<NodeId>* out) {
        // Only the forward plan reports its provenance (for s == t both
        // plans are the trivial direct path, which reports nothing).
        const bool forward = from == s;
        return AppendFirstPacketPlan(from, to, out,
                                     forward ? contact : nullptr,
                                     forward ? fallback : nullptr);
      },
      scratch);
}

Route Disco::RouteFirst(NodeId s, NodeId t, Shortcut mode) {
  NodeId contact = kInvalidNode;
  bool fallback = false;
  Route r = RouteFirstInto(s, t, mode, &ThreadScratch(0), &contact,
                           &fallback)
                .ToRoute();
  r.contact = contact;
  r.via_fallback = fallback;
  return r;
}

Route Disco::RouteLater(NodeId s, NodeId t, Shortcut mode) {
  // After the first packet s holds t's address (NDDisco routing) *and*
  // remembers the route the first packet actually took; the flow keeps
  // whichever is shorter, so later packets never regress. The NDDisco
  // candidate stays in frame 0 while the first-packet one is computed in
  // frame 1.
  const RouteCandidate later =
      nd_.RouteLaterInto(s, t, mode, &ThreadScratch(0));
  NodeId contact = kInvalidNode;
  bool fallback = false;
  const RouteCandidate first = RouteFirstInto(
      s, t, mode, &ThreadScratch(1), &contact, &fallback);
  if (!(first.length < later.length)) return later.ToRoute();
  Route r = first.ToRoute();
  r.contact = contact;
  r.via_fallback = fallback;
  return r;
}

Route Disco::RouteFirstByName(std::string_view from, std::string_view to,
                              Shortcut mode) {
  const auto s = names_.Find(from);
  const auto t = names_.Find(to);
  if (!s || !t) return Route{};
  return RouteFirst(*s, *t, mode);
}

StateBreakdown Disco::State(NodeId v) {
  StateBreakdown b = nd_.State(v, &resolution_);
  b.group_entries = groups_.StoredAddressCount(v);
  b.overlay_entries = overlay_.degree(v);
  return b;
}

}  // namespace disco
