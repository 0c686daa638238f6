// The route kernel's contracts beyond route identity (core_route_golden_test
// pins that): queries between components fail instead of returning a path
// that is not a walk, and the per-thread scratch frames are safe under
// concurrent, interleaved use.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "core/disco.h"
#include "graph/generators.h"
#include "graph/shortest_path.h"
#include "test_util.h"

namespace disco {
namespace {

// Whether r is a walk s .. t over g's edges whose length is its own
// PathLength.
bool IsWalk(const Graph& g, const Route& r, NodeId s, NodeId t) {
  if (r.path.empty() || r.path.front() != s || r.path.back() != t) {
    return false;
  }
  return r.length == PathLength(g, r.path) && r.length < kInfDist;
}

// Two disjoint 6-node paths: 0-1-...-5 and 6-7-...-11.
Graph TwoPaths() {
  std::vector<WeightedEdge> edges;
  for (NodeId v = 0; v + 1 < 12; ++v) {
    if (v != 5) edges.push_back({v, v + 1, 1.0});
  }
  return Graph::FromEdges(12, edges);
}

TEST(RouteKernel, CrossComponentQueriesFail) {
  const Graph g = TwoPaths();
  for (const std::uint64_t seed : {1, 2, 3, 4}) {
    Params p;
    p.seed = seed;
    Disco disco(g, p);
    for (const Shortcut mode : kAllShortcuts) {
      for (NodeId s = 0; s < 12; ++s) {
        for (NodeId t = 0; t < 12; ++t) {
          const bool same = (s < 6) == (t < 6);
          const Route routes[] = {
              disco.RouteFirst(s, t, mode), disco.RouteLater(s, t, mode),
              disco.nd().RouteFirst(s, t, mode),
              disco.nd().RouteLater(s, t, mode)};
          for (const Route& r : routes) {
            if (same) {
              EXPECT_TRUE(IsWalk(g, r, s, t))
                  << "seed " << seed << " " << ShortcutName(mode) << " " << s
                  << "->" << t;
            } else {
              EXPECT_FALSE(r.ok())
                  << "seed " << seed << " " << ShortcutName(mode) << " " << s
                  << "->" << t << " got a " << r.path.size() << "-node path";
              EXPECT_TRUE(r.path.empty());
              EXPECT_EQ(r.length, kInfDist);
            }
          }
        }
      }
    }
  }
}

// The kernel with stand-in knowledge on the path 0-1-2-3: a direction
// whose plan cannot reach its end loses to the other, and with neither
// direction (or an empty forward plan in a one-direction mode) the query
// fails.
TEST(RouteKernel, EmptyDirectionLosesToTheOther) {
  const Graph g = testing::PathGraph(4);
  const auto knows_nothing = [](NodeId, NodeId, std::vector<NodeId>*) {
    return false;
  };
  const auto no_vicinity = [](NodeId u) {
    return VicinityRef(Vicinity(u, {{u, kInvalidNode, 0}}));
  };
  ShortcutScratch scratch;
  for (const Shortcut mode : kAllShortcuts) {
    for (const NodeId reachable_from : {NodeId{0}, NodeId{3}, kInvalidNode}) {
      // Plans along the path, but only from `reachable_from`.
      const auto plan = [&](NodeId from, NodeId to, std::vector<NodeId>* out) {
        if (from != reachable_from) return false;
        for (NodeId v = from;; v = from < to ? v + 1 : v - 1) {
          out->push_back(v);
          if (v == to) break;
        }
        return false;
      };
      const RouteCandidate c = ShortcutRoute(mode, g, 0, 3, plan,
                                             knows_nothing, no_vicinity,
                                             &scratch);
      const bool expect_route =
          reachable_from == 0 ||
          (reachable_from == 3 && ComparesDirections(mode));
      ASSERT_EQ(c.ok(), expect_route)
          << ShortcutName(mode) << " from " << reachable_from;
      const Route r = c.ToRoute();
      if (expect_route) {
        EXPECT_EQ(r.path, (std::vector<NodeId>{0, 1, 2, 3}));
        EXPECT_EQ(r.length, 3.0);
      } else {
        EXPECT_TRUE(r.path.empty());
        EXPECT_EQ(r.length, kInfDist);
      }
    }
  }
}

struct Query {
  NodeId s, t;
  Shortcut mode;
  bool first;
  bool nd;
};

Route RouteOf(Disco& disco, const Query& q) {
  if (q.nd) {
    return q.first ? disco.nd().RouteFirst(q.s, q.t, q.mode)
                   : disco.nd().RouteLater(q.s, q.t, q.mode);
  }
  return q.first ? disco.RouteFirst(q.s, q.t, q.mode)
                 : disco.RouteLater(q.s, q.t, q.mode);
}

bool SameRoute(const Route& a, const Route& b) {
  return a.path == b.path &&
         std::memcmp(&a.length, &b.length, sizeof a.length) == 0 &&
         a.contact == b.contact && a.via_fallback == b.via_fallback;
}

// Disco::RouteLater holds one candidate in scratch frame 0 while it
// computes the first-packet one in frame 1; every other query uses frame
// 0. Eight threads walk one query list from different offsets, so each
// thread interleaves phases, modes and schemes in its own order, and every
// route must equal the sequential pass.
TEST(RouteKernel, ScratchIsReentrantAcrossThreads) {
  const Graph g = ConnectedGnm(512, 2048, 13);
  Params p;
  p.seed = 13;
  Disco disco(g, p);
  // Half the vicinities frozen, the rest on the miss path.
  std::vector<NodeId> half;
  for (NodeId v = 0; v < g.num_nodes(); v += 2) half.push_back(v);
  disco.nd().PrewarmVicinities(half);

  std::vector<Query> queries;
  const NodeId n = g.num_nodes();
  for (NodeId i = 0; i < 240; ++i) {
    const Shortcut mode = kAllShortcuts[i % 6];
    queries.push_back({(i * 41) % n, (i * 97 + 5) % n, mode, (i / 6) % 2 == 0,
                       (i / 12) % 2 == 0});
  }
  std::vector<Route> expected;
  for (const Query& q : queries) expected.push_back(RouteOf(disco, q));

  constexpr int kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> pool;
  for (int th = 0; th < kThreads; ++th) {
    pool.emplace_back([&, th] {
      const std::size_t offset = static_cast<std::size_t>(th) * 31;
      for (std::size_t k = 0; k < queries.size(); ++k) {
        const std::size_t i = (k + offset) % queries.size();
        if (!SameRoute(RouteOf(disco, queries[i]), expected[i])) {
          ++mismatches[static_cast<std::size_t>(th)];
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (int th = 0; th < kThreads; ++th) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(th)], 0) << "thread " << th;
  }
}

}  // namespace
}  // namespace disco
