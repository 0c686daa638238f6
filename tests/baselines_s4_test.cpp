#include "baselines/s4.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/shortest_path.h"
#include "test_util.h"

namespace disco {
namespace {

Params WithSeed(std::uint64_t seed) {
  Params p;
  p.seed = seed;
  return p;
}

TEST(S4, BallContainsDestinationAndLandmark) {
  const Graph g = ConnectedGnm(512, 2048, 1);
  S4 s4(g, WithSeed(1));
  for (NodeId t = 0; t < g.num_nodes(); t += 67) {
    const auto ball = s4.Ball(t);
    EXPECT_TRUE(ball->Contains(t));
    // l_t is at distance exactly ClusterRadius(t), so the ≤ rule admits it.
    EXPECT_TRUE(ball->Contains(s4.addresses().closest_landmark(t)))
        << "dest " << t;
  }
}

TEST(S4, BallIsTheClusterPreimage) {
  // u ∈ Ball(t) ⇔ d(u,t) ≤ d(t,l_t): verify against a fresh Dijkstra.
  const Graph g = ConnectedGeometric(256, 8.0, 3);
  S4 s4(g, WithSeed(3));
  const NodeId t = 42 % g.num_nodes();
  const auto truth = Dijkstra(g, t);
  const auto ball = s4.Ball(t);
  const Dist radius = s4.ClusterRadius(t);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    // Skip knife-edge nodes: the radius is summed from the landmark side
    // and d(t,u) from t's side, so the last ulp can differ on exact ties.
    if (std::abs(truth.dist[u] - radius) < 1e-9) continue;
    EXPECT_EQ(ball->Contains(u), truth.dist[u] < radius) << "node " << u;
  }
}

TEST(S4, RouteEndpointsAndValidity) {
  const Graph g = ConnectedGnm(512, 2048, 5);
  S4 s4(g, WithSeed(5));
  for (NodeId s = 0; s < g.num_nodes(); s += 73) {
    for (NodeId t = 1; t < g.num_nodes(); t += 71) {
      if (s == t) continue;
      const Route later = s4.RouteLater(s, t);
      const Route first = s4.RouteFirst(s, t);
      ASSERT_TRUE(later.ok());
      ASSERT_TRUE(first.ok());
      EXPECT_EQ(later.path.front(), s);
      EXPECT_EQ(later.path.back(), t);
      EXPECT_EQ(first.path.front(), s);
      EXPECT_EQ(first.path.back(), t);
      // The first packet detours via resolution, never beating later ones.
      EXPECT_LE(later.length, first.length + 1e-9);
    }
  }
}

class S4StretchBound : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(S4StretchBound, LaterPacketsWithinStretch3) {
  // With the destination's address known, S4 inherits TZ stretch ≤ 3
  // (cluster version needs no extra qualification beyond l_t existing).
  const std::uint64_t seed = GetParam();
  const Graph g = ConnectedGeometric(512, 8.0, seed);
  S4 s4(g, WithSeed(seed));
  for (NodeId s = 1; s < g.num_nodes(); s += 53) {
    const auto truth = Dijkstra(g, s);
    for (NodeId t = 2; t < g.num_nodes(); t += 59) {
      if (s == t || truth.dist[t] <= 0) continue;
      const Route r = s4.RouteLater(s, t);
      EXPECT_LE(r.length / truth.dist[t], 3.0 + 1e-9) << s << "->" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, S4StretchBound,
                         ::testing::Values(1, 2, 3, 4));

// Two disjoint 6-node paths, 0-1-...-5 and 6-7-...-11, and an edge 12-13.
Graph TwoPathsAndAnEdge() {
  std::vector<WeightedEdge> edges;
  for (NodeId v = 0; v + 1 < 12; ++v) {
    if (v != 5) edges.push_back({v, v + 1, 1.0});
  }
  edges.push_back({12, 13, 1.0});
  return Graph::FromEdges(14, edges);
}

bool IsWalk(const Graph& g, const Route& r, NodeId s, NodeId t) {
  return !r.path.empty() && r.path.front() == s && r.path.back() == t &&
         r.length == PathLength(g, r.path) && r.length < kInfDist;
}

TEST(S4, CrossComponentQueriesFail) {
  // An unreachable tree segment fails the route; it is not joined as if it
  // were empty. Within a component, later packets always arrive; a first
  // packet fails only when its resolution landmark is in another
  // component.
  const Graph g = TwoPathsAndAnEdge();
  const auto side = [](NodeId v) { return v < 6 ? 0 : v < 12 ? 1 : 2; };
  int landmark_free = 0;
  for (const std::uint64_t seed : {1, 2, 3, 4}) {
    S4 s4(g, WithSeed(seed));
    landmark_free += s4.addresses().closest_landmark(12) == kInvalidNode;
    for (NodeId s = 0; s < g.num_nodes(); ++s) {
      for (NodeId t = 0; t < g.num_nodes(); ++t) {
        const Route later = s4.RouteLater(s, t);
        const Route first = s4.RouteFirst(s, t);
        const std::string what = "seed " + std::to_string(seed) + " " +
                                 std::to_string(s) + "->" +
                                 std::to_string(t);
        if (side(s) == side(t)) {
          EXPECT_TRUE(IsWalk(g, later, s, t)) << what;
          const NodeId owner =
              s4.resolution().OwnerLandmark(s4.names().hash(t));
          if (!first.ok()) {
            EXPECT_NE(side(owner), side(s)) << what;
            EXPECT_TRUE(first.path.empty()) << what;
            EXPECT_EQ(first.length, kInfDist) << what;
          } else {
            EXPECT_TRUE(IsWalk(g, first, s, t)) << what;
          }
        } else {
          for (const Route& r : {later, first}) {
            EXPECT_FALSE(r.ok()) << what << " got a " << r.path.size()
                                 << "-node path";
            EXPECT_TRUE(r.path.empty()) << what;
            EXPECT_EQ(r.length, kInfDist) << what;
          }
        }
      }
    }
  }
  // The edge's component holds no landmark for some seed, so its nodes
  // have no closest landmark either.
  EXPECT_GT(landmark_free, 0);
}

TEST(S4, FirstPacketStretchCanExplode) {
  // The resolution detour produces large first-packet stretch for nearby
  // pairs — the qualitative S4-First behavior of Fig. 3.
  const Graph g = ConnectedGeometric(1024, 8.0, 7);
  S4 s4(g, WithSeed(7));
  double worst_first = 0, worst_later = 0;
  for (NodeId s = 0; s < g.num_nodes(); s += 29) {
    const auto truth = Dijkstra(g, s);
    for (NodeId t = 1; t < g.num_nodes(); t += 31) {
      if (s == t || truth.dist[t] <= 0) continue;
      worst_first = std::max(
          worst_first, s4.RouteFirst(s, t).length / truth.dist[t]);
      worst_later = std::max(
          worst_later, s4.RouteLater(s, t).length / truth.dist[t]);
    }
  }
  EXPECT_GT(worst_first, 3.0);   // far beyond the later-packet bound
  EXPECT_LE(worst_later, 3.0 + 1e-9);
}

TEST(S4, WorstCaseTreeExplodesRootCluster) {
  // Footnote 6: on the sqrt(n)-branching tree, most grandchildren land in
  // the root's cluster, so S4's root state is Θ(n) while its vicinity-based
  // counterpart would stay at O(sqrt(n log n)).
  const NodeId b = 32;  // n = 1 + 32 + 1024 = 1057
  const Graph g = S4WorstCaseTree(b);
  S4 s4(g, WithSeed(11));
  const auto& sizes = s4.ClusterSizes();
  EXPECT_GT(sizes[0], g.num_nodes() / 3)
      << "root cluster should hold most grandchildren";
  const std::size_t vicinity_equivalent = VicinitySize(g.num_nodes());
  EXPECT_GT(sizes[0], 2 * vicinity_equivalent);
}

TEST(S4, ClusterSizesConsistentWithDefinition) {
  const Graph g = ConnectedGnm(256, 1024, 13);
  S4 s4(g, WithSeed(13));
  const auto& sizes = s4.ClusterSizes();
  // Spot-check: recompute node 5's cluster by definition.
  std::size_t expected = 0;
  const auto from5 = Dijkstra(g, 5);
  for (NodeId w = 0; w < g.num_nodes(); ++w) {
    if (from5.dist[w] <= s4.ClusterRadius(w) + 1e-12) ++expected;
  }
  EXPECT_EQ(sizes[5], expected);
}

TEST(S4, StateBreakdownComponents) {
  const Graph g = ConnectedGnm(512, 2048, 15);
  S4 s4(g, WithSeed(15));
  const StateBreakdown b = s4.State(9);
  EXPECT_EQ(b.landmark_entries, s4.landmarks().count());
  EXPECT_EQ(b.cluster_entries, s4.ClusterSizes()[9]);
  EXPECT_EQ(b.vicinity_entries, 0u);
  EXPECT_EQ(b.group_entries, 0u);
}

}  // namespace
}  // namespace disco
