#include "graph/shortest_path.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "graph/generators.h"
#include "test_util.h"
#include "util/rng.h"

namespace disco {
namespace {

using testing::BellmanFord;
using testing::DiamondGraph;
using testing::PathGraph;

TEST(Dijkstra, PathGraphDistances) {
  const Graph g = PathGraph(5);
  const auto t = Dijkstra(g, 0);
  for (NodeId v = 0; v < 5; ++v) EXPECT_DOUBLE_EQ(t.dist[v], v);
}

TEST(Dijkstra, PicksWeightedShortestPath) {
  const Graph g = DiamondGraph();
  const auto t = Dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(t.dist[3], 2.0);  // via node 1, not node 2
  EXPECT_EQ(t.PathTo(3), (std::vector<NodeId>{0, 1, 3}));
}

TEST(Dijkstra, UnreachableNodes) {
  const std::vector<WeightedEdge> edges = {{0, 1, 1.0}};
  const Graph g = Graph::FromEdges(3, edges);
  const auto t = Dijkstra(g, 0);
  EXPECT_FALSE(t.reachable(2));
  EXPECT_TRUE(t.PathTo(2).empty());
}

TEST(Dijkstra, PathEndpointsAndContiguity) {
  const Graph g = ConnectedGnm(128, 512, 3);
  const auto t = Dijkstra(g, 5);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto path = t.PathTo(v);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), 5u);
    EXPECT_EQ(path.back(), v);
    EXPECT_DOUBLE_EQ(PathLength(g, path), t.dist[v]);
  }
}

class DijkstraVsBellmanFord : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DijkstraVsBellmanFord, DistancesAgreeOnRandomGraphs) {
  const std::uint64_t seed = GetParam();
  const Graph g = ConnectedGeometric(128, 6.0, seed);
  Rng rng(seed);
  for (int trial = 0; trial < 4; ++trial) {
    const NodeId src = static_cast<NodeId>(rng.NextBelow(g.num_nodes()));
    const auto fast = Dijkstra(g, src);
    const auto ref = BellmanFord(g, src);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_NEAR(fast.dist[v], ref[v], 1e-9) << "src " << src;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraVsBellmanFord,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(KNearest, IncludesSelfFirst) {
  const Graph g = PathGraph(10);
  const auto near = KNearest(g, 4, 3);
  ASSERT_EQ(near.size(), 3u);
  EXPECT_EQ(near[0].node, 4u);
  EXPECT_DOUBLE_EQ(near[0].dist, 0.0);
}

TEST(KNearest, SortedByDistanceThenId) {
  const Graph g = ConnectedGnm(128, 512, 9);
  const auto near = KNearest(g, 0, 40);
  for (std::size_t i = 1; i < near.size(); ++i) {
    const bool ordered =
        near[i - 1].dist < near[i].dist ||
        (near[i - 1].dist == near[i].dist &&
         near[i - 1].node < near[i].node);
    EXPECT_TRUE(ordered) << "position " << i;
  }
}

TEST(KNearest, MatchesFullDijkstra) {
  const Graph g = ConnectedGeometric(256, 8.0, 21);
  const std::size_t k = 50;
  const auto near = KNearest(g, 7, k);
  ASSERT_EQ(near.size(), k);

  // Reference: sort all nodes by (dist, id) under a full Dijkstra.
  const auto full = Dijkstra(g, 7);
  std::vector<std::pair<Dist, NodeId>> all;
  for (NodeId v = 0; v < g.num_nodes(); ++v) all.push_back({full.dist[v], v});
  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(near[i].node, all[i].second) << i;
    EXPECT_DOUBLE_EQ(near[i].dist, all[i].first) << i;
  }
}

TEST(KNearest, TruncatesAtComponentBoundary) {
  const std::vector<WeightedEdge> edges = {{0, 1, 1.0}, {2, 3, 1.0}};
  const Graph g = Graph::FromEdges(4, edges);
  EXPECT_EQ(KNearest(g, 0, 10).size(), 2u);
}

TEST(KNearest, ParentsFormTreeTowardSource) {
  const Graph g = ConnectedGnm(128, 512, 33);
  const auto near = KNearest(g, 3, 30);
  for (std::size_t i = 1; i < near.size(); ++i) {
    // Parent must have been settled earlier (BFS-like invariant).
    bool parent_settled_earlier = false;
    for (std::size_t j = 0; j < i; ++j) {
      if (near[j].node == near[i].parent) parent_settled_earlier = true;
    }
    EXPECT_TRUE(parent_settled_earlier) << "member " << i;
  }
}

TEST(WithinRadius, ExactBall) {
  const Graph g = PathGraph(10);
  const auto ball = WithinRadius(g, 5, 2.0);
  ASSERT_EQ(ball.size(), 5u);  // 3,4,5,6,7
  for (const auto& m : ball) EXPECT_LE(m.dist, 2.0);
}

TEST(WithinRadius, MatchesKNearestPrefix) {
  const Graph g = ConnectedGeometric(256, 8.0, 5);
  const auto near = KNearest(g, 11, 60);
  const Dist radius = near.back().dist;
  const auto ball = WithinRadius(g, 11, radius);
  // The ball may be larger on ties, never smaller.
  EXPECT_GE(ball.size(), near.size());
  for (const auto& m : ball) EXPECT_LE(m.dist, radius);
}

TEST(WithinRadius, ReusedBufferMatchesOneShot) {
  const Graph g = ConnectedGnm(200, 800, 41);
  std::vector<NearNode> reused;
  for (NodeId v = 0; v < 20; ++v) {
    WithinRadius(g, v, 2.0, &reused);
    const auto fresh = WithinRadius(g, v, 2.0);
    ASSERT_EQ(reused.size(), fresh.size()) << "source " << v;
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      ASSERT_EQ(reused[i].node, fresh[i].node);
      ASSERT_DOUBLE_EQ(reused[i].dist, fresh[i].dist);
    }
  }
}

// Every node a full Dijkstra reaches, ordered by (dist, id), with its
// Dijkstra distance and parent: the truth KNearest's pruned search and
// WithinRadius must reproduce exactly.
std::vector<NearNode> DijkstraOrder(const Graph& g, NodeId source) {
  const ShortestPathTree full = Dijkstra(g, source);
  std::vector<NearNode> all;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (full.reachable(v)) all.push_back({v, full.parent[v], full.dist[v]});
  }
  std::sort(all.begin(), all.end(), [](const NearNode& a, const NearNode& b) {
    return a.dist < b.dist || (a.dist == b.dist && a.node < b.node);
  });
  return all;
}

void ExpectSameNearNodes(const std::vector<NearNode>& got,
                         const std::vector<NearNode>& want,
                         const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].node, want[i].node) << what << " position " << i;
    ASSERT_EQ(got[i].dist, want[i].dist) << what << " position " << i;
    ASSERT_EQ(got[i].parent, want[i].parent) << what << " position " << i;
  }
}

// KNearest(g, s, k) is the k-prefix of DijkstraOrder, and WithinRadius at
// the k-th distance is the prefix of every node that close.
void CheckTruncatedSearches(const Graph& g, NodeId source,
                            const std::string& name) {
  const std::vector<NearNode> order = DijkstraOrder(g, source);
  const NodeId n = g.num_nodes();
  const std::size_t sqrt_n_ln_n = static_cast<std::size_t>(std::ceil(
      std::sqrt(static_cast<double>(n) * std::log(static_cast<double>(n)))));
  for (const std::size_t k : {std::size_t{1}, std::size_t{7}, sqrt_n_ln_n,
                              static_cast<std::size_t>(n) + 5}) {
    const std::string what = name + " source " + std::to_string(source) +
                             " k " + std::to_string(k);
    const std::size_t take = std::min(k, order.size());
    ExpectSameNearNodes(KNearest(g, source, k),
                        {order.begin(), order.begin() + take}, what);
    const Dist radius = order[take - 1].dist;
    std::size_t in_ball = take;
    while (in_ball < order.size() && order[in_ball].dist <= radius) ++in_ball;
    ExpectSameNearNodes(WithinRadius(g, source, radius),
                        {order.begin(), order.begin() + in_ball},
                        what + " ball");
  }
}

TEST(KNearest, EqualsDijkstraPrefixOnEveryTopology) {
  const std::vector<std::pair<std::string, Graph>> graphs = {
      {"gnm", ConnectedGnm(600, 2400, 3)},
      {"geometric", ConnectedGeometric(500, 8.0, 4)},
      {"barabasi-albert", BarabasiAlbert(600, 2, 5)},
      {"grid", Grid(20, 25)},
      {"cycle", Ring(300)},
  };
  for (const auto& [name, g] : graphs) {
    for (const NodeId s : {NodeId{0}, g.num_nodes() / 3, g.num_nodes() - 1}) {
      CheckTruncatedSearches(g, s, name);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(KNearest, ScratchIsCleanAcrossGraphsOfDifferentSize) {
  // One thread alternates between a large and a small graph, so each
  // search starts on scratch the other left behind (grown, then reused
  // by a graph with fewer nodes).
  const Graph small = ConnectedGeometric(60, 6.0, 8);
  const Graph large = ConnectedGnm(900, 3600, 9);
  for (NodeId i = 0; i < 12; ++i) {
    CheckTruncatedSearches(small, i * 5 % small.num_nodes(), "small");
    CheckTruncatedSearches(large, i * 75 % large.num_nodes(), "large");
    if (HasFatalFailure()) return;
  }
}

TEST(MultiSource, ClosestSourceAndDistance) {
  const Graph g = PathGraph(10);
  const auto t = MultiSourceDijkstra(g, {0, 9});
  EXPECT_EQ(t.closest[2], 0u);
  EXPECT_EQ(t.closest[7], 9u);
  EXPECT_DOUBLE_EQ(t.dist[2], 2.0);
  EXPECT_DOUBLE_EQ(t.dist[7], 2.0);
}

TEST(MultiSource, TieBreaksBySmallerSourceId) {
  const Graph g = PathGraph(5);
  const auto t = MultiSourceDijkstra(g, {0, 4});
  EXPECT_EQ(t.closest[2], 0u);  // equidistant; smaller id wins
}

TEST(MultiSource, PathFromSourceIsValid) {
  const Graph g = ConnectedGnm(128, 512, 55);
  const std::vector<NodeId> sources = {1, 17, 99};
  const auto t = MultiSourceDijkstra(g, sources);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto path = t.PathFromSource(v);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), t.closest[v]);
    EXPECT_EQ(path.back(), v);
    EXPECT_DOUBLE_EQ(PathLength(g, path), t.dist[v]);
  }
}

TEST(MultiSource, AgreesWithPerSourceDijkstra) {
  const Graph g = ConnectedGeometric(200, 8.0, 61);
  const std::vector<NodeId> sources = {3, 77, 150};
  const auto multi = MultiSourceDijkstra(g, sources);
  std::vector<ShortestPathTree> singles;
  for (const NodeId s : sources) singles.push_back(Dijkstra(g, s));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    Dist best = kInfDist;
    for (const auto& t : singles) best = std::min(best, t.dist[v]);
    ASSERT_NEAR(multi.dist[v], best, 1e-9);
  }
}

TEST(PathLength, EmptyAndSinglePathsAreZero) {
  const Graph g = PathGraph(4);
  EXPECT_DOUBLE_EQ(PathLength(g, {}), 0.0);
  EXPECT_DOUBLE_EQ(PathLength(g, {2}), 0.0);
}

TEST(PathLength, DetectsNonEdges) {
  const Graph g = PathGraph(4);
  EXPECT_EQ(PathLength(g, {0, 2}), kInfDist);
}

}  // namespace
}  // namespace disco
