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

// The reference every search below is checked against: an O(n^2)
// Dijkstra that finds each next node by scanning the whole array for the
// unsettled one with the smallest (dist, id), then relaxes its arcs in
// adjacency order with the library's tie-breaks. It uses no heap, so a
// fault in the library's queue cannot move the oracle along with the
// code under test. A tie in distance keeps the smaller parent id
// (Dijkstra), or with `by_closest` the smaller closest-source id
// (MultiSourceDijkstra).
struct NaiveSearch {
  std::vector<Dist> dist;
  std::vector<NodeId> parent;
  std::vector<NodeId> closest;
  std::vector<NodeId> order;  // settled nodes, in settling order
};

NaiveSearch NaiveDijkstra(const Graph& g, const std::vector<NodeId>& sources,
                          bool by_closest) {
  const NodeId n = g.num_nodes();
  NaiveSearch r;
  r.dist.assign(n, kInfDist);
  r.parent.assign(n, kInvalidNode);
  r.closest.assign(n, kInvalidNode);
  for (const NodeId s : sources) {
    r.dist[s] = 0;
    r.closest[s] = s;
  }
  std::vector<char> settled(n, 0);
  for (;;) {
    NodeId v = kInvalidNode;
    for (NodeId u = 0; u < n; ++u) {
      if (!settled[u] && r.dist[u] < kInfDist &&
          (v == kInvalidNode || r.dist[u] < r.dist[v])) {
        v = u;
      }
    }
    if (v == kInvalidNode) break;
    settled[v] = 1;
    r.order.push_back(v);
    for (const Neighbor& nb : g.neighbors(v)) {
      const Dist nd = r.dist[v] + nb.weight;
      const NodeId to = nb.to;
      const bool tie_wins = by_closest ? r.closest[v] < r.closest[to]
                                       : v < r.parent[to];
      if (nd < r.dist[to] || (nd == r.dist[to] && tie_wins)) {
        r.dist[to] = nd;
        r.parent[to] = v;
        r.closest[to] = r.closest[v];
      }
    }
  }
  return r;
}

// Every node the oracle reaches from `source`, in (dist, id) settling
// order, with its distance and parent: the truth KNearest's pruned search
// and WithinRadius must reproduce exactly.
std::vector<NearNode> NaiveOrder(const Graph& g, NodeId source) {
  const NaiveSearch r = NaiveDijkstra(g, {source}, false);
  std::vector<NearNode> all;
  for (const NodeId v : r.order) all.push_back({v, r.parent[v], r.dist[v]});
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

// KNearest(g, s, k) is the k-prefix of NaiveOrder, and WithinRadius at
// the k-th distance is the prefix of every node that close.
void CheckTruncatedSearches(const Graph& g, NodeId source,
                            const std::string& name) {
  const std::vector<NearNode> order = NaiveOrder(g, source);
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

// One graph of every generator family, weighted and unit, connected and
// not (Gnm and RandomGeometric keep every component).
std::vector<std::pair<std::string, Graph>> EveryFamily() {
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("gnm", ConnectedGnm(600, 2400, 3));
  graphs.emplace_back("gnm-disconnected", Gnm(400, 500, 6));
  graphs.emplace_back("geometric", ConnectedGeometric(500, 8.0, 4));
  graphs.emplace_back("geometric-disconnected", RandomGeometric(400, 3.0, 7));
  graphs.emplace_back("barabasi-albert", BarabasiAlbert(600, 2, 5));
  graphs.emplace_back("as-level", AsLevelInternet(500, 8));
  graphs.emplace_back("router-level", RouterLevelInternet(500, 9));
  graphs.emplace_back("grid", Grid(20, 25));
  graphs.emplace_back("cycle", Ring(300));
  graphs.emplace_back("s4-worst-case-tree", S4WorstCaseTree(12));
  return graphs;
}

TEST(KNearest, EqualsDijkstraPrefixOnEveryTopology) {
  for (const auto& [name, g] : EveryFamily()) {
    for (const NodeId s : {NodeId{0}, g.num_nodes() / 3, g.num_nodes() - 1}) {
      CheckTruncatedSearches(g, s, name);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(Dijkstra, EqualsNaiveOracleOnEveryTopology) {
  for (const auto& [name, g] : EveryFamily()) {
    for (const NodeId s : {NodeId{0}, g.num_nodes() / 2, g.num_nodes() - 1}) {
      const ShortestPathTree t = Dijkstra(g, s);
      const NaiveSearch want = NaiveDijkstra(g, {s}, false);
      ASSERT_EQ(t.source, s);
      ASSERT_EQ(t.dist, want.dist) << name << " source " << s;
      ASSERT_EQ(t.parent, want.parent) << name << " source " << s;
    }
  }
}

TEST(MultiSource, EqualsNaiveOracleOnEveryTopology) {
  for (const auto& [name, g] : EveryFamily()) {
    const NodeId n = g.num_nodes();
    // Unsorted, with a repeat, so neither seeding order nor duplicates
    // may matter.
    const std::vector<std::vector<NodeId>> source_sets = {
        {n / 2}, {n - 1, 0, n / 3}, {n / 7, n / 5, n / 7, 2 * n / 3, 1}};
    for (const auto& sources : source_sets) {
      const MultiSourceTree t = MultiSourceDijkstra(g, sources);
      const NaiveSearch want = NaiveDijkstra(g, sources, true);
      const std::string what = name + " with " +
                               std::to_string(sources.size()) + " sources";
      ASSERT_EQ(t.dist, want.dist) << what;
      ASSERT_EQ(t.parent, want.parent) << what;
      ASSERT_EQ(t.closest, want.closest) << what;
    }
  }
}

std::vector<NodeId> NodesOf(const std::vector<NearNode>& members) {
  std::vector<NodeId> nodes;
  for (const NearNode& m : members) nodes.push_back(m.node);
  return nodes;
}

// Node 2 is reached first at exactly the bound (3, straight from the
// source) and only later at 2, through node 1. Nodes 3 and 4 stay at the
// bound. A search that kept node 2 at the bound level would list it
// twice or with the wrong distance.
TEST(KNearest, BoundLevelNodeLaterShortened) {
  const std::vector<WeightedEdge> edges = {
      {0, 2, 3.0}, {0, 1, 1.0}, {0, 4, 3.0}, {1, 2, 1.0}, {1, 3, 2.0}};
  const Graph g = Graph::FromEdges(5, edges);
  const std::vector<NearNode> order = NaiveOrder(g, 0);
  // k = 4 learns the bound 3 while node 2 is still queued at 3.
  ExpectSameNearNodes(KNearest(g, 0, 4), {order.begin(), order.begin() + 4},
                      "k 4");
  EXPECT_EQ(NodesOf(KNearest(g, 0, 4)), (std::vector<NodeId>{0, 1, 2, 3}));
  // A radius of 3 is known from the start, so node 2 starts at the bound.
  ExpectSameNearNodes(WithinRadius(g, 0, 3.0), order, "radius 3");
  EXPECT_EQ(NodesOf(WithinRadius(g, 0, 3.0)),
            (std::vector<NodeId>{0, 1, 2, 3, 4}));
}

TEST(KNearest, CutsTieLevelInIdOrder) {
  const Graph g = testing::StarGraph(10);  // center 0, leaves 1..10
  EXPECT_EQ(NodesOf(KNearest(g, 0, 5)), (std::vector<NodeId>{0, 1, 2, 3, 4}));
  // From leaf 7: the center, then the other leaves at 2 in id order.
  EXPECT_EQ(NodesOf(KNearest(g, 7, 4)), (std::vector<NodeId>{7, 0, 1, 2}));
  const auto near = KNearest(g, 7, 4);
  EXPECT_EQ(near[3].parent, 0u);
  EXPECT_EQ(near[3].dist, 2.0);
}

TEST(KNearest, KOneAndKBeyondComponent) {
  const std::vector<WeightedEdge> edges = {
      {0, 1, 1.0}, {1, 2, 1.0}, {3, 4, 1.0}};
  const Graph g = Graph::FromEdges(5, edges);
  const auto one = KNearest(g, 1, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].node, 1u);
  EXPECT_EQ(one[0].parent, kInvalidNode);
  EXPECT_EQ(one[0].dist, 0.0);
  EXPECT_EQ(NodesOf(KNearest(g, 1, 100)), (std::vector<NodeId>{1, 0, 2}));
  EXPECT_EQ(NodesOf(KNearest(g, 4, 3)), (std::vector<NodeId>{4, 3}));
  EXPECT_TRUE(KNearest(g, 1, 0).empty());
}

TEST(WithinRadius, RadiusOnDistanceLevel) {
  const Graph g = Grid(9, 9);
  const NodeId center = 4 * 9 + 4;
  const auto ball = WithinRadius(g, center, 2.0);
  // The diamond of Manhattan radius 2: 1 + 4 + 8 nodes, the 8 at exactly
  // the radius included.
  ASSERT_EQ(ball.size(), 13u);
  EXPECT_EQ(ball.back().dist, 2.0);
  const std::vector<NearNode> order = NaiveOrder(g, center);
  ExpectSameNearNodes(ball, {order.begin(), order.begin() + 13}, "grid");
  EXPECT_EQ(NodesOf(WithinRadius(g, center, 0.0)),
            (std::vector<NodeId>{center}));
}

// The bound level's members sit in different 64-bit words of the
// per-thread bitmap, and are still emitted in id order.
TEST(KNearest, BoundLevelIdsSpanSeveralBitmapWords) {
  const NodeId n = 300;
  const NodeId hub = 150;
  std::vector<WeightedEdge> edges;
  for (const NodeId leaf : {NodeId{299}, NodeId{3}, NodeId{200}, NodeId{64},
                            NodeId{63}, NodeId{128}, NodeId{0}}) {
    edges.push_back({hub, leaf, 1.0});
  }
  // A heavy path over the other nodes, cut at the hub.
  for (NodeId v = 0; v + 1 < n; ++v) {
    if (v != hub && v + 1 != hub) edges.push_back({v, v + 1, 5.0});
  }
  const Graph g = Graph::FromEdges(n, edges);
  EXPECT_EQ(NodesOf(KNearest(g, hub, 4)),
            (std::vector<NodeId>{hub, 0, 3, 63}));
  EXPECT_EQ(NodesOf(WithinRadius(g, hub, 1.0)),
            (std::vector<NodeId>{hub, 0, 3, 63, 64, 128, 200, 299}));
  const std::vector<NearNode> order = NaiveOrder(g, hub);
  for (const std::size_t k : {std::size_t{2}, std::size_t{5},
                              std::size_t{8}, std::size_t{9}}) {
    ExpectSameNearNodes(KNearest(g, hub, k), {order.begin(), order.begin() + k},
                        "k " + std::to_string(k));
  }
}

TEST(KNearest, ScratchIsCleanAcrossGraphsOfDifferentSize) {
  // One thread alternates between a large and a small graph, so each
  // search starts on scratch the other left behind: the first large
  // search grows the arrays and the bound-level bitmap from one word to
  // fifteen, and every later search reuses them.
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
