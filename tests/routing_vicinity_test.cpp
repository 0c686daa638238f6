#include "routing/vicinity.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "api/registry.h"
#include "api/routing_scheme.h"
#include "graph/generators.h"
#include "graph/shortest_path.h"
#include "routing/params.h"
#include "test_util.h"
#include "util/rng.h"

namespace disco {
namespace {

using testing::PathGraph;

TEST(Vicinity, ContainsOwnerAtZero) {
  const Graph g = PathGraph(10);
  const Vicinity vic(5, KNearest(g, 5, 4));
  EXPECT_EQ(vic.owner(), 5u);
  EXPECT_TRUE(vic.Contains(5));
  EXPECT_DOUBLE_EQ(vic.DistanceTo(5), 0.0);
}

TEST(Vicinity, MembershipAndDistances) {
  const Graph g = PathGraph(10);
  const Vicinity vic(5, KNearest(g, 5, 5));  // 5,4,6,3,7 (ties by id)
  EXPECT_TRUE(vic.Contains(4));
  EXPECT_TRUE(vic.Contains(6));
  EXPECT_DOUBLE_EQ(vic.DistanceTo(7), 2.0);
  EXPECT_FALSE(vic.Contains(9));
  EXPECT_EQ(vic.DistanceTo(9), kInfDist);
}

TEST(Vicinity, RadiusIsFarthestMember) {
  const Graph g = PathGraph(20);
  const Vicinity vic(10, KNearest(g, 10, 7));
  EXPECT_DOUBLE_EQ(vic.radius(), 3.0);
}

TEST(Vicinity, PathToMemberIsShortest) {
  const Graph g = ConnectedGeometric(256, 8.0, 3);
  const Vicinity vic(9, KNearest(g, 9, 40));
  for (const NearNode& m : vic.members()) {
    const auto path = vic.PathTo(m.node);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), 9u);
    EXPECT_EQ(path.back(), m.node);
    EXPECT_NEAR(PathLength(g, path), m.dist, 1e-9);
  }
}

TEST(Vicinity, PathToNonMemberIsEmpty) {
  const Graph g = PathGraph(10);
  const Vicinity vic(0, KNearest(g, 0, 3));
  EXPECT_TRUE(vic.PathTo(9).empty());
}

TEST(VicinityCache, ReturnsConsistentResults) {
  const Graph g = ConnectedGnm(128, 512, 5);
  VicinityCache cache(g, 20, 4);
  const auto first = cache.Get(7);
  // Evict by touching more nodes than the capacity.
  for (NodeId v = 0; v < 10; ++v) cache.Get(v);
  const auto second = cache.Get(7);
  ASSERT_EQ(first->size(), second->size());
  for (std::size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ(first->members()[i].node, second->members()[i].node);
  }
}

TEST(VicinityCache, CachesHits) {
  const Graph g = ConnectedGnm(128, 512, 5);
  VicinityCache cache(g, 20, 64);
  cache.Get(3);
  cache.Get(3);
  cache.Get(3);
  EXPECT_EQ(cache.computed_count(), 1u);
}

TEST(VicinityCache, EvictsLeastRecentlyUsed) {
  const Graph g = ConnectedGnm(128, 512, 5);
  VicinityCache cache(g, 10, 2);
  cache.Get(1);
  cache.Get(2);
  cache.Get(1);       // 1 is now most recent
  cache.Get(3);       // evicts 2
  cache.Get(1);       // still cached
  EXPECT_EQ(cache.computed_count(), 3u);
  cache.Get(2);       // recompute
  EXPECT_EQ(cache.computed_count(), 4u);
}

TEST(VicinityCache, SharedPtrSurvivesEviction) {
  const Graph g = ConnectedGnm(128, 512, 5);
  VicinityCache cache(g, 10, 1);
  const auto held = cache.Get(0);
  cache.Get(1);  // evicts 0 from the cache
  cache.Get(2);
  EXPECT_EQ(held->owner(), 0u);  // still valid through shared ownership
  EXPECT_TRUE(held->Contains(0));
}

TEST(VicinityCache, KClampedToGraphSize) {
  const Graph g = PathGraph(5);
  VicinityCache cache(g, 100, 4);
  EXPECT_EQ(cache.k(), 5u);
  EXPECT_EQ(cache.Get(0)->size(), 5u);
}

TEST(Vicinity, AsymmetryIsPossible) {
  // s ∈ V(t) does not imply t ∈ V(s) (the paper leans on this asymmetry in
  // the handshake): build a star where the hub's vicinity is tiny but each
  // leaf sees the hub first.
  const Graph g = testing::StarGraph(30);
  VicinityCache cache(g, 3, 64);
  const auto hub = cache.Get(0);
  const auto leaf = cache.Get(25);
  EXPECT_TRUE(leaf->Contains(0));        // hub is every leaf's closest
  EXPECT_FALSE(hub->Contains(25));       // hub kept only 3 of 31 nodes
}

void ExpectSameVicinity(const Vicinity& got, const Vicinity& want) {
  EXPECT_EQ(got.owner(), want.owner());
  ASSERT_EQ(got.size(), want.size()) << "owner " << want.owner();
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.members()[i].node, want.members()[i].node);
    EXPECT_EQ(got.members()[i].dist, want.members()[i].dist);
    EXPECT_EQ(got.members()[i].parent, want.members()[i].parent);
  }
  for (const NearNode& m : want.members()) {
    EXPECT_TRUE(got.Contains(m.node));
    EXPECT_EQ(got.DistanceTo(m.node), m.dist);
    EXPECT_EQ(got.PathTo(m.node), want.PathTo(m.node));
  }
}

std::vector<NodeId> Range(NodeId lo, NodeId hi) {
  std::vector<NodeId> out;
  for (NodeId v = lo; v < hi; ++v) out.push_back(v);
  return out;
}

TEST(VicinityTable, EveryFrozenVicinityEqualsAFreshOne) {
  const Graph g = ConnectedGeometric(400, 8.0, 7);
  VicinityCache cache(g, 30);
  cache.Prewarm(Range(0, g.num_nodes()));
  ASSERT_EQ(cache.frozen_count(), g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ExpectSameVicinity(*cache.Get(v), Vicinity(v, KNearest(g, v, 30)));
    ASSERT_FALSE(HasFailure()) << "node " << v;
  }
  EXPECT_EQ(cache.computed_count(), 0u);
}

TEST(VicinityTable, ShortComponentsCompactTheTable) {
  // Two components of 3 and 2 nodes with k = 4: every slot is short.
  const std::vector<WeightedEdge> edges = {
      {0, 1, 1.0}, {1, 2, 2.0}, {3, 4, 1.5}};
  const Graph g = Graph::FromEdges(5, edges);
  VicinityCache cache(g, 4);
  cache.Prewarm({4, 0, 2, 3, 1});
  for (NodeId v = 0; v < 5; ++v) {
    ExpectSameVicinity(*cache.Get(v), Vicinity(v, KNearest(g, v, 4)));
  }
  EXPECT_EQ(cache.computed_count(), 0u);
}

TEST(VicinityTable, MissPathServesAndCountsNodesOutsideTheTable) {
  const Graph g = ConnectedGnm(300, 1200, 11);
  VicinityCache cache(g, 25);
  cache.Prewarm(Range(0, 100));
  const std::uint64_t before = VicinityMetrics().miss_computations.Value();
  ExpectSameVicinity(*cache.Get(50), Vicinity(50, KNearest(g, 50, 25)));
  EXPECT_EQ(VicinityMetrics().miss_computations.Value(), before);
  ExpectSameVicinity(*cache.Get(250), Vicinity(250, KNearest(g, 250, 25)));
  (void)cache.Get(250);  // an LRU hit: not computed again
  EXPECT_EQ(VicinityMetrics().miss_computations.Value(), before + 1);
  EXPECT_EQ(cache.computed_count(), 1u);
}

TEST(VicinityTable, LaterPrewarmExtendsTheTableAndKeepsOldViews) {
  const Graph g = ConnectedGnm(300, 1200, 12);
  VicinityCache cache(g, 25);
  cache.Prewarm(Range(0, 100));
  const VicinityRef early = cache.Get(10);
  cache.Prewarm(Range(50, 200));
  EXPECT_EQ(cache.frozen_count(), 200u);
  ExpectSameVicinity(*early, Vicinity(10, KNearest(g, 10, 25)));
  for (const NodeId v : {NodeId{0}, NodeId{99}, NodeId{100}, NodeId{199}}) {
    ExpectSameVicinity(*cache.Get(v), Vicinity(v, KNearest(g, v, 25)));
  }
  cache.Prewarm(Range(0, 200));  // nothing new: no rebuild
  EXPECT_EQ(cache.frozen_count(), 200u);
  EXPECT_EQ(cache.computed_count(), 0u);
}

TEST(VicinityTable, ConcurrentLookupsMatchASequentialPass) {
  const Graph g = ConnectedGnm(512, 2048, 13);
  VicinityCache cache(g, 40, /*capacity=*/64);
  cache.Prewarm(Range(0, 256));  // the other half takes the miss path
  std::vector<std::vector<NodeId>> expected(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const NearNode& m : KNearest(g, v, 40)) expected[v].push_back(m.node);
  }
  std::vector<int> mismatches(8, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 400; ++i) {
        const NodeId v = static_cast<NodeId>(rng.NextBelow(g.num_nodes()));
        const VicinityRef vic = cache.Get(v);
        std::vector<NodeId> got;
        for (const NearNode& m : vic->members()) got.push_back(m.node);
        if (got != expected[v] || !vic->Contains(expected[v].back())) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < 8; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

TEST(VicinityTable, PrewarmBeyondTheBudgetIsTruncatedAndCounted) {
  const Graph g = ConnectedGnm(200, 800, 14);
  // Room for 10 vicinities of 20 members.
  VicinityCache cache(g, 20, /*capacity=*/4096, /*table_entries=*/210);
  const std::uint64_t before = VicinityMetrics().truncations.Value();
  cache.Prewarm(Range(0, 50));
  EXPECT_EQ(cache.frozen_count(), 10u);
  EXPECT_EQ(VicinityMetrics().truncations.Value(), before + 1);
  // The first 10 requested are frozen; the rest take the miss path.
  (void)cache.Get(9);
  EXPECT_EQ(cache.computed_count(), 0u);
  ExpectSameVicinity(*cache.Get(10), Vicinity(10, KNearest(g, 10, 20)));
  EXPECT_EQ(cache.computed_count(), 1u);
  cache.Prewarm(Range(0, 10));  // fits: no new truncation
  EXPECT_EQ(VicinityMetrics().truncations.Value(), before + 1);
}

TEST(VicinityTable, TableGaugesTrackResidentTables) {
  const Graph g = ConnectedGnm(100, 400, 15);
  const std::int64_t entries = VicinityMetrics().table_entries.Value();
  const std::int64_t bytes = VicinityMetrics().table_bytes.Value();
  const auto frozen_entries = static_cast<std::int64_t>(10 * g.num_nodes());
  {
    VicinityCache cache(g, 10);
    cache.Prewarm(Range(0, g.num_nodes()));
    EXPECT_EQ(VicinityMetrics().table_entries.Value(),
              entries + frozen_entries);
    EXPECT_GE(VicinityMetrics().table_bytes.Value(),
              bytes + frozen_entries * static_cast<std::int64_t>(
                                           sizeof(NearNode) +
                                           sizeof(VicinityIndexEntry)));
  }
  EXPECT_EQ(VicinityMetrics().table_entries.Value(), entries);
  EXPECT_EQ(VicinityMetrics().table_bytes.Value(), bytes);
}

TEST(VicinityTable, PrewarmSkipsIdsOutsideTheGraph) {
  const Graph g = ConnectedGnm(64, 256, 18);
  VicinityCache cache(g, 8);
  const NodeId n = g.num_nodes();
  cache.Prewarm({3, n, n + 1000, kInvalidNode, 1, 3});
  EXPECT_EQ(cache.frozen_count(), 2u);
  ExpectSameVicinity(*cache.Get(1), Vicinity(1, KNearest(g, 1, 8)));
  ExpectSameVicinity(*cache.Get(3), Vicinity(3, KNearest(g, 3, 8)));
  EXPECT_EQ(cache.computed_count(), 0u);
  cache.Prewarm({n});  // nothing in range: no rebuild
  EXPECT_EQ(cache.frozen_count(), 2u);
}

// The member entry of v by a linear scan of members(): the truth the
// membership index must reproduce.
const NearNode* LinearFind(const Vicinity& vic, NodeId v) {
  for (const NearNode& m : vic.members()) {
    if (m.node == v) return &m;
  }
  return nullptr;
}

std::vector<NodeId> LinearPathTo(const Vicinity& vic, NodeId v) {
  std::vector<NodeId> path;
  for (const NearNode* m = LinearFind(vic, v); m != nullptr;
       m = LinearFind(vic, m->parent)) {
    path.insert(path.begin(), m->node);
    if (m->node == vic.owner()) break;
  }
  return path;
}

// Every node of g, and kInvalidNode, looked up in `vic` agrees with a
// linear scan.
void ExpectIndexMatchesLinearScan(const Graph& g, const Vicinity& vic) {
  std::vector<NodeId> queries = Range(0, g.num_nodes());
  queries.push_back(g.num_nodes());
  queries.push_back(kInvalidNode);
  for (const NodeId v : queries) {
    const NearNode* want = LinearFind(vic, v);
    ASSERT_EQ(vic.Find(v), want) << "owner " << vic.owner() << " node " << v;
    EXPECT_EQ(vic.Contains(v), want != nullptr);
    EXPECT_EQ(vic.DistanceTo(v), want == nullptr ? kInfDist : want->dist);
    EXPECT_EQ(vic.PathTo(v), LinearPathTo(vic, v));
  }
}

TEST(VicinityTable, MembershipIndexMatchesALinearScan) {
  // A 300-node random connected component and a 40-node path: for k > 40
  // the path's frozen vicinities are short and the table is compacted.
  std::vector<WeightedEdge> edges;
  Rng rng(19);
  for (NodeId v = 1; v < 300; ++v) {
    edges.push_back({static_cast<NodeId>(rng.NextBelow(v)), v,
                     1.0 + static_cast<double>(rng.NextBelow(4))});
  }
  for (int i = 0; i < 600; ++i) {
    const auto a = static_cast<NodeId>(rng.NextBelow(300));
    const auto b = static_cast<NodeId>(rng.NextBelow(300));
    if (a != b) edges.push_back({a, b, 1.0 + static_cast<double>(i % 3)});
  }
  for (NodeId v = 300; v + 1 < 340; ++v) edges.push_back({v, v + 1, 1.0});
  const Graph g = Graph::FromEdges(340, edges);
  for (const std::size_t k : {1, 2, 3, 63, 64, 65, 272}) {
    VicinityCache cache(g, k);
    cache.Prewarm(Range(0, g.num_nodes()));
    for (NodeId v = 0; v < g.num_nodes(); v += (v < 300 ? 7 : 3)) {
      const Vicinity owned(v, KNearest(g, v, k));
      ExpectIndexMatchesLinearScan(g, owned);
      ExpectIndexMatchesLinearScan(g, *cache.Get(v));
      ExpectSameVicinity(*cache.Get(v), owned);
      ASSERT_FALSE(HasFailure()) << "k " << k << " owner " << v;
    }
    EXPECT_EQ(cache.computed_count(), 0u);
  }
  EXPECT_EQ(Vicinity::IndexCap(84), 128u);
  EXPECT_EQ(Vicinity::IndexCap(272), 512u);
}

TEST(VicinityTable, PrewarmedDiscoServesWithoutComputingVicinities) {
  // The serving promise, counter-gated: once every node is prewarmed, no
  // query computes a vicinity.
  const Graph g = ConnectedGnm(2048, 8192, 16);
  Params params;
  params.seed = 16;
  const auto scheme = api::MakeScheme("disco", g, params);
  scheme->PrewarmFor(scheme->AllNodes());
  const std::uint64_t before = VicinityMetrics().miss_computations.Value();
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    const NodeId s = static_cast<NodeId>(rng.NextBelow(g.num_nodes()));
    const NodeId t = static_cast<NodeId>(rng.NextBelow(g.num_nodes()));
    ASSERT_TRUE(scheme->RouteFirst(s, t).ok());
    ASSERT_TRUE(scheme->RouteLater(s, t).ok());
  }
  EXPECT_EQ(VicinityMetrics().miss_computations.Value(), before);
}

}  // namespace
}  // namespace disco
