#include "core/shortcut.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/nddisco.h"
#include "graph/generators.h"
#include "graph/shortest_path.h"
#include "test_util.h"

namespace disco {
namespace {

using testing::PathGraph;

TEST(ShortcutNames, AllModesNamed) {
  for (const Shortcut mode : kAllShortcuts) {
    EXPECT_STRNE(ShortcutName(mode), "?");
  }
}

TEST(ToDestination, CutsAtFirstKnowingNode) {
  // Plan 0-1-2-3-4; node 2 knows a direct path 2-4 (pretend).
  const std::vector<WeightedEdge> edges = {
      {0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}, {3, 4, 1.0}, {2, 4, 1.0}};
  const Graph g = Graph::FromEdges(5, edges);
  std::vector<NodeId> plan = {0, 1, 2, 3, 4};
  auto direct = [&](NodeId u, NodeId t, std::vector<NodeId>* out) {
    if (u != 2 || t != 4) return false;
    out->insert(out->end(), {2, 4});
    return true;
  };
  CutToDestination(&plan, 0, direct);
  EXPECT_EQ(plan, (std::vector<NodeId>{0, 1, 2, 4}));
}

TEST(ToDestination, NoKnowledgeLeavesPlanIntact) {
  const std::vector<NodeId> plan = {0, 1, 2};
  auto nothing = [](NodeId, NodeId, std::vector<NodeId>*) { return false; };
  std::vector<NodeId> cut = plan;
  CutToDestination(&cut, 0, nothing);
  EXPECT_EQ(cut, plan);
}

TEST(ToDestination, SourceKnowingWins) {
  const Graph g = PathGraph(4);
  const std::vector<NodeId> plan = {0, 1, 2, 3};
  auto direct = [&](NodeId u, NodeId t, std::vector<NodeId>* out) {
    // Everyone "knows" the remaining plan suffix; the source must cut
    // first, yielding the same path (idempotence check).
    for (NodeId x = u; x <= t; ++x) out->push_back(x);
    return true;
  };
  std::vector<NodeId> cut = plan;
  CutToDestination(&cut, 0, direct);
  EXPECT_EQ(cut, plan);
}

class NdShortcutFixture : public ::testing::Test {
 protected:
  NdShortcutFixture()
      : g_(ConnectedGeometric(512, 8.0, 7)), nd_([this] {
          Params p;
          p.seed = 7;
          return NdDisco(g_, p);
        }()) {}

  Graph g_;
  NdDisco nd_;
};

TEST_F(NdShortcutFixture, UpDownStreamNeverLengthens) {
  for (NodeId s = 0; s < g_.num_nodes(); s += 67) {
    for (NodeId t = 1; t < g_.num_nodes(); t += 71) {
      if (s == t) continue;
      const auto plan = nd_.FirstPacketPlan(s, t);
      std::vector<NodeId> spliced;
      std::vector<Dist> cum;
      SpliceUpDownStream(
          g_, plan, [this](NodeId u) { return nd_.vicinity(u); }, &spliced,
          &cum);
      ASSERT_FALSE(spliced.empty());
      EXPECT_EQ(spliced.front(), s);
      EXPECT_EQ(spliced.back(), t);
      EXPECT_LE(PathLength(g_, spliced), PathLength(g_, plan) + 1e-9);
    }
  }
}

TEST_F(NdShortcutFixture, ToDestinationNeverLengthens) {
  for (NodeId s = 0; s < g_.num_nodes(); s += 67) {
    for (NodeId t = 1; t < g_.num_nodes(); t += 71) {
      if (s == t) continue;
      const auto plan = nd_.FirstPacketPlan(s, t);
      std::vector<NodeId> cut = plan;
      CutToDestination(&cut, 0,
                       [this](NodeId u, NodeId v, std::vector<NodeId>* out) {
                         return nd_.AppendDirectPath(u, v, out);
                       });
      ASSERT_FALSE(cut.empty());
      EXPECT_EQ(cut.front(), s);
      EXPECT_EQ(cut.back(), t);
      EXPECT_LE(PathLength(g_, cut), PathLength(g_, plan) + 1e-9);
    }
  }
}

TEST_F(NdShortcutFixture, ResultingPathsAreValidWalks) {
  for (const Shortcut mode : kAllShortcuts) {
    const Route r = nd_.RouteFirst(3, 400, mode);
    ASSERT_TRUE(r.ok()) << ShortcutName(mode);
    EXPECT_EQ(r.path.front(), 3u);
    EXPECT_EQ(r.path.back(), 400u);
    EXPECT_LT(PathLength(g_, r.path), kInfDist) << ShortcutName(mode);
  }
}

TEST_F(NdShortcutFixture, ModeOrderingOnAverage) {
  // Stronger heuristics must not do worse on average (Fig. 6's rows).
  const auto truth = Dijkstra(g_, 11);
  double none = 0, todest = 0, npk = 0, pk = 0;
  int count = 0;
  for (NodeId t = 1; t < g_.num_nodes(); t += 23) {
    if (t == 11 || truth.dist[t] <= 0) continue;
    none += nd_.RouteFirst(11, t, Shortcut::kNone).length / truth.dist[t];
    todest +=
        nd_.RouteFirst(11, t, Shortcut::kToDestination).length /
        truth.dist[t];
    npk += nd_.RouteFirst(11, t, Shortcut::kNoPathKnowledge).length /
           truth.dist[t];
    pk += nd_.RouteFirst(11, t, Shortcut::kPathKnowledge).length /
          truth.dist[t];
    ++count;
  }
  ASSERT_GT(count, 10);
  EXPECT_LE(todest, none + 1e-9);
  EXPECT_LE(npk, todest + 1e-9);
  EXPECT_LE(pk, npk + 1e-9);
}

}  // namespace
}  // namespace disco
