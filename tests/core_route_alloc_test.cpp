// Exact allocation gate for the query path. This binary replaces the
// global operator new with a counting one: once the tables are prewarmed
// and a warm-up pass has sized the calling thread's scratch, every
// RouteFirst / RouteLater of every shortcut mode on both schemes must
// allocate exactly one block (the returned Route::path), and none for a
// failed route.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/disco.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t size) {
  g_allocs.fetch_add(1);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace disco {
namespace {

// Routes every pair of a 32 x 32 sample in every mode, phase and scheme
// twice: the first pass sizes the scratch, the second counts allocations
// per query. Returns the number of queries whose count was not exactly
// one per non-empty route.
int CountMismatches(const Graph& g, Disco& disco) {
  disco.nd().PrewarmLandmarkTrees();
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) all[v] = v;
  disco.nd().PrewarmVicinities(all);

  const NodeId n = g.num_nodes();
  int mismatches = 0;
  std::size_t routed = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const Shortcut mode : kAllShortcuts) {
      for (int kind = 0; kind < 4; ++kind) {
        for (NodeId i = 0; i < 32; ++i) {
          for (NodeId j = 0; j < 32; ++j) {
            const NodeId s = (i * 37) % n;
            const NodeId t = (i * 37 + j * 101) % n;
            const std::uint64_t before = g_allocs.load();
            const Route r =
                kind == 0   ? disco.RouteFirst(s, t, mode)
                : kind == 1 ? disco.RouteLater(s, t, mode)
                : kind == 2 ? disco.nd().RouteFirst(s, t, mode)
                            : disco.nd().RouteLater(s, t, mode);
            const std::uint64_t allocs = g_allocs.load() - before;
            if (pass == 0) continue;
            ++routed;
            const std::uint64_t want = r.path.empty() ? 0 : 1;
            if (allocs != want) {
              ++mismatches;
              ADD_FAILURE() << ShortcutName(mode) << " kind " << kind << " "
                            << s << "->" << t << ": " << allocs
                            << " allocations";
              if (mismatches > 10) return mismatches;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(routed, 6u * 4u * 32u * 32u);
  return mismatches;
}

TEST(RouteAllocations, OneBlockPerRouteAfterPrewarm) {
  const Graph g = ConnectedGnm(1024, 4096, 5);
  Params p;
  p.seed = 5;
  Disco disco(g, p);
  EXPECT_EQ(CountMismatches(g, disco), 0);
}

// The resolution-fallback plan (error-injected estimates of n, as in
// core_route_golden_test) takes the same single allocation.
TEST(RouteAllocations, OneBlockPerRouteOnTheFallbackPath) {
  const Graph g = ConnectedGnm(1024, 4096, 11);
  const NodeId n = g.num_nodes();
  std::vector<double> estimates(n);
  Rng rng(11 * 7919 + 17);
  for (NodeId v = 0; v < n; ++v) {
    estimates[v] = n * (1.0 + 0.6 * 2.0 * (rng.NextDouble() - 0.5));
  }
  Params p;
  p.seed = 11;
  p.group_bits_offset = 4;
  Disco disco(g, p, NameTable::Default(n), estimates);
  EXPECT_EQ(CountMismatches(g, disco), 0);
}

}  // namespace
}  // namespace disco
