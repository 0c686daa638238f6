// Per-landmark shortest-path trees, computed lazily and memoized.
//
// Every node knows a shortest path to every landmark (§4.2); in the static
// simulator that knowledge is the landmark's full Dijkstra tree: dist[l][v]
// is v's landmark-table entry for l, and the parent chain materializes the
// s ; l segment of routes. Trees are O(n) each, so for the paper-scale maps
// the cache is bounded and the benches sort their sampled destinations by
// closest landmark to maximize reuse.
//
// Tiering: when the process has an artifact store attached (the benches'
// --store=<dir> flag, src/store/), the cache becomes two-level —
// RAM LRU -> store -> compute. A miss first tries to decode the tree from
// the store (store/tree_codec.h frames keyed by graph fingerprint +
// landmark set + root + codec version); only if that fails does it run
// the Dijkstra, and it then writes the encoded tree back so the next
// process loads instead of recomputing. Decoded trees are bit-identical
// to computed ones, so store-backed runs produce byte-identical output.
//
// Prewarm() bulk-resolves the whole tree set over the runtime's thread
// pool when it fits the resident budget, and freezes it: an immutable
// array indexed by landmark rank that Tree() reads with no lock. Without
// a prewarm (or when the set does not fit) trees go through a bounded
// LRU, which is thread-safe: concurrent routing tasks may miss on
// distinct landmarks and run their loads/Dijkstras in parallel (the lock
// covers only map bookkeeping).
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "graph/shortest_path.h"
#include "routing/landmarks.h"
#include "store/artifact_store.h"

namespace disco {

/// SHA-256 (hex) of the landmark id list — the "landmark set" component
/// of tree artifact keys.
std::string LandmarkSetFingerprintHex(const LandmarkSet& landmarks);

/// The artifact key under which landmark `root`'s tree is stored for a
/// given (graph fingerprint, landmark set fingerprint). One definition
/// shared by the cache's second tier and disco_store's prebuilder, so the
/// two can never disagree on where a tree lives.
store::ArtifactKey LandmarkTreeArtifactKey(const std::string& graph_fp_hex,
                                           const std::string& set_fp_hex,
                                           NodeId root);

class LandmarkTreeCache {
 public:
  /// `capacity` = number of trees kept resident. Attaches the process
  /// artifact store (store::ProcessStore()) as the second tier when one
  /// is open.
  LandmarkTreeCache(const Graph& g, const LandmarkSet& landmarks,
                    std::size_t capacity = 2048);

  /// The Dijkstra tree rooted at landmark `l` (l must be a landmark).
  /// Safe to call concurrently. A frozen tree is returned without
  /// ownership (no reference count to bump): it lives as long as the
  /// cache.
  std::shared_ptr<const ShortestPathTree> Tree(NodeId l);

  /// Eagerly resolves every landmark tree in parallel (store load where
  /// possible, Dijkstra otherwise) and freezes the set for lock-free
  /// reads. No-op once frozen, and unless the full set fits in the
  /// cache and within `max_resident_entries` total tree entries
  /// (count * n) — paper-scale --full maps stay lazy/LRU unless the
  /// budget is raised. Passing 0 (the default) takes the budget from the
  /// DISCO_TREE_CACHE_ENTRIES env var, falling back to 32M entries, so
  /// full-scale runs can opt into bigger resident sets without code
  /// edits. Purely a wall-clock optimization: cache contents are a
  /// deterministic function of the graph either way.
  void Prewarm(std::size_t max_resident_entries = 0);

  const LandmarkSet& landmarks() const { return landmarks_; }

  /// Number of distinct trees materialized (from either tier).
  std::size_t computed_count() const;

  /// Per-tier traffic of this cache instance. `dijkstras` counts actual
  /// shortest-path computations — the number store_smoke asserts is zero
  /// on a warm store.
  struct TierStats {
    std::size_t ram_hits = 0;
    std::size_t store_hits = 0;
    std::size_t dijkstras = 0;
    std::size_t writebacks = 0;
  };
  TierStats tier_stats() const;

 private:
  std::shared_ptr<const ShortestPathTree> Insert(
      NodeId l, std::shared_ptr<const ShortestPathTree> tree);

  /// The miss path: store load, else Dijkstra + write-back. Runs without
  /// the lock; safe to call concurrently for distinct (or equal) roots.
  std::shared_ptr<const ShortestPathTree> LoadOrCompute(NodeId l);

  store::ArtifactKey KeyFor(NodeId l) const;

  const Graph& g_;
  const LandmarkSet& landmarks_;
  std::size_t capacity_;

  // Second tier; null when no process store is open. The graph and
  // landmark-set fingerprints are computed once at construction so
  // per-tree keys are cheap.
  store::ArtifactStore* store_ = nullptr;
  std::string graph_fp_;
  std::string set_fp_;

  std::atomic<std::size_t> ram_hits_{0};
  std::atomic<std::size_t> store_hits_{0};
  std::atomic<std::size_t> dijkstras_{0};
  std::atomic<std::size_t> writebacks_{0};

  // Every tree by landmark rank once Prewarm has frozen the set;
  // immutable from then on.
  using TreeArray = std::vector<std::shared_ptr<const ShortestPathTree>>;
  std::atomic<const TreeArray*> frozen_{nullptr};
  std::unique_ptr<const TreeArray> frozen_trees_;

  mutable std::mutex mu_;
  std::size_t computed_ = 0;
  std::list<NodeId> lru_;
  struct Entry {
    std::shared_ptr<const ShortestPathTree> tree;
    std::list<NodeId>::iterator lru_pos;
  };
  std::unordered_map<NodeId, Entry> cache_;
};

}  // namespace disco
