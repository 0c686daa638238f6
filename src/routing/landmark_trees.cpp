#include "routing/landmark_trees.h"

// disco-lint: allow-file(relaxed-atomic): cache statistics only (hits,
// dijkstras, writebacks) — commutative increments read after the owning
// parallel section has joined; they never feed routing output.

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "graph/io.h"
#include "obs/trace.h"
#include "runtime/parallel_for.h"
#include "store/tree_codec.h"
#include "util/sha256.h"

namespace disco {

// Fingerprint of the landmark id list — the "landmark set" component of
// every tree artifact's key (keying: graph fingerprint, landmark set,
// root, codec version). Two runs agree on it iff they selected the same
// set, e.g. by deriving it from the same (n, seed, Params).
std::string LandmarkSetFingerprintHex(const LandmarkSet& landmarks) {
  Sha256 h;
  h.Update("disco-landmark-set-v1");
  for (const NodeId l : landmarks.landmarks) {
    const std::uint32_t v = l;
    h.Update(&v, sizeof v);
  }
  return Sha256HexOf(h.Finalize());
}

store::ArtifactKey LandmarkTreeArtifactKey(const std::string& graph_fp_hex,
                                           const std::string& set_fp_hex,
                                           NodeId root) {
  store::ArtifactKey key;
  key.kind = "ltree";
  key.graph = graph_fp_hex;
  key.scope = "set=" + set_fp_hex + ";root=" + std::to_string(root);
  key.version = store::kTreeCodecVersion;
  return key;
}

LandmarkTreeCache::LandmarkTreeCache(const Graph& g,
                                     const LandmarkSet& landmarks,
                                     std::size_t capacity)
    : g_(g), landmarks_(landmarks),
      capacity_(std::max<std::size_t>(capacity, 1)) {
  store_ = store::ProcessStore();
  if (store_ != nullptr) {
    // One O(m) fingerprint pass buys every tree of this graph a store
    // key; negligible next to a single landmark Dijkstra.
    graph_fp_ = GraphFingerprintHex(g_);
    set_fp_ = LandmarkSetFingerprintHex(landmarks_);
  }
}

store::ArtifactKey LandmarkTreeCache::KeyFor(NodeId l) const {
  return LandmarkTreeArtifactKey(graph_fp_, set_fp_, l);
}

std::shared_ptr<const ShortestPathTree> LandmarkTreeCache::LoadOrCompute(
    NodeId l) {
  if (store_ != nullptr) {
    if (const auto reader = store_->Open(KeyFor(l))) {
      DISCO_TRACE_SPAN("store.decode");
      auto tree = std::make_shared<ShortestPathTree>();
      // The root check closes the last unvalidated field: a valid tree of
      // this graph but another root (misfiled object) must read as a
      // miss, not silently poison every route through this landmark.
      if (reader->frame_count() >= 1 &&
          store::DecodeTree(g_, reader->frame(0).data(),
                            reader->frame(0).size(), tree.get()) &&
          tree->source == l) {
        store_hits_.fetch_add(1, std::memory_order_relaxed);
        store::Counters().tree_store_hits.Inc();
        return tree;
      }
      // Structurally invalid for this graph (or torn): fall through and
      // recompute; the write-back below republishes a good object.
    }
  }
  std::shared_ptr<const ShortestPathTree> tree;
  {
    DISCO_TRACE_SPAN("store.dijkstra");
    tree = std::make_shared<const ShortestPathTree>(Dijkstra(g_, l));
  }
  dijkstras_.fetch_add(1, std::memory_order_relaxed);
  store::Counters().tree_dijkstras.Inc();
  if (store_ != nullptr) {
    DISCO_TRACE_SPAN("store.writeback");
    const std::string frame = store::EncodeTree(g_, *tree);
    if (!frame.empty() && store_->Put(KeyFor(l), {frame})) {
      writebacks_.fetch_add(1, std::memory_order_relaxed);
      store::Counters().tree_writebacks.Inc();
    }
  }
  return tree;
}

std::shared_ptr<const ShortestPathTree> LandmarkTreeCache::Tree(NodeId l) {
  assert(landmarks_.Contains(l));
  if (const TreeArray* frozen = frozen_.load(std::memory_order_acquire)) {
    const std::vector<NodeId>& all = landmarks_.landmarks;
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(all.begin(), all.end(), l) - all.begin());
    ram_hits_.fetch_add(1, std::memory_order_relaxed);
    store::Counters().tree_ram_hits.Inc();
    // Aliasing an empty owner: a pointer without a control block.
    return {std::shared_ptr<const ShortestPathTree>(),
            (*frozen)[rank].get()};
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(l);
    if (it != cache_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      ram_hits_.fetch_add(1, std::memory_order_relaxed);
      store::Counters().tree_ram_hits.Inc();
      return it->second.tree;
    }
  }
  // Miss: resolve from the store (or run the Dijkstra) unlocked so
  // concurrent misses on distinct landmarks proceed in parallel. A racing
  // duplicate resolution of the same tree is possible but harmless —
  // Insert keeps the first one.
  return Insert(l, LoadOrCompute(l));
}

std::shared_ptr<const ShortestPathTree> LandmarkTreeCache::Insert(
    NodeId l, std::shared_ptr<const ShortestPathTree> tree) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(l);
  if (it != cache_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second.tree;
  }
  ++computed_;
  lru_.push_front(l);
  cache_.emplace(l, Entry{tree, lru_.begin()});
  if (cache_.size() > capacity_) {
    const NodeId evict = lru_.back();
    lru_.pop_back();
    cache_.erase(evict);
  }
  return tree;
}

void LandmarkTreeCache::Prewarm(std::size_t max_resident_entries) {
  if (max_resident_entries == 0) {
    // Satellite knob: full-scale runs export DISCO_TREE_CACHE_ENTRIES to
    // let e.g. the 192k-node router map's ~1.5k trees stay resident
    // (count * n entries) without a code edit. Non-numeric or zero values
    // fall back to the built-in default.
    max_resident_entries = 32u << 20;
    if (const char* env = std::getenv("DISCO_TREE_CACHE_ENTRIES")) {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(env, &end, 10);
      if (end != env && *end == '\0' && v > 0) {
        max_resident_entries = static_cast<std::size_t>(v);
      }
    }
  }
  const std::vector<NodeId>& all = landmarks_.landmarks;
  if (all.empty() || all.size() > capacity_) return;
  if (all.size() * static_cast<std::size_t>(g_.num_nodes()) >
      max_resident_entries) {
    return;
  }
  if (runtime::ThreadPool::Shared().parallelism() == 1) return;  // stay lazy
  if (frozen_.load(std::memory_order_acquire) != nullptr) return;
  auto trees = std::make_unique<TreeArray>(all.size());
  runtime::ParallelForTasks(all.size(), [&](std::size_t i) {
    (*trees)[i] = LoadOrCompute(all[i]);
  });
  std::lock_guard<std::mutex> lock(mu_);
  if (frozen_.load(std::memory_order_acquire) != nullptr) return;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (cache_.count(all[i]) == 0) ++computed_;
  }
  frozen_trees_ = std::move(trees);
  frozen_.store(frozen_trees_.get(), std::memory_order_release);
}

std::size_t LandmarkTreeCache::computed_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return computed_;
}

LandmarkTreeCache::TierStats LandmarkTreeCache::tier_stats() const {
  TierStats s;
  s.ram_hits = ram_hits_.load(std::memory_order_relaxed);
  s.store_hits = store_hits_.load(std::memory_order_relaxed);
  s.dijkstras = dijkstras_.load(std::memory_order_relaxed);
  s.writebacks = writebacks_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace disco
