// Vicinities (§4.2): V(v) is the k = Θ(sqrt(n log n)) nodes closest to v,
// learned by the bounded path-vector protocol. The fixed size — rather than
// S4's unbounded clusters — is what enforces Disco's per-node state bound.
//
// The static simulator computes a vicinity with one truncated Dijkstra.
// Converged vicinities never change, so VicinityCache serves them from a
// frozen table: Prewarm() computes the vicinities of a known working set
// (every node, for the serving benches) in parallel into one immutable
// CSR-shaped table, and a lookup of a frozen node is a slot read with no
// lock, no LRU bookkeeping and no reference count. Membership ("is t in
// V(u)?", asked at every node of every shortcut candidate and at every hop
// of a path walk) is a hashed probe of an open-addressed index that every
// vicinity carries, frozen or not. Nodes outside the table take the miss
// path, a bounded mutex LRU that computes on demand and is counted in the
// metrics registry. The table has a resident-entry budget;
// paper-scale maps (k ≈ 3.7k at n = 10^6) cannot freeze every node, and a
// Prewarm that exceeds the budget is truncated with a warning.
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
#include "obs/metrics.h"
#include "util/span.h"

namespace disco {

/// Registry metrics shared by every VicinityCache in the process. The
/// gauges sum the frozen tables resident now; table hits bump nothing.
struct VicinityCounters {
  obs::Gauge& table_entries;
  obs::Gauge& table_bytes;
  obs::Counter& miss_computations;
  obs::Counter& truncations;
  VicinityCounters();
};
VicinityCounters& VicinityMetrics();

/// One slot of a vicinity's membership index: a member node and its
/// position in members(), or node == kInvalidNode in an empty slot.
struct VicinityIndexEntry {
  NodeId node;
  std::uint32_t pos;
};

/// The converged vicinity of one node: its k closest nodes (including
/// itself at distance 0) with distances and truncated-tree parents.
///
/// A Vicinity is a cheap-to-copy view. One built from a member list owns
/// its storage (shared by its copies); one returned by VicinityCache for a
/// frozen node views the cache's table and is valid while the cache lives.
class Vicinity {
 public:
  Vicinity(NodeId owner, std::vector<NearNode> members);

  /// Slots in the membership index of a vicinity of up to k members: the
  /// smallest power of two above 3k/2. The load stays below 2/3, and an
  /// empty slot always ends a probe.
  static std::size_t IndexCap(std::size_t k) {
    std::size_t cap = 1;
    while (cap < k + k / 2 + 1) cap <<= 1;
    return cap;
  }

  NodeId owner() const { return owner_; }

  /// Members in nondecreasing distance order (ties by id); first is owner.
  Span<const NearNode> members() const { return members_; }

  std::size_t size() const { return members_.size(); }

  bool Contains(NodeId v) const { return Find(v) != nullptr; }

  /// The member entry of v; nullptr if v is not in the vicinity. Probes
  /// linearly from v's home slot to v or to an empty slot.
  const NearNode* Find(NodeId v) const {
    const std::size_t mask = index_.size() - 1;
    for (std::size_t i = HomeSlot(v, index_.size());; i = (i + 1) & mask) {
      const VicinityIndexEntry e = index_[i];
      if (e.node == kInvalidNode) return nullptr;
      if (e.node == v) return &members_[e.pos];
    }
  }

  /// Distance to a member; kInfDist if v is not in the vicinity.
  Dist DistanceTo(NodeId v) const;

  /// Distance to the farthest member (the vicinity "radius" that the
  /// control-plane optimization of §4.2 would advertise to neighbors).
  Dist radius() const {
    return members_.empty() ? 0 : members_.back().dist;
  }

  /// Shortest path owner -> member (inclusive); empty if not a member.
  std::vector<NodeId> PathTo(NodeId v) const;

  /// Appends the shortest path from member `m` back to the owner (m.node
  /// first, owner last) by walking m's parent chain.
  void AppendPathToOwner(const NearNode& m, std::vector<NodeId>* out) const;

 private:
  friend class VicinityCache;

  // Fibonacci hashing: the high bits of v * 2^32/φ (mod 2^32) pick one
  // of `cap` slots.
  static std::size_t HomeSlot(NodeId v, std::size_t cap) {
    const std::uint64_t h = v * 0x9E3779B1u;
    return static_cast<std::size_t>((h * cap) >> 32);
  }

  // Writes the membership index of `members` to `index[0, cap)`, where
  // cap is a power of two above members.size().
  static void BuildIndex(Span<const NearNode> members,
                         VicinityIndexEntry* index, std::size_t cap);

  // A view over a frozen table's slices; `index` is the membership index
  // of `members`.
  Vicinity(NodeId owner, Span<const NearNode> members,
           Span<const VicinityIndexEntry> index)
      : owner_(owner), members_(members), index_(index) {}

  NodeId owner_;
  Span<const NearNode> members_;
  Span<const VicinityIndexEntry> index_;
  std::shared_ptr<const void> storage_;  // null for a view
};

/// What a vicinity lookup returns: a Vicinity held by value and
/// dereferenced like a pointer (`vic->members()`, `*vic`).
class VicinityRef {
 public:
  explicit VicinityRef(Vicinity vic) : vic_(std::move(vic)) {}

  const Vicinity& operator*() const { return vic_; }
  const Vicinity* operator->() const { return &vic_; }

 private:
  Vicinity vic_;
};

/// Vicinity lookups over a fixed graph: a frozen table for the prewarmed
/// nodes, an LRU of `capacity` vicinities computed on demand for the rest.
class VicinityCache {
 public:
  /// Default resident-entry budget of the frozen table (members over all
  /// frozen vicinities): 32M entries, about 1 GiB at k = 272, where each
  /// member takes 16 bytes and its share of the index about 15 more.
  static constexpr std::size_t kTableEntryBudget = std::size_t{32} << 20;

  /// `k` is the vicinity size; `capacity` the number of vicinities the
  /// miss-path LRU keeps; `table_entries` the frozen table's budget.
  VicinityCache(const Graph& g, std::size_t k, std::size_t capacity = 4096,
                std::size_t table_entries = kTableEntryBudget);
  ~VicinityCache();
  VicinityCache(const VicinityCache&) = delete;
  VicinityCache& operator=(const VicinityCache&) = delete;

  /// Safe to call concurrently. A frozen node is a lock-free table read;
  /// misses on distinct nodes run their truncated Dijkstras in parallel.
  VicinityRef Get(NodeId v) {
    const Table* t = table_.load(std::memory_order_acquire);
    if (t != nullptr && t->slot_of[v] != kNoSlot) {
      return VicinityRef(t->At(v, t->slot_of[v]));
    }
    return GetMiss(v);
  }

  /// Freezes the vicinities of `nodes` (on top of any frozen earlier),
  /// computed in parallel over the runtime pool. Nodes beyond the table
  /// budget are dropped with one warning and stay on the miss path. A
  /// wall-clock optimization only: vicinity contents are a deterministic
  /// function of the graph. Safe to call concurrently with Get.
  void Prewarm(const std::vector<NodeId>& nodes);

  std::size_t k() const { return k_; }

  /// Vicinities computed on the miss path (outside the frozen table).
  std::size_t computed_count() const;

  /// Nodes whose vicinities are frozen.
  std::size_t frozen_count() const;

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  struct Unmap {
    std::size_t bytes;  // of the mapping
    void operator()(void* p) const;
  };

  // The frozen vicinities in CSR shape: slot s holds members
  // [offsets[s], offsets[s + 1]) and the index slots
  // [s * index_cap, (s + 1) * index_cap), one index stride for every slot.
  // Immutable once published.
  struct Table {
    std::vector<std::uint32_t> slot_of;  // node -> slot, or kNoSlot
    std::vector<std::uint64_t> offsets;  // slots + 1
    std::unique_ptr<NearNode[], Unmap> members;
    std::unique_ptr<VicinityIndexEntry[], Unmap> index;
    std::size_t index_cap = 0;  // Vicinity::IndexCap(k)

    std::size_t slots() const { return offsets.size() - 1; }
    std::size_t entries() const { return offsets.back(); }
    std::size_t bytes() const;
    Vicinity At(NodeId v, std::uint32_t slot) const {
      const std::uint64_t lo = offsets[slot];
      const auto len = static_cast<std::size_t>(offsets[slot + 1] - lo);
      return Vicinity(v, {members.get() + lo, len},
                      {index.get() + slot * index_cap, index_cap});
    }
  };

  VicinityRef GetMiss(NodeId v);
  std::unique_ptr<const Table> BuildTable(const Table* old,
                                          const std::vector<NodeId>& fresh);

  const Graph& g_;
  std::size_t k_;
  std::size_t capacity_;
  std::size_t table_entries_;

  // Every table ever published stays alive with the cache, so views taken
  // before a later Prewarm remain valid; the newest is the live one.
  std::atomic<const Table*> table_{nullptr};
  std::vector<std::unique_ptr<const Table>> tables_;
  std::mutex prewarm_mu_;

  // The miss path.
  mutable std::mutex mu_;
  std::size_t computed_ = 0;
  std::list<NodeId> lru_;  // front = most recent
  struct Entry {
    Vicinity vicinity;
    std::list<NodeId>::iterator lru_pos;
  };
  std::unordered_map<NodeId, Entry> cache_;
};

}  // namespace disco
