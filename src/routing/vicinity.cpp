#include "routing/vicinity.h"

#include <sys/mman.h>

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>
#include <new>

#include "obs/log.h"
#include "runtime/parallel_for.h"

namespace disco {
namespace {

struct OwnedStorage {
  std::vector<NearNode> members;
  std::vector<VicinityIndexEntry> index;
};

// Storage for `count` elements of a table array, mapped directly; the
// table build writes every element it reads. Not malloc: once glibc's
// dynamic mmap threshold has risen past an array's size, malloc serves the
// array from its heap, which keeps the pages after the table is freed, so
// a process that builds one table per served graph peaked higher.
template <typename Array>
void MapArray(std::size_t count, Array* out) {
  using T = typename Array::element_type;
  const std::size_t bytes = std::max<std::size_t>(count, 1) * sizeof(T);
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  *out = Array(static_cast<T*>(p), typename Array::deleter_type{bytes});
}

}  // namespace

VicinityCounters::VicinityCounters()
    : table_entries(obs::Global().RegisterGauge(
          "disco_vicinity_table_entries",
          "Vicinity members resident in frozen vicinity tables", "vicinity",
          "table_entries")),
      table_bytes(obs::Global().RegisterGauge(
          "disco_vicinity_table_bytes",
          "Bytes of the frozen vicinity tables (16-byte members, "
          "open-addressed membership index, offsets, node-to-slot map)",
          "vicinity", "table_bytes")),
      miss_computations(obs::Global().RegisterCounter(
          "disco_vicinity_miss_computations_total",
          "Vicinities computed on demand outside the frozen table",
          "vicinity", "miss")),
      truncations(obs::Global().RegisterCounter(
          "disco_vicinity_table_truncations_total",
          "Prewarms cut short by the frozen table's entry budget",
          "vicinity", "truncated")) {}

VicinityCounters& VicinityMetrics() {
  static VicinityCounters* counters = new VicinityCounters;
  return *counters;
}

Vicinity::Vicinity(NodeId owner, std::vector<NearNode> members)
    : owner_(owner) {
  auto storage = std::make_shared<OwnedStorage>();
  storage->members = std::move(members);
  storage->index.resize(IndexCap(storage->members.size()));
  BuildIndex(storage->members, storage->index.data(), storage->index.size());
  members_ = storage->members;
  index_ = storage->index;
  storage_ = std::move(storage);
}

void Vicinity::BuildIndex(Span<const NearNode> members,
                          VicinityIndexEntry* index, std::size_t cap) {
  std::fill(index, index + cap, VicinityIndexEntry{kInvalidNode, 0});
  const std::size_t mask = cap - 1;
  for (std::uint32_t i = 0; i < members.size(); ++i) {
    std::size_t slot = HomeSlot(members[i].node, cap);
    while (index[slot].node != kInvalidNode) slot = (slot + 1) & mask;
    index[slot] = {members[i].node, i};
  }
}

Dist Vicinity::DistanceTo(NodeId v) const {
  const NearNode* m = Find(v);
  return m == nullptr ? kInfDist : m->dist;
}

std::vector<NodeId> Vicinity::PathTo(NodeId v) const {
  const NearNode* m = Find(v);
  if (m == nullptr) return {};
  std::vector<NodeId> path;
  AppendPathToOwner(*m, &path);
  std::reverse(path.begin(), path.end());
  return path;
}

void Vicinity::AppendPathToOwner(const NearNode& m,
                                 std::vector<NodeId>* out) const {
  // Parents point toward the owner and were settled earlier, so they are
  // always members too.
  for (const NearNode* cur = &m;; cur = Find(cur->parent)) {
    assert(cur != nullptr);
    out->push_back(cur->node);
    if (cur->node == owner_) break;
  }
}

void VicinityCache::Unmap::operator()(void* p) const { ::munmap(p, bytes); }

std::size_t VicinityCache::Table::bytes() const {
  return entries() * sizeof(NearNode) +
         slots() * index_cap * sizeof(VicinityIndexEntry) +
         offsets.size() * sizeof(std::uint64_t) +
         slot_of.size() * sizeof(std::uint32_t);
}

VicinityCache::VicinityCache(const Graph& g, std::size_t k,
                             std::size_t capacity, std::size_t table_entries)
    : g_(g), k_(std::min<std::size_t>(k, g.num_nodes())),
      capacity_(std::max<std::size_t>(capacity, 1)),
      table_entries_(table_entries) {}

VicinityCache::~VicinityCache() {
  for (const auto& t : tables_) {
    VicinityMetrics().table_entries.Add(
        -static_cast<std::int64_t>(t->entries()));
    VicinityMetrics().table_bytes.Add(
        -static_cast<std::int64_t>(t->bytes()));
  }
}

VicinityRef VicinityCache::GetMiss(NodeId v) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(v);
    if (it != cache_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      return VicinityRef(it->second.vicinity);
    }
  }
  // Truncated Dijkstra runs unlocked so concurrent misses on distinct
  // nodes parallelize. A racing duplicate of the same vicinity is
  // harmless — the first insert wins.
  Vicinity vic(v, KNearest(g_, v, k_));
  VicinityMetrics().miss_computations.Inc();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(v);
  if (it != cache_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return VicinityRef(it->second.vicinity);
  }
  ++computed_;
  lru_.push_front(v);
  cache_.emplace(v, Entry{vic, lru_.begin()});
  if (cache_.size() > capacity_) {
    cache_.erase(lru_.back());
    lru_.pop_back();
  }
  return VicinityRef(std::move(vic));
}

void VicinityCache::Prewarm(const std::vector<NodeId>& nodes) {
  if (k_ == 0) return;
  std::lock_guard<std::mutex> lock(prewarm_mu_);
  const Table* old = table_.load(std::memory_order_acquire);
  // Requested nodes not frozen yet, deduplicated, in request order.
  std::vector<char> wanted(g_.num_nodes(), 0);
  if (old != nullptr) {
    for (NodeId v = 0; v < g_.num_nodes(); ++v) {
      wanted[v] = old->slot_of[v] != kNoSlot;
    }
  }
  std::vector<NodeId> fresh;
  std::size_t outside = 0;
  for (const NodeId v : nodes) {
    if (v >= g_.num_nodes()) {
      ++outside;
      continue;
    }
    if (!wanted[v]) fresh.push_back(v);
    wanted[v] = 1;
  }
  if (outside > 0) {
    obs::Log(obs::LogLevel::kWarn,
             "vicinity prewarm skipped %zu node ids outside the graph's "
             "%zu nodes",
             outside, static_cast<std::size_t>(g_.num_nodes()));
  }
  const std::size_t frozen = old == nullptr ? 0 : old->slots();
  const std::size_t max_slots = table_entries_ / k_;
  const std::size_t room = max_slots > frozen ? max_slots - frozen : 0;
  if (fresh.size() > room) {
    obs::Log(obs::LogLevel::kWarn,
             "vicinity table budget of %zu entries (k=%zu) holds %zu "
             "vicinities; %zu requested nodes stay on the miss path",
             table_entries_, k_, frozen + room, fresh.size() - room);
    VicinityMetrics().truncations.Inc();
    fresh.resize(room);
  }
  if (fresh.empty()) return;

  std::unique_ptr<const Table> table = BuildTable(old, fresh);
  VicinityMetrics().table_entries.Add(
      static_cast<std::int64_t>(table->entries()));
  VicinityMetrics().table_bytes.Add(
      static_cast<std::int64_t>(table->bytes()));
  const Table* live = table.get();
  tables_.push_back(std::move(table));
  table_.store(live, std::memory_order_release);
}

std::unique_ptr<const VicinityCache::Table> VicinityCache::BuildTable(
    const Table* old, const std::vector<NodeId>& fresh) {
  // Slots keep the old table's vicinities (copied, in their old slots),
  // then the fresh nodes. Every slot's index has the same stride, cap;
  // members are first written at stride k, which no vicinity exceeds, and
  // compacted afterwards only if a component smaller than k left some slot
  // short. A short vicinity's index keeps the full cap (it only lowers the
  // load), so the index is never compacted.
  const std::size_t kept = old == nullptr ? 0 : old->slots();
  const std::size_t slots = kept + fresh.size();
  const std::size_t cap = Vicinity::IndexCap(k_);
  auto t = std::make_unique<Table>();
  t->index_cap = cap;
  MapArray(slots * k_, &t->members);
  MapArray(slots * cap, &t->index);
  std::vector<std::size_t> len(slots);
  runtime::ParallelFor(
      0, slots,
      [&](std::size_t lo, std::size_t hi) {
        std::vector<NearNode> buf;
        for (std::size_t s = lo; s < hi; ++s) {
          NearNode* members = t->members.get() + s * k_;
          VicinityIndexEntry* index = t->index.get() + s * cap;
          if (s < kept) {
            const std::uint64_t a = old->offsets[s], b = old->offsets[s + 1];
            std::uninitialized_copy(old->members.get() + a,
                                    old->members.get() + b, members);
            std::uninitialized_copy(old->index.get() + s * cap,
                                    old->index.get() + (s + 1) * cap, index);
            len[s] = static_cast<std::size_t>(b - a);
          } else {
            KNearest(g_, fresh[s - kept], k_, &buf);
            std::uninitialized_copy(buf.begin(), buf.end(), members);
            Vicinity::BuildIndex({members, buf.size()}, index, cap);
            len[s] = buf.size();
          }
        }
      },
      nullptr, 16);

  t->offsets.assign(slots + 1, 0);
  for (std::size_t s = 0; s < slots; ++s) {
    t->offsets[s + 1] = t->offsets[s] + len[s];
  }
  if (t->entries() != slots * k_) {
    // Forward compaction: a slot's target never passes its source.
    for (std::size_t s = 1; s < slots; ++s) {
      std::memmove(t->members.get() + t->offsets[s],
                   t->members.get() + s * k_, len[s] * sizeof(NearNode));
    }
  }
  if (old != nullptr) {
    t->slot_of = old->slot_of;
  } else {
    t->slot_of.assign(g_.num_nodes(), kNoSlot);
  }
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    t->slot_of[fresh[i]] = static_cast<std::uint32_t>(kept + i);
  }
  return t;
}

std::size_t VicinityCache::computed_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return computed_;
}

std::size_t VicinityCache::frozen_count() const {
  const Table* t = table_.load(std::memory_order_acquire);
  return t == nullptr ? 0 : t->slots();
}

}  // namespace disco
