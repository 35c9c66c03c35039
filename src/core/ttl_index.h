// Per-peer TTL-evicting index store (the heart of the selection algorithm,
// paper Section 5.1).
//
// "Each key has an expiration time keyTtl, which determines how long the
// key stays in the index.  The expiration time of a key is reset to a
// predefined value whenever the peer that stores the key receives a query
// for it.  Therefore, peers evict those keys from their local storage that
// have not been queried for keyTtl rounds."
//
// The store also enforces the scenario's per-peer capacity (stor = 100
// key-value pairs): when full, the entry closest to expiry is displaced
// (it is the one the TTL policy would give up on first).
//
// Memory layout: open-addressing hash table (linear probing, backward-
// shift deletion) plus a binary min-heap over expiry times, both stored
// in flat power-of-two blocks drawn from a SlabArena shared across the
// owning system's nodes (heap-allocated when standalone).  An empty index
// owns no storage at all -- at 1M peers only DHT members ever allocate --
// and a populated one is two contiguous slabs with zero per-entry
// allocator overhead, unlike the former unordered_map/priority_queue
// storage.  Lookups (Contains) are const and touch only the table, so
// concurrent readers are safe while no writer runs -- which is exactly
// the round engine's phase discipline.
//
// Complexity: Put/Touch/Contains expected O(1) table work plus O(log n)
// heap maintenance; EvictExpired amortized O(k log n) for k evictions via
// the lazy min-heap (entries superseded by Touch/Put are skipped on pop;
// the heap is rebuilt from the table when stale entries dominate).
//
// EvictExpired and ForEachKey take their callbacks as template parameters
// (not std::function): the eviction actor runs them for every DHT member
// every round, and a std::function would be re-constructed -- potentially
// heap-allocating -- per call on that hot path.

#ifndef PDHT_CORE_TTL_INDEX_H_
#define PDHT_CORE_TTL_INDEX_H_

#include <cstdint>
#include <vector>

#include "core/slab_arena.h"

namespace pdht::core {

class TtlIndex {
 public:
  /// `capacity` = 0 means unbounded (used by the indexAll strategy whose
  /// sizing guarantees fit by construction).  `arena`, when given, backs
  /// the index's storage and must outlive it.
  explicit TtlIndex(uint64_t capacity = 0, SlabArena* arena = nullptr);
  ~TtlIndex();

  TtlIndex(const TtlIndex&) = delete;
  TtlIndex& operator=(const TtlIndex&) = delete;
  TtlIndex(TtlIndex&& o) noexcept;
  TtlIndex& operator=(TtlIndex&& o) noexcept;

  /// Inserts or refreshes `key` with expiry `now + ttl`.  Returns the key
  /// displaced by the capacity bound, or kNoKey.  kNoKey itself is not a
  /// valid key (it is the table's empty-slot sentinel).
  static constexpr uint64_t kNoKey = UINT64_MAX;
  uint64_t Put(uint64_t key, double now, double ttl);

  /// True iff `key` is resident and unexpired at `now`.
  bool Contains(uint64_t key, double now) const;

  /// Resets `key`'s expiry to now + ttl if resident; returns whether it
  /// was.  This is the query-driven TTL refresh.
  bool Touch(uint64_t key, double now, double ttl);

  /// Removes `key` immediately; returns whether it was resident.
  bool Erase(uint64_t key);

  /// Evicts everything expired at `now`; calls `on_evict(key)` per
  /// eviction.  `on_evict` is any callable taking uint64_t.  Eviction
  /// order is (expiry, key)-sorted, so it is deterministic.  Never
  /// allocates, so shard-parallel eviction over disjoint indexes is safe.
  template <typename OnEvict>
  uint64_t EvictExpired(double now, OnEvict&& on_evict) {
    uint64_t evicted = 0;
    uint64_t key;
    while (PopExpiredOne(now, &key)) {
      ++evicted;
      on_evict(key);
    }
    return evicted;
  }

  uint64_t EvictExpired(double now) {
    return EvictExpired(now, [](uint64_t) {});
  }

  /// Visits every resident key (possibly including expired-but-not-yet-
  /// collected ones), in unspecified order.
  template <typename Visitor>
  void ForEachKey(Visitor&& visit) const {
    for (size_t i = 0; i < slot_cap_; ++i) {
      if (slots_[i].key != kNoKey) visit(slots_[i].key);
    }
  }

  /// Currently resident (possibly including expired-but-not-yet-collected)
  /// key count; call EvictExpired first for an exact live count.
  uint64_t size() const { return live_; }
  uint64_t capacity() const { return capacity_; }
  bool empty() const { return live_ == 0; }

  /// Expiry time of `key` (kNever if absent).
  static constexpr double kNever = -1.0;
  double ExpiryOf(uint64_t key) const;

  /// All resident keys (test support; O(n)).
  std::vector<uint64_t> Keys() const;

 private:
  struct Slot {
    uint64_t key;  ///< kNoKey = empty
    double expires;
    uint64_t generation;
  };
  struct HeapEntry {
    double expires;
    uint64_t key;
    uint64_t generation;
  };

  size_t ProbeStart(uint64_t key) const;
  /// Index of `key`'s slot, or slot_cap_ when absent.
  size_t FindSlot(uint64_t key) const;
  void InsertSlot(uint64_t key, double expires, uint64_t generation);
  void EraseSlotAt(size_t i);  // backward-shift deletion
  void GrowTable();
  void HeapPush(double expires, uint64_t key, uint64_t generation);
  void HeapRebuild();  ///< drop stale entries by rebuilding from the table
  /// Pops the next live expired entry and erases it from the table;
  /// false when nothing (left) is expired at `now`.
  bool PopExpiredOne(double now, uint64_t* key);

  void* AllocBlock(size_t bytes);
  void FreeBlock(void* p, size_t bytes);
  void ReleaseStorage();

  SlabArena* arena_;  ///< not owned; null = standalone malloc storage
  uint64_t capacity_;
  uint64_t next_generation_ = 1;

  Slot* slots_ = nullptr;  ///< power-of-two open-addressing table
  size_t slot_cap_ = 0;
  size_t live_ = 0;

  HeapEntry* heap_ = nullptr;  ///< min-heap by (expires, key)
  size_t heap_size_ = 0;
  size_t heap_cap_ = 0;
};

}  // namespace pdht::core

#endif  // PDHT_CORE_TTL_INDEX_H_
