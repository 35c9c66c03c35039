// Slab arena for per-node index storage.
//
// At the 100k-1M peer scale a simulation carries one TtlIndex per DHT
// member; backing each with node-based containers means millions of tiny
// allocations, pointer-chasing on every lookup, and ~100 bytes of
// allocator overhead per entry.  SlabArena instead hands out power-of-two
// blocks carved from large chunks: allocation is a free-list pop or a
// bump-pointer advance, freed blocks are recycled by size class, and all
// storage is released in one sweep when the arena (i.e. the owning
// system) dies.
//
// Single-threaded by design: the round engine only mutates index
// storage in serial phases (publish/merge), so the arena needs no locks.

#ifndef PDHT_CORE_SLAB_ARENA_H_
#define PDHT_CORE_SLAB_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pdht::core {

class SlabArena {
 public:
  /// `chunk_bytes` is the granularity of the arena's own allocations;
  /// requests larger than a chunk get a dedicated chunk.
  explicit SlabArena(size_t chunk_bytes = 1 << 20);
  ~SlabArena();

  SlabArena(const SlabArena&) = delete;
  SlabArena& operator=(const SlabArena&) = delete;

  /// Returns a 16-byte-aligned block of at least `bytes` (rounded up to a
  /// power-of-two size class, minimum 64).  Never null for bytes > 0.
  void* Allocate(size_t bytes);

  /// Recycles a block previously returned by Allocate with the same
  /// `bytes` request; it becomes available to later Allocate calls of the
  /// same size class.  No storage is returned to the OS until the arena
  /// is destroyed.
  void Free(void* p, size_t bytes);

  /// Total bytes obtained from the OS so far.
  size_t bytes_reserved() const { return bytes_reserved_; }

 private:
  static constexpr size_t kMinBlock = 64;
  static constexpr size_t kNumClasses = 48;  // 64 << 47 covers any size_t

  static size_t ClassOf(size_t bytes);

  size_t chunk_bytes_;
  size_t bytes_reserved_ = 0;
  std::vector<void*> chunks_;
  // Intrusive free lists: a freed block's first word points to the next
  // free block of the same class.
  void* free_lists_[kNumClasses] = {};
  char* bump_ = nullptr;  ///< next free byte in the current chunk
  size_t bump_left_ = 0;  ///< bytes remaining in the current chunk
};

}  // namespace pdht::core

#endif  // PDHT_CORE_SLAB_ARENA_H_
