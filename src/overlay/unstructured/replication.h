// Random content replication.
//
// "we replicate keys with a certain factor at random peers" (Section 3.1).
// ReplicaPlacement assigns every key to `repl` distinct peers chosen
// uniformly at random, and answers the content-oracle question "does peer p
// hold key k?" that the unstructured search protocols need.  Placement is
// independent of the DHT key space (different hash family).

#ifndef PDHT_OVERLAY_UNSTRUCTURED_REPLICATION_H_
#define PDHT_OVERLAY_UNSTRUCTURED_REPLICATION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "net/message.h"
#include "util/rng.h"

namespace pdht::overlay {

class ReplicaPlacement {
 public:
  /// `num_peers` peers available for placement; each key gets min(repl,
  /// num_peers) distinct replicas.
  ReplicaPlacement(uint32_t num_peers, uint32_t repl, Rng rng);

  /// Places keys 0..n-1, each on fresh random replicas; call once.  Key
  /// by key, a peer is drawn uniformly and redrawn while the key already
  /// has it.
  void PlaceKeys(uint64_t n);

  /// The content oracle of the walk and flood searches.
  bool PeerHoldsKey(net::PeerId peer, uint64_t key) const {
    // No early exit: the scan stays branch-free and vectorizes.
    bool held = false;
    for (net::PeerId h : HoldersOf(key)) held |= h == peer;
    return held;
  }

  /// The peers holding `key` (empty for an unplaced key), in draw order.
  std::span<const net::PeerId> HoldersOf(uint64_t key) const {
    if (key >= num_keys_) return {};
    return {holders_.data() + key * want_, want_};
  }

  uint32_t repl() const { return repl_; }
  uint32_t num_peers() const { return num_peers_; }

 private:
  uint32_t num_peers_;
  uint32_t repl_;
  uint32_t want_;  ///< replicas per key: min(repl, num_peers)
  Rng rng_;
  uint64_t num_keys_ = 0;
  // Key-major: key k's holders sit at [k * want_, (k + 1) * want_), 4 bytes
  // each.  A search asks about one key at many peers, so the oracle scans
  // the same few cache lines for the whole search.
  std::vector<net::PeerId> holders_;
};

}  // namespace pdht::overlay

#endif  // PDHT_OVERLAY_UNSTRUCTURED_REPLICATION_H_
