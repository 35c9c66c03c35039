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
#include <vector>

#include "net/message.h"
#include "util/rng.h"

namespace pdht::overlay {

class ReplicaPlacement {
 public:
  /// `num_peers` peers available for placement; each key gets min(repl,
  /// num_peers) distinct replicas.
  ReplicaPlacement(uint32_t num_peers, uint32_t repl, Rng rng);

  /// Places `key` on fresh random replicas; place each key once.
  void PlaceKey(uint64_t key);

  /// Places keys 0..n-1 densely (the common bulk setup).
  void PlaceKeys(uint64_t n);

  bool PeerHoldsKey(net::PeerId peer, uint64_t key) const;

  uint32_t repl() const { return repl_; }
  uint32_t num_peers() const { return num_peers_; }

 private:
  uint32_t num_peers_;
  uint32_t repl_;
  Rng rng_;
  // peer -> sorted keys.  PeerHoldsKey is the walk search's content
  // oracle, probed once per walker step, and a binary search over the
  // ~keys*repl/numPeers contiguous keys a peer holds beats a hash-set
  // probe there.
  std::vector<std::vector<uint64_t>> held_;
};

}  // namespace pdht::overlay

#endif  // PDHT_OVERLAY_UNSTRUCTURED_REPLICATION_H_
