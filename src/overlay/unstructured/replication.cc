#include "overlay/unstructured/replication.h"

#include <algorithm>
#include <cassert>

namespace pdht::overlay {

ReplicaPlacement::ReplicaPlacement(uint32_t num_peers, uint32_t repl, Rng rng)
    : num_peers_(num_peers), repl_(repl), rng_(rng), held_(num_peers) {
  assert(num_peers >= 1);
  assert(repl >= 1);
}

void ReplicaPlacement::PlaceKey(uint64_t key) {
  const uint32_t want = std::min(repl_, num_peers_);
  // Draw until `want` distinct peers hold the key; a peer drawn twice
  // already holds it and is skipped.
  for (uint32_t placed = 0; placed < want;) {
    net::PeerId p = static_cast<net::PeerId>(rng_.UniformU64(num_peers_));
    std::vector<uint64_t>& held = held_[p];
    auto it = std::lower_bound(held.begin(), held.end(), key);
    if (it != held.end() && *it == key) continue;
    held.insert(it, key);
    ++placed;
  }
}

void ReplicaPlacement::PlaceKeys(uint64_t n) {
  for (uint64_t k = 0; k < n; ++k) PlaceKey(k);
}

bool ReplicaPlacement::PeerHoldsKey(net::PeerId peer, uint64_t key) const {
  if (peer >= held_.size()) return false;
  const std::vector<uint64_t>& held = held_[peer];
  return std::binary_search(held.begin(), held.end(), key);
}

}  // namespace pdht::overlay
