#include "overlay/unstructured/replication.h"

#include <algorithm>
#include <cassert>

namespace pdht::overlay {

ReplicaPlacement::ReplicaPlacement(uint32_t num_peers, uint32_t repl, Rng rng)
    : num_peers_(num_peers),
      repl_(repl),
      want_(std::min(repl, num_peers)),
      rng_(rng) {
  assert(num_peers >= 1);
  assert(repl >= 1);
}

void ReplicaPlacement::PlaceKeys(uint64_t n) {
  assert(num_keys_ == 0);
  holders_.resize(n * want_);
  for (uint64_t k = 0; k < n; ++k) {
    net::PeerId* held = holders_.data() + k * want_;
    // Draw until `want_` distinct peers hold the key; a peer drawn twice
    // already holds it and is redrawn.
    for (uint32_t placed = 0; placed < want_;) {
      net::PeerId p = static_cast<net::PeerId>(rng_.UniformU64(num_peers_));
      if (std::find(held, held + placed, p) != held + placed) continue;
      held[placed++] = p;
    }
  }
  num_keys_ = n;
}

}  // namespace pdht::overlay
