// Multiple-random-walk search [LvCa02].
//
// "the Gnutella flooding-based query algorithm is not optimal even for
// unstructured networks.  We therefore assume that a search algorithm is
// used that consumes less network traffic, such as multiple random walks"
// (Section 3.1).  The originator launches `num_walkers` walkers; each
// walker forwards the query to one random neighbor per step and "checks"
// back with the originator every `check_interval` steps, terminating when
// another walker already succeeded.  With random replication at factor
// repl, the expected number of walker steps to a hit is ~ numPeers/repl,
// and revisits/cross-walker overlap contribute the duplication factor dup
// of Eq. 6.
//
// To preserve the paper's assumption that an existing key is always found,
// a search whose walkers all expire falls back to flooding (counted).  The
// fallback is not rare under churn: a walker that steps to an offline
// neighbour dies, so at the paper's 67% availability nearly every walk
// search ends in a flood, and on the Table 1 benchmark workload the
// fallback carries ~99% of all messages.  ROADMAP.md item 2 ("Walkers
// step over live links") tracks that.

#ifndef PDHT_OVERLAY_UNSTRUCTURED_RANDOM_WALK_H_
#define PDHT_OVERLAY_UNSTRUCTURED_RANDOM_WALK_H_

#include <cstdint>

#include "overlay/unstructured/flooding.h"
#include "overlay/unstructured/random_graph.h"
#include "util/rng.h"

namespace pdht::overlay {

struct RandomWalkConfig {
  uint32_t num_walkers = 16;       ///< [LvCa02] recommends 16-64 walkers.
  uint32_t max_steps_per_walker = 4096;  ///< per-walker step budget.
  uint32_t check_interval = 4;     ///< steps between originator checks.
  bool flood_fallback = true;      ///< guarantee success for existing keys.
};

struct WalkResult {
  bool found = false;
  net::PeerId found_at = net::kInvalidPeer;
  uint64_t messages = 0;       ///< walk + check + response + fallback msgs.
  uint64_t walk_steps = 0;     ///< pure walker forwards.
  uint32_t distinct_peers = 0; ///< distinct peers visited by any walker.
  bool used_flood_fallback = false;
};

class RandomWalkSearch {
 public:
  RandomWalkSearch(const RandomGraph* graph, net::Network* network,
                   ContentOracle oracle, RandomWalkConfig config, Rng rng);

  WalkResult Search(net::PeerId origin, uint64_t key) {
    return Search(origin, key, rng_);
  }

  /// Same walk, but drawing every random step from the caller's `rng`
  /// instead of the searcher's own stream.  The round engine runs
  /// one searcher per worker slot and hands each query task its own
  /// derived Rng, so search outcomes depend only on the task -- not on
  /// which worker ran it.
  WalkResult Search(net::PeerId origin, uint64_t key, Rng& rng);

  const RandomWalkConfig& config() const { return config_; }

 private:
  struct Walker {
    net::PeerId at;
    bool active;
  };

  const RandomGraph* graph_;
  net::Network* network_;
  ContentOracle oracle_;
  RandomWalkConfig config_;
  Rng rng_;
  FloodSearch flood_;
  uint64_t next_request_id_ = 1;
  // Search scratch state, reused so the per-query hot path does not
  // allocate: walker slots plus an epoch-stamped visited mark per peer
  // (visit_mark_[p] == visit_epoch_ <=> p visited by the current search),
  // replacing a per-call unordered_set.
  std::vector<Walker> walkers_;
  std::vector<uint64_t> visit_mark_;
  uint64_t visit_epoch_ = 0;
};

}  // namespace pdht::overlay

#endif  // PDHT_OVERLAY_UNSTRUCTURED_RANDOM_WALK_H_
