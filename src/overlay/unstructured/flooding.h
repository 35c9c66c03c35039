// Gnutella-style flooding search.
//
// The baseline search mechanism of unstructured networks: the originator
// forwards the query to all neighbors, which forward to all their
// neighbors, up to a hop TTL.  Peers remember seen request ids and drop
// duplicates, but the duplicate *transmissions* still cross the wire and
// are counted -- this is exactly the `dup` factor of Eq. 6.
//
// FloodSearch is used (a) as the paper's "broadcast search" worst case and
// (b) as the guaranteed-coverage fallback behind random walks, preserving
// the paper's assumption that "the search algorithm in the unstructured
// network finds any key if it exists in the network".
//
// Hot path.  The walk fallback makes floods carry ~99% of the messages at
// the paper's operating point, and ~99% of a flood's copies go out after
// the hit, when the flood only spreads.  So the searcher counts its own
// copies and hands the network one Network::CountSends per search, routes
// the copies whose delivery does more than count through
// Network::DeliverEach in send order, and after the hit sweeps each
// neighbour list with no call in the loop.  Scratch (epoch-stamped seen
// marks and one flat BFS frontier) lives in the searcher across calls;
// the round engine gives each worker its own searcher.

#ifndef PDHT_OVERLAY_UNSTRUCTURED_FLOODING_H_
#define PDHT_OVERLAY_UNSTRUCTURED_FLOODING_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "net/network.h"
#include "overlay/unstructured/random_graph.h"

namespace pdht::overlay {

/// Content oracle: does `peer` currently hold `key`?
using ContentOracle = std::function<bool(net::PeerId, uint64_t)>;

struct FloodResult {
  bool found = false;
  net::PeerId found_at = net::kInvalidPeer;
  uint32_t peers_reached = 0;   ///< distinct peers that processed the query.
  uint64_t messages = 0;        ///< query transmissions (incl. duplicates).
  uint32_t hops_to_hit = 0;     ///< hop count of the first hit.
};

class FloodSearch {
 public:
  /// `graph`, `network` and `oracle` must outlive the searcher.
  FloodSearch(const RandomGraph* graph, net::Network* network,
              ContentOracle oracle);

  /// Floods from `origin` with the given hop TTL.  Offline peers neither
  /// process nor forward.  Every transmission is counted on the network as
  /// kFloodQuery (one CountSends per search); a hit additionally sends one
  /// kQueryResponse, right after the copy that reached the holder.
  FloodResult Search(net::PeerId origin, uint64_t key, uint32_t ttl_hops);

 private:
  const RandomGraph* graph_;
  net::Network* network_;
  ContentOracle oracle_;
  uint64_t next_request_id_ = 1;
  // seen_[p] == epoch_ <=> the current search reached p (after the hit
  // offline peers are marked too; their copies are lost either way).
  std::vector<uint32_t> seen_;
  uint32_t epoch_ = 0;
  // The reached peers in BFS order; one spare slot past num_nodes lets the
  // sweep store before it knows whether the peer is fresh.
  std::vector<net::PeerId> frontier_;
};

}  // namespace pdht::overlay

#endif  // PDHT_OVERLAY_UNSTRUCTURED_FLOODING_H_
