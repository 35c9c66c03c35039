// Gnutella-like random overlay topology.
//
// "We assume that the unstructured network has a Gnutella-like topology,
// where each peer has a few open connections to other peers" (Section 3.1).
// The graph is built as a random spanning tree (guaranteeing connectivity)
// plus uniformly random extra edges until the target average degree is
// reached -- the standard construction for Gnutella-style overlays in
// simulation studies [LvCa02].
//
// Storage is CSR: one offsets array and one neighbour array, so a peer's
// list is a contiguous span.  Each list keeps the order its edges were
// drawn in; the walk picks nbrs[rng % size] and the flood sends in list
// order, so that order is part of every seeded result.

#ifndef PDHT_OVERLAY_UNSTRUCTURED_RANDOM_GRAPH_H_
#define PDHT_OVERLAY_UNSTRUCTURED_RANDOM_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "net/message.h"
#include "util/rng.h"

namespace pdht::overlay {

class RandomGraph {
 public:
  /// Builds a connected graph over `n` nodes with average degree close to
  /// `avg_degree` (>= 2).  Deterministic given `rng`'s state.
  RandomGraph(uint32_t n, double avg_degree, Rng* rng);

  uint32_t num_nodes() const {
    return static_cast<uint32_t>(offsets_.size() - 1);
  }
  uint64_t num_edges() const { return nbrs_.size() / 2; }
  double AverageDegree() const;

  std::span<const net::PeerId> Neighbors(net::PeerId node) const {
    return {nbrs_.data() + offsets_[node],
            nbrs_.data() + offsets_[node + 1]};
  }

  bool HasEdge(net::PeerId a, net::PeerId b) const;

  /// True if the graph restricted to `alive` nodes is connected (BFS from
  /// the first alive node).  With no filter, checks the whole graph.
  bool IsConnected() const;
  bool IsConnectedAmong(const std::vector<bool>& alive) const;

  /// BFS hop distance between two nodes, or UINT32_MAX if unreachable.
  uint32_t Distance(net::PeerId a, net::PeerId b) const;

 private:
  std::vector<uint64_t> offsets_;    ///< node -> start in nbrs_; n + 1
  std::vector<net::PeerId> nbrs_;    ///< every list, node by node
};

}  // namespace pdht::overlay

#endif  // PDHT_OVERLAY_UNSTRUCTURED_RANDOM_GRAPH_H_
