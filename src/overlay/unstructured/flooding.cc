#include "overlay/unstructured/flooding.h"

#include <algorithm>

namespace pdht::overlay {

FloodSearch::FloodSearch(const RandomGraph* graph, net::Network* network,
                         ContentOracle oracle)
    : graph_(graph), network_(network), oracle_(std::move(oracle)) {}

FloodResult FloodSearch::Search(net::PeerId origin, uint64_t key,
                                uint32_t ttl_hops) {
  FloodResult result;
  uint64_t request_id = next_request_id_++;
  if (!network_->IsOnline(origin)) return result;

  const uint32_t n = graph_->num_nodes();
  if (seen_.size() != n) {
    seen_.assign(n, 0);
    frontier_.resize(static_cast<size_t>(n) + 1);
    epoch_ = 0;
  }
  if (++epoch_ == 0) {  // wrapped: clear the stale marks
    std::fill(seen_.begin(), seen_.end(), 0);
    epoch_ = 1;
  }
  const uint32_t epoch = epoch_;
  uint32_t* seen = seen_.data();
  net::PeerId* frontier = frontier_.data();

  // BFS wavefront.  `seen` marks peers that already processed this request
  // id; transmissions to seen peers are still sent (and counted) but not
  // re-forwarded, reproducing Gnutella's duplicate overhead.
  seen[origin] = epoch;
  frontier[0] = origin;
  size_t tail = 1;
  result.peers_reached = 1;
  if (oracle_(origin, key)) {
    result.found = true;
    result.found_at = origin;
    result.hops_to_hit = 0;
    return result;  // local hit: no wire traffic at all.
  }

  net::Message m;
  m.type = net::MessageType::kFloodQuery;
  m.key = key;
  m.tag = request_id;
  uint64_t sent = 0;
  uint64_t lost = 0;
  size_t head = 0;
  size_t level_end = 1;  // frontier[head, level_end) sits at `depth`
  uint32_t depth = 0;
  while (head < tail) {
    if (head == level_end) {
      ++depth;
      level_end = tail;
    }
    if (depth >= ttl_hops) break;  // later peers are no shallower
    const net::PeerId u = frontier[head++];
    const std::span<const net::PeerId> nbrs = graph_->Neighbors(u);
    m.from = u;
    sent += nbrs.size();
    size_t i = 0;
    if (!result.found) {
      // Before the hit, each copy is delivered before the content test,
      // so deferred deliveries keep the order of one Send per copy.
      for (; i < nbrs.size() && !result.found; ++i) {
        const net::PeerId v = nbrs[i];
        if (!network_->IsOnline(v)) {
          ++lost;
          continue;
        }
        network_->DeliverEach(m, nbrs.subspan(i, 1));
        if (seen[v] == epoch) continue;
        seen[v] = epoch;
        frontier[tail++] = v;
        // Only the first hit is answered, so the content oracle is asked
        // only until then.
        if (oracle_(v, key)) {
          result.found = true;
          result.found_at = v;
          result.hops_to_hit = depth + 1;
          // Response travels back to the originator: one message in the
          // model (responses are routed on the reverse path but the paper
          // counts the query traffic; we count a single response msg).
          net::Message resp;
          resp.type = net::MessageType::kQueryResponse;
          resp.from = v;
          resp.to = origin;
          resp.key = key;
          resp.tag = request_id;
          network_->Send(resp);
        }
      }
      if (!result.found) continue;
    }
    // After the hit the flood only spreads -- Gnutella queries are not
    // cancelled mid-flight, so the remaining wavefront cost is genuine.
    // One delivery call for the rest of the list, then a call-free sweep:
    // an online, unseen peer joins the frontier.  Marking an offline peer
    // seen is harmless: its copies count as lost whatever its mark.
    const std::span<const net::PeerId> rest = nbrs.subspan(i);
    network_->DeliverEach(m, rest);
    for (const net::PeerId v : rest) {
      const uint32_t online = network_->IsOnline(v) ? 1 : 0;
      const uint32_t fresh = online & (seen[v] != epoch ? 1 : 0);
      seen[v] = epoch;
      frontier[tail] = v;
      tail += fresh;
      lost += 1 - online;
    }
  }
  network_->CountSends(net::MessageType::kFloodQuery, sent, lost);
  result.messages = sent;
  result.peers_reached = static_cast<uint32_t>(tail);
  return result;
}

}  // namespace pdht::overlay
