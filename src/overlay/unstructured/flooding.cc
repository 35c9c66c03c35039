#include "overlay/unstructured/flooding.h"

#include <deque>

namespace pdht::overlay {

FloodSearch::FloodSearch(const RandomGraph* graph, net::Network* network,
                         ContentOracle oracle)
    : graph_(graph), network_(network), oracle_(std::move(oracle)) {}

FloodResult FloodSearch::Search(net::PeerId origin, uint64_t key,
                                uint32_t ttl_hops) {
  FloodResult result;
  uint64_t request_id = next_request_id_++;
  if (!network_->IsOnline(origin)) return result;

  // BFS wavefront.  `seen` marks peers that already processed this request
  // id; transmissions to seen peers are still sent (and counted) but not
  // re-forwarded, reproducing Gnutella's duplicate overhead.
  std::vector<bool> seen(graph_->num_nodes(), false);
  struct Hop {
    net::PeerId peer;
    uint32_t depth;
  };
  std::deque<Hop> frontier;
  seen[origin] = true;
  result.peers_reached = 1;
  if (oracle_(origin, key)) {
    result.found = true;
    result.found_at = origin;
    result.hops_to_hit = 0;
    return result;  // local hit: no wire traffic at all.
  }
  frontier.push_back({origin, 0});

  while (!frontier.empty()) {
    Hop h = frontier.front();
    frontier.pop_front();
    if (h.depth >= ttl_hops) continue;
    for (net::PeerId nbr : graph_->Neighbors(h.peer)) {
      net::Message m;
      m.type = net::MessageType::kFloodQuery;
      m.from = h.peer;
      m.to = nbr;
      m.key = key;
      m.tag = request_id;
      bool delivered = network_->Send(m);
      ++result.messages;
      if (!delivered || seen[nbr]) continue;
      seen[nbr] = true;
      ++result.peers_reached;
      // Only the first hit is answered, so the content oracle is asked
      // only until then.
      if (!result.found && oracle_(nbr, key)) {
        result.found = true;
        result.found_at = nbr;
        result.hops_to_hit = h.depth + 1;
        // Response travels back to the originator: one message in the
        // model (responses are routed on the reverse path but the paper
        // counts the query traffic; we count a single response msg).
        net::Message resp;
        resp.type = net::MessageType::kQueryResponse;
        resp.from = nbr;
        resp.to = origin;
        resp.key = key;
        resp.tag = request_id;
        network_->Send(resp);
      }
      // Keep flooding: Gnutella queries are not cancelled mid-flight;
      // the remaining wavefront cost is genuine.
      frontier.push_back({nbr, h.depth + 1});
    }
  }
  return result;
}

}  // namespace pdht::overlay
