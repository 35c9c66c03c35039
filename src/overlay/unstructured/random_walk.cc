#include "overlay/unstructured/random_walk.h"

#include <vector>

namespace pdht::overlay {

RandomWalkSearch::RandomWalkSearch(const RandomGraph* graph,
                                   net::Network* network,
                                   ContentOracle oracle,
                                   RandomWalkConfig config, Rng rng)
    : graph_(graph),
      network_(network),
      oracle_(std::move(oracle)),
      config_(config),
      rng_(rng),
      flood_(graph, network, oracle_) {}

WalkResult RandomWalkSearch::Search(net::PeerId origin, uint64_t key,
                                    Rng& rng) {
  WalkResult result;
  uint64_t request_id = next_request_id_++;
  if (!network_->IsOnline(origin)) return result;

  if (oracle_(origin, key)) {
    result.found = true;
    result.found_at = origin;
    result.distinct_peers = 1;
    return result;
  }

  // Walkers advance in lockstep (step-synchronous), which lets a success be
  // noticed by the others at their next originator check, as in [LvCa02].
  walkers_.assign(config_.num_walkers, {origin, true});
  std::vector<Walker>& walkers = walkers_;
  if (visit_mark_.size() < graph_->num_nodes()) {
    visit_mark_.resize(graph_->num_nodes(), 0);
  }
  ++visit_epoch_;
  uint32_t distinct = 0;
  auto mark_visited = [this, &distinct](net::PeerId p) {
    if (p < visit_mark_.size() && visit_mark_[p] != visit_epoch_) {
      visit_mark_[p] = visit_epoch_;
      ++distinct;
    }
  };
  mark_visited(origin);
  bool success = false;

  for (uint32_t step = 0; step < config_.max_steps_per_walker && !success;
       ++step) {
    bool any_active = false;
    for (auto& w : walkers) {
      if (!w.active) continue;
      const std::span<const net::PeerId> nbrs = graph_->Neighbors(w.at);
      if (nbrs.empty()) {
        w.active = false;
        continue;
      }
      net::PeerId next = nbrs[rng.UniformU64(nbrs.size())];
      net::Message m;
      m.type = net::MessageType::kWalkQuery;
      m.from = w.at;
      m.to = next;
      m.key = key;
      m.tag = request_id;
      bool delivered = network_->Send(m);
      ++result.messages;
      ++result.walk_steps;
      if (!delivered) {
        // Walker hit an offline neighbor; the message is lost and the
        // walker dies (the originator restarts walkers via checks in a
        // real deployment; our budgeted walkers + fallback bound the cost).
        w.active = false;
        continue;
      }
      w.at = next;
      mark_visited(next);
      if (oracle_(next, key)) {
        success = true;
        result.found = true;
        result.found_at = next;
        net::Message resp;
        resp.type = net::MessageType::kQueryResponse;
        resp.from = next;
        resp.to = origin;
        resp.key = key;
        resp.tag = request_id;
        network_->Send(resp);
        ++result.messages;
        break;
      }
      any_active = true;
      // Periodic check with the originator ("checking" in [LvCa02]).
      if (config_.check_interval > 0 &&
          (step + 1) % config_.check_interval == 0) {
        net::Message chk;
        chk.type = net::MessageType::kWalkCheck;
        chk.from = w.at;
        chk.to = origin;
        chk.key = key;
        chk.tag = request_id;
        network_->Send(chk);
        ++result.messages;
      }
    }
    if (!any_active) break;
  }

  result.distinct_peers = distinct;
  if (!result.found && config_.flood_fallback) {
    result.used_flood_fallback = true;
    FloodResult fr = flood_.Search(origin, key,
                                   /*ttl_hops=*/graph_->num_nodes());
    result.messages += fr.messages;
    result.found = fr.found;
    result.found_at = fr.found_at;
  }
  return result;
}

}  // namespace pdht::overlay
