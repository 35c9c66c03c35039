#include "overlay/unstructured/random_graph.h"

#include <algorithm>
#include <cassert>
#include <deque>

namespace pdht::overlay {

namespace {

/// True if `a` and `b` are adjacent, scanning the shorter list.
bool Adjacent(const std::vector<std::vector<net::PeerId>>& adj,
              net::PeerId a, net::PeerId b) {
  if (adj[a].size() > adj[b].size()) std::swap(a, b);
  return std::find(adj[a].begin(), adj[a].end(), b) != adj[a].end();
}

}  // namespace

RandomGraph::RandomGraph(uint32_t n, double avg_degree, Rng* rng)
    : offsets_(static_cast<size_t>(n) + 1, 0) {
  assert(n >= 1);
  assert(avg_degree >= 2.0 || n == 1);
  if (n == 1) return;
  // The draws fill growable lists; CSR is built from them at the end.
  std::vector<std::vector<net::PeerId>> adj(n);
  uint64_t num_edges = 0;
  auto add_edge = [&adj, &num_edges](net::PeerId a, net::PeerId b) {
    adj[a].push_back(b);
    adj[b].push_back(a);
    ++num_edges;
  };
  // Random spanning tree: attach each node i >= 1 to a uniformly random
  // predecessor.  This both guarantees connectivity and yields the skewed
  // degree distribution typical of unstructured overlays.
  for (uint32_t i = 1; i < n; ++i) {
    uint32_t j = static_cast<uint32_t>(rng->UniformU64(i));
    add_edge(i, j);
  }
  // Extra random edges up to the target edge count m = n*avg_degree/2.
  uint64_t target_edges =
      static_cast<uint64_t>(static_cast<double>(n) * avg_degree / 2.0);
  uint64_t attempts = 0;
  const uint64_t max_attempts = target_edges * 20 + 100;
  while (num_edges < target_edges && attempts < max_attempts) {
    ++attempts;
    uint32_t a = static_cast<uint32_t>(rng->UniformU64(n));
    uint32_t b = static_cast<uint32_t>(rng->UniformU64(n));
    if (a == b || Adjacent(adj, a, b)) continue;
    add_edge(a, b);
  }
  nbrs_.reserve(2 * num_edges);
  for (uint32_t u = 0; u < n; ++u) {
    nbrs_.insert(nbrs_.end(), adj[u].begin(), adj[u].end());
    offsets_[u + 1] = nbrs_.size();
    std::vector<net::PeerId>().swap(adj[u]);
  }
}

double RandomGraph::AverageDegree() const {
  return static_cast<double>(nbrs_.size()) /
         static_cast<double>(num_nodes());
}

bool RandomGraph::HasEdge(net::PeerId a, net::PeerId b) const {
  if (Neighbors(a).size() > Neighbors(b).size()) std::swap(a, b);
  return std::ranges::find(Neighbors(a), b) != Neighbors(a).end();
}

bool RandomGraph::IsConnected() const {
  std::vector<bool> alive(num_nodes(), true);
  return IsConnectedAmong(alive);
}

bool RandomGraph::IsConnectedAmong(const std::vector<bool>& alive) const {
  uint32_t n = num_nodes();
  assert(alive.size() == n);
  uint32_t start = n;
  uint32_t alive_count = 0;
  for (uint32_t i = 0; i < n; ++i) {
    if (alive[i]) {
      ++alive_count;
      if (start == n) start = i;
    }
  }
  if (alive_count == 0) return true;
  std::vector<bool> seen(n, false);
  std::deque<uint32_t> frontier{start};
  seen[start] = true;
  uint32_t visited = 1;
  while (!frontier.empty()) {
    uint32_t u = frontier.front();
    frontier.pop_front();
    for (net::PeerId v : Neighbors(u)) {
      if (!alive[v] || seen[v]) continue;
      seen[v] = true;
      ++visited;
      frontier.push_back(v);
    }
  }
  return visited == alive_count;
}

uint32_t RandomGraph::Distance(net::PeerId a, net::PeerId b) const {
  if (a == b) return 0;
  std::vector<uint32_t> dist(num_nodes(), UINT32_MAX);
  std::deque<uint32_t> frontier{a};
  dist[a] = 0;
  while (!frontier.empty()) {
    uint32_t u = frontier.front();
    frontier.pop_front();
    for (net::PeerId v : Neighbors(u)) {
      if (dist[v] != UINT32_MAX) continue;
      dist[v] = dist[u] + 1;
      if (v == b) return dist[v];
      frontier.push_back(v);
    }
  }
  return UINT32_MAX;
}

}  // namespace pdht::overlay
