#include "overlay/dht/maintenance.h"

namespace pdht::overlay {

ChordMaintenance::ChordMaintenance(ChordOverlay* overlay,
                                   net::Network* network, double env)
    : overlay_(overlay), network_(network), env_(env) {}

uint32_t ChordMaintenance::PlanRound() {
  tasks_.clear();
  for (net::PeerId peer : overlay_->members()) {
    if (!network_->IsOnline(peer)) continue;
    FingerTable* table = overlay_->TableOf(peer);
    if (table == nullptr || table->size() == 0) continue;
    double& budget = budget_[peer];
    budget += env_ * static_cast<double>(table->size());
    // The whole-probe count is frozen here, at the round-start table
    // size (repairs that shrink a successor list mid-round don't shift
    // this round's budget).
    const uint32_t probes = static_cast<uint32_t>(budget);
    budget -= static_cast<double>(probes);
    if (probes > 0) tasks_.push_back(MaintTask{peer, table, probes});
  }
  task_stats_.assign(tasks_.size(), TaskStats{});
  return static_cast<uint32_t>(tasks_.size());
}

void ChordMaintenance::ExecuteTask(uint32_t task, Rng& rng) {
  const MaintTask& t = tasks_[task];
  FingerTable* table = t.table;
  TaskStats& ts = task_stats_[task];
  for (uint32_t i = 0; i < t.probes; ++i) {
    // Per-probe size sampling stays inside the owning task: successor
    // repair can shrink this member's own list mid-task, and only this
    // task mutates it.
    const size_t total = table->size();
    if (total == 0) break;
    const size_t idx = static_cast<size_t>(rng.UniformU64(total));
    const FingerEntry& entry =
        idx < table->fingers().size()
            ? table->fingers()[idx]
            : table->successors()[idx - table->fingers().size()];
    if (entry.peer == net::kInvalidPeer) continue;
    net::Message probe;
    probe.type = net::MessageType::kRoutingProbe;
    probe.from = t.peer;
    probe.to = entry.peer;
    network_->Send(probe);
    ++ts.probes;
    if (!network_->IsOnline(entry.peer)) {
      ++ts.stale;
      overlay_->RepairFinger(t.peer, idx);
      ++ts.repairs;
    }
  }
}

uint64_t ChordMaintenance::FinishRound() {
  uint64_t probes = 0;
  for (const TaskStats& ts : task_stats_) {
    stats_.probes_sent += ts.probes;
    stats_.stale_detected += ts.stale;
    stats_.repairs += ts.repairs;
    probes += ts.probes;
  }
  tasks_.clear();
  task_stats_.clear();
  return probes;
}

}  // namespace pdht::overlay
