#include "net/network.h"

#include <gtest/gtest.h>

#include <vector>

#include "net/delivery_model.h"
#include "sim/event_queue.h"

namespace pdht::net {
namespace {

class RecordingHandler : public MessageHandler {
 public:
  void HandleMessage(const Message& msg) override {
    received.push_back(msg);
  }
  std::vector<Message> received;
};

TEST(MessageTypeTest, NamesAreStableAndCategorized) {
  EXPECT_STREQ(MessageTypeName(MessageType::kFloodQuery),
               "msg.unstructured.flood");
  EXPECT_STREQ(MessageTypeName(MessageType::kDhtLookup), "msg.dht.lookup");
  EXPECT_STREQ(MessageTypeName(MessageType::kRoutingProbe),
               "msg.maint.probe");
  EXPECT_STREQ(MessageTypeName(MessageType::kReplicaPush),
               "msg.replica.push");
}

TEST(MessageTypeTest, AllTypesHaveMsgPrefix) {
  for (int t = 0; t < static_cast<int>(MessageType::kCount); ++t) {
    std::string name = MessageTypeName(static_cast<MessageType>(t));
    EXPECT_EQ(name.rfind("msg.", 0), 0u) << name;
  }
}

TEST(NetworkTest, SendCountsAndDelivers) {
  CounterRegistry counters;
  Network net(&counters);
  RecordingHandler h;
  net.Register(1, &h);
  Message m;
  m.type = MessageType::kDhtLookup;
  m.from = 0;
  m.to = 1;
  m.key = 42;
  EXPECT_TRUE(net.Send(m));
  ASSERT_EQ(h.received.size(), 1u);
  EXPECT_EQ(h.received[0].key, 42u);
  EXPECT_EQ(counters.Value("msg.dht.lookup"), 1u);
  EXPECT_EQ(counters.Value("msg.total"), 1u);
}

TEST(NetworkTest, SendToOfflinePeerCountsButFails) {
  CounterRegistry counters;
  Network net(&counters);
  RecordingHandler h;
  net.Register(1, &h);
  net.SetOnline(1, false);
  Message m;
  m.to = 1;
  EXPECT_FALSE(net.Send(m));
  EXPECT_TRUE(h.received.empty());
  // The transmission still hit the wire.
  EXPECT_EQ(counters.Value("msg.total"), 1u);
}

TEST(NetworkTest, SendToUnregisteredPeerCountsButFails) {
  CounterRegistry counters;
  Network net(&counters);
  Message m;
  m.to = 99;
  EXPECT_FALSE(net.Send(m));
  EXPECT_EQ(counters.Value("msg.total"), 1u);
}

TEST(NetworkTest, OnlineStateDefaultsTrueForRegistered) {
  CounterRegistry counters;
  Network net(&counters);
  RecordingHandler h;
  net.Register(5, &h);
  EXPECT_TRUE(net.IsOnline(5));
  EXPECT_FALSE(net.IsOnline(6));  // never seen
}

TEST(NetworkTest, SetOnlineToggles) {
  CounterRegistry counters;
  Network net(&counters);
  net.SetOnline(3, true);
  EXPECT_TRUE(net.IsOnline(3));
  net.SetOnline(3, false);
  EXPECT_FALSE(net.IsOnline(3));
  net.SetOnline(3, true);
  EXPECT_TRUE(net.IsOnline(3));
}

TEST(NetworkTest, CountOnlyAddsWithoutDelivery) {
  CounterRegistry counters;
  Network net(&counters);
  RecordingHandler h;
  net.Register(0, &h);
  net.CountOnly(MessageType::kReplicaFlood, 90);
  EXPECT_TRUE(h.received.empty());
  EXPECT_EQ(counters.Value("msg.replica.flood"), 90u);
  EXPECT_EQ(net.TotalMessages(), 90u);
}

TEST(NetworkTest, MessagesOfTypeQueriesCounter) {
  CounterRegistry counters;
  Network net(&counters);
  net.CountOnly(MessageType::kWalkQuery, 3);
  net.CountOnly(MessageType::kDhtLookup, 2);
  EXPECT_EQ(net.MessagesOfType(MessageType::kWalkQuery), 3u);
  EXPECT_EQ(net.MessagesOfType(MessageType::kDhtLookup), 2u);
  EXPECT_EQ(net.TotalMessages(), 5u);
}

TEST(NetworkTest, RegisterReplacesHandler) {
  CounterRegistry counters;
  Network net(&counters);
  RecordingHandler h1;
  RecordingHandler h2;
  net.Register(0, &h1);
  net.Register(0, &h2);
  Message m;
  m.to = 0;
  net.Send(m);
  EXPECT_TRUE(h1.received.empty());
  EXPECT_EQ(h2.received.size(), 1u);
}

// --- CountSends + DeliverEach against the equivalent Send loop ----------

/// Records each delivery with the queue time it arrived at (0 when no
/// queue is involved).
class TimedHandler : public MessageHandler {
 public:
  explicit TimedHandler(const sim::EventQueue* q) : queue_(q) {}
  void HandleMessage(const Message& msg) override {
    received.push_back(msg);
    at.push_back(queue_ != nullptr ? queue_->now() : 0.0);
  }
  std::vector<Message> received;
  std::vector<double> at;

 private:
  const sim::EventQueue* queue_;
};

/// One network, its counters and (optionally) its latency model and
/// queue.  Peers 0..9 exist; 3 and 7 are offline; 12 was never seen.
/// With `handlers`, peers 2, 4 and 7 carry a recording handler.
struct SendSide {
  SendSide(bool latency, bool handlers)
      : net(&counters),
        model(LatencyConfig{}, 5),
        h2(&events),
        h4(&events),
        h7(&events) {
    if (latency) net.SetDeliveryModel(&model, &events);
    for (PeerId p = 0; p < 10; ++p) net.SetOnline(p, true);
    if (handlers) {
      net.Register(2, &h2);
      net.Register(4, &h4);
      net.Register(7, &h7);
    }
    net.SetOnline(3, false);
    net.SetOnline(7, false);
  }
  CounterRegistry counters;
  sim::EventQueue events;
  Network net;
  LatencyDelivery model;
  TimedHandler h2;
  TimedHandler h4;
  TimedHandler h7;
};

const std::vector<PeerId> kTargets = {1, 2, 3, 4, 12, 2, 7, 9, 4, 0};

Message FloodCopy() {
  Message m;
  m.type = MessageType::kFloodQuery;
  m.from = 5;
  m.key = 77;
  m.tag = 3;
  return m;
}

void SendLoop(Network& net) {
  Message m = FloodCopy();
  for (PeerId p : kTargets) {
    m.to = p;
    net.Send(m);
  }
}

void CountAndDeliver(Network& net) {
  uint64_t lost = 0;
  for (PeerId p : kTargets) lost += net.IsOnline(p) ? 0 : 1;
  net.CountSends(MessageType::kFloodQuery, kTargets.size(), lost);
  net.DeliverEach(FloodCopy(), kTargets);
}

void ExpectSameCounters(const CounterRegistry& a, const CounterRegistry& b) {
  ASSERT_EQ(a.NumCounters(), b.NumCounters());
  for (CounterId id = 0; id < a.NumCounters(); ++id) {
    EXPECT_EQ(a.Value(id), b.Value(id)) << a.NameOf(id);
  }
}

void ExpectSameDeliveries(const TimedHandler& a, const TimedHandler& b) {
  ASSERT_EQ(a.received.size(), b.received.size());
  for (size_t i = 0; i < a.received.size(); ++i) {
    EXPECT_EQ(a.received[i].from, b.received[i].from);
    EXPECT_EQ(a.received[i].to, b.received[i].to);
    EXPECT_EQ(a.received[i].type, b.received[i].type);
    EXPECT_EQ(a.received[i].key, b.received[i].key);
    EXPECT_EQ(a.received[i].tag, b.received[i].tag);
    EXPECT_EQ(a.at[i], b.at[i]);
  }
}

TEST(NetworkCountSendsTest, MatchesSendLoopUnderImmediateDelivery) {
  for (bool handlers : {false, true}) {
    SCOPED_TRACE(handlers ? "handlers" : "no handlers");
    SendSide sends(false, handlers);
    SendSide counted(false, handlers);
    SendLoop(sends.net);
    CountAndDeliver(counted.net);
    ExpectSameCounters(sends.counters, counted.counters);
    EXPECT_EQ(counted.counters.Value("net.lost"), 3u);  // 3, 12 and 7
    ExpectSameDeliveries(sends.h2, counted.h2);
    ExpectSameDeliveries(sends.h4, counted.h4);
    EXPECT_EQ(counted.h2.received.size(), handlers ? 2u : 0u);
    EXPECT_TRUE(counted.h7.received.empty());  // offline
  }
}

TEST(NetworkCountSendsTest, MatchesSendLoopUnderLatencyDelivery) {
  SendSide sends(true, true);
  SendSide counted(true, true);
  SendLoop(sends.net);
  CountAndDeliver(counted.net);
  ExpectSameCounters(sends.counters, counted.counters);
  EXPECT_EQ(counted.net.DeferredCount(), 7u);
  EXPECT_EQ(sends.net.total_latency_s(), counted.net.total_latency_s());
  const Histogram& a = sends.net.TypeLatencyMs(MessageType::kFloodQuery);
  const Histogram& b = counted.net.TypeLatencyMs(MessageType::kFloodQuery);
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(sends.events.size(), counted.events.size());
  sends.events.RunAll();
  counted.events.RunAll();
  ExpectSameDeliveries(sends.h2, counted.h2);
  ExpectSameDeliveries(sends.h4, counted.h4);
  EXPECT_EQ(counted.h2.received.size(), 2u);
  ExpectSameCounters(sends.counters, counted.counters);
}

TEST(NetworkCountSendsTest, MatchesSendLoopInABoundLane) {
  // Lanes require handler-free peers.
  for (bool latency : {false, true}) {
    SCOPED_TRACE(latency ? "latency" : "immediate");
    SendSide sends(latency, false);
    SendSide counted(latency, false);
    ShardLane lane_a;
    ShardLane lane_b;
    lane_a.Prepare(sends.counters.NumCounters());
    lane_b.Prepare(counted.counters.NumCounters());
    sends.net.BeginLane(&lane_a);
    SendLoop(sends.net);
    sends.net.EndLane();
    counted.net.BeginLane(&lane_b);
    CountAndDeliver(counted.net);
    counted.net.EndLane();
    EXPECT_EQ(lane_a.counter_delta, lane_b.counter_delta);
    EXPECT_EQ(lane_a.latency_s, lane_b.latency_s);
    ASSERT_EQ(lane_a.deferred.size(), lane_b.deferred.size());
    EXPECT_EQ(lane_b.deferred.size(), latency ? 7u : 0u);
    for (size_t i = 0; i < lane_a.deferred.size(); ++i) {
      EXPECT_EQ(lane_a.deferred[i].msg.from, lane_b.deferred[i].msg.from);
      EXPECT_EQ(lane_a.deferred[i].msg.to, lane_b.deferred[i].msg.to);
      EXPECT_EQ(lane_a.deferred[i].msg.type, lane_b.deferred[i].msg.type);
      EXPECT_EQ(lane_a.deferred[i].seconds, lane_b.deferred[i].seconds);
      EXPECT_EQ(lane_a.deferred[i].timeout, lane_b.deferred[i].timeout);
    }
    // Nothing reached the shared registry while the lane was bound.
    EXPECT_EQ(counted.net.TotalMessages(), 0u);
  }
}

}  // namespace
}  // namespace pdht::net
