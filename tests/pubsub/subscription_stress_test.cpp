// Concurrency stress for the broker under RealTimeNetwork. Built for
// ET_SANITIZE=thread: publishers on several plain test threads feed one
// broker, whose node context is the only reader and writer of its
// subscription tables. The assertions check exactly-once delivery; the
// point is also giving TSan real cross-thread traffic over the backend's
// entry points.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/pubsub/broker.h"
#include "src/pubsub/client.h"
#include "src/pubsub/topology.h"
#include "src/transport/realtime_network.h"

namespace et::pubsub {
namespace {

TEST(SubscriptionStressTest,
     RealTimeConcurrentPublishersDeliverEachMessageOnce) {
  transport::RealTimeNetwork net(1717);
  Topology topo(net);
  Broker& broker = topo.add_broker({.name = "b0"});

  transport::LinkParams link = transport::LinkParams::ideal_profile();

  constexpr int kPublishers = 3;
  constexpr int kPerPublisher = 200;
  constexpr std::size_t kExpected =
      static_cast<std::size_t>(kPublishers) * kPerPublisher;
  // Per-message delivery counts, indexed by publisher * kPerPublisher + i.
  std::array<std::atomic<int>, kExpected> seen{};
  std::atomic<std::uint64_t> delivered{0};

  Client sub(net, "sub");
  std::atomic<bool> sub_connected{false};
  sub.connect(broker.node(), link,
              [&](const Status& s) { sub_connected = s.is_ok(); });
  std::atomic<bool> subscribed{false};
  sub.subscribe(
      "stress/#",
      [&](const Message& m) {
        const std::size_t id = std::stoul(et::to_string(m.payload));
        if (id < kExpected) seen[id].fetch_add(1);
        delivered.fetch_add(1);
      },
      [&](const Status& s) { subscribed = s.is_ok(); });

  std::vector<std::unique_ptr<Client>> pubs;
  std::atomic<int> connected{0};
  for (int p = 0; p < kPublishers; ++p) {
    pubs.push_back(
        std::make_unique<Client>(net, "pub" + std::to_string(p)));
    pubs.back()->connect(broker.node(), link, [&](const Status& s) {
      if (s.is_ok()) connected.fetch_add(1);
    });
  }
  for (int i = 0; i < 200; ++i) {
    if (sub_connected && subscribed && connected == kPublishers) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(sub_connected && subscribed);
  ASSERT_EQ(connected.load(), kPublishers);

  // Publish concurrently from plain test threads: Client::publish posts
  // into the client's node context, so this also stresses the backend's
  // cross-thread entry points.
  std::vector<std::thread> workers;
  for (int p = 0; p < kPublishers; ++p) {
    workers.emplace_back([&pubs, p] {
      for (int i = 0; i < kPerPublisher; ++i) {
        pubs[p]->publish(
            "stress/p" + std::to_string(p) + "/" + std::to_string(i % 8),
            to_bytes(std::to_string(p * kPerPublisher + i)));
      }
    });
  }
  for (auto& t : workers) t.join();

  for (int i = 0; i < 1000 && delivered.load() < kExpected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // Let any duplicate still in flight arrive before counting.
  net.drain();
  EXPECT_EQ(delivered.load(), kExpected);
  for (std::size_t id = 0; id < kExpected; ++id) {
    EXPECT_EQ(seen[id].load(), 1) << "message " << id;
  }
  const BrokerStats stats = broker.stats();
  EXPECT_EQ(stats.published, kExpected);
  EXPECT_EQ(stats.delivered_local, kExpected);

  net.stop();
}

}  // namespace
}  // namespace et::pubsub
