// Integration tests on the wall-clock RealTimeNetwork backend — the same
// code paths the benchmarks use, including thread interleavings that the
// deterministic backend can't produce. Kept small/fast: one broker chain,
// short ping intervals, 512-bit keys.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "src/crypto/credential.h"
#include "src/discovery/tdn.h"
#include "src/pubsub/topology.h"
#include "src/tracing/trace_filter.h"
#include "src/tracing/traced_entity.h"
#include "src/tracing/tracing_broker.h"
#include "src/tracing/tracker.h"
#include "src/transport/realtime_network.h"

namespace et::tracing {
namespace {

constexpr std::size_t kBits = 512;

struct RealTimeFixture : ::testing::Test {
  RealTimeFixture() : rng(55), ca("rt-ca", rng, kBits) {
    crypto::Identity tdn_id = crypto::Identity::create(
        "tdn-0", ca, rng, net.now(), 3600 * kSecond, kBits);
    anchors = TrustAnchors{ca.public_key(), tdn_id.keys.public_key};
    tdn = std::make_unique<discovery::Tdn>(net, std::move(tdn_id),
                                           ca.public_key(), 2);
    config.ping_interval = 30 * kMillisecond;
    config.min_ping_interval = 10 * kMillisecond;
    config.gauge_interval = 100 * kMillisecond;
    config.metrics_interval = 150 * kMillisecond;
    config.delegate_key_bits = kBits;

    topo = std::make_unique<pubsub::Topology>(net);
    brokers =
        topo->make_chain(2, link(), "broker", [&](const std::string& name) {
          pubsub::Broker::Options o;
          o.name = name;
          install_trace_filter(o, anchors, net);
          return o;
        });
    for (auto* b : brokers) {
      services.push_back(std::make_unique<TracingBrokerService>(
          *b, anchors, config, 321));
    }
  }

  ~RealTimeFixture() override { net.stop(); }

  static transport::LinkParams link() {
    transport::LinkParams p = transport::LinkParams::ideal_profile();
    p.base_latency = 500;  // 0.5 ms
    return p;
  }

  crypto::Identity identity(const std::string& id) {
    return crypto::Identity::create(id, ca, rng, net.now(), 3600 * kSecond,
                                    kBits);
  }

  Status start_blocking(TracedEntity& e) {
    std::atomic<int> state{0};
    Status result = internal_error("timed out");
    e.start_tracing({}, [&](const Status& s) {
      result = s;
      state.store(1);
    });
    for (int i = 0; i < 2000 && state.load() == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return state.load() ? result : internal_error("timed out");
  }

  transport::RealTimeNetwork net;
  Rng rng;
  crypto::CertificateAuthority ca;
  TrustAnchors anchors;
  TracingConfig config;
  std::unique_ptr<discovery::Tdn> tdn;
  std::unique_ptr<pubsub::Topology> topo;
  std::vector<pubsub::Broker*> brokers;
  std::vector<std::unique_ptr<TracingBrokerService>> services;
};

TEST_F(RealTimeFixture, FullPipelineUnderRealThreads) {
  TracedEntity entity(net, identity("rt-entity"), anchors, config, 1);
  entity.attach_tdn(tdn->node(), link());
  entity.connect_broker(brokers[0]->node(), link());
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  ASSERT_TRUE(start_blocking(entity).is_ok());

  Tracker tracker(net, identity("rt-tracker"), anchors, 2);
  tracker.attach_tdn(tdn->node(), link());
  tracker.connect_broker(brokers[1]->node(), link());
  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  std::atomic<int> heartbeats{0};
  std::atomic<int> ready_states{0};
  tracker.track("rt-entity", kCatAllUpdates | kCatStateTransitions,
                [&](const TracePayload& p, const pubsub::Message&) {
                  if (p.type == TraceType::kAllsWell) heartbeats.fetch_add(1);
                  if (p.type == TraceType::kReady) ready_states.fetch_add(1);
                });
  std::this_thread::sleep_for(std::chrono::milliseconds(400));

  entity.set_state(EntityState::kReady);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  EXPECT_GT(heartbeats.load(), 3);
  EXPECT_EQ(ready_states.load(), 1);
  EXPECT_EQ(tracker.stats().traces_rejected, 0u);
  // Halt network threads before the test-local entity/tracker are
  // destroyed; the fixture's stop() only protects fixture members.
  net.stop();
}

TEST_F(RealTimeFixture, ManyEntitiesRegisterConcurrently) {
  // Exercises the subscribe/publish ordering race fixed in the transport:
  // registrations issued while other sessions generate ping load.
  constexpr int kEntities = 6;
  std::vector<std::unique_ptr<TracedEntity>> entities;
  for (int i = 0; i < kEntities; ++i) {
    auto e = std::make_unique<TracedEntity>(
        net, identity("rt-e" + std::to_string(i)), anchors, config,
        10 + i);
    e->attach_tdn(tdn->node(), link());
    e->connect_broker(brokers[i % 2]->node(), link());
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    ASSERT_TRUE(start_blocking(*e).is_ok()) << "entity " << i;
    entities.push_back(std::move(e));
  }
  // Halt the node threads before reading broker state: a broker publishes
  // the registration response before it records the session, so an entity
  // can be ready while its broker is still writing the session table.
  net.stop();  // also before the test-local entities are destroyed
  EXPECT_EQ(services[0]->active_sessions() + services[1]->active_sessions(),
            static_cast<std::size_t>(kEntities));
}

TEST_F(RealTimeFixture, FailureDetectionOnWallClock) {
  TracedEntity entity(net, identity("rt-dying"), anchors, config, 3);
  entity.attach_tdn(tdn->node(), link());
  entity.connect_broker(brokers[0]->node(), link());
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  ASSERT_TRUE(start_blocking(entity).is_ok());

  Tracker tracker(net, identity("rt-watcher"), anchors, 4);
  tracker.attach_tdn(tdn->node(), link());
  tracker.connect_broker(brokers[0]->node(), link());
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  std::atomic<bool> failed{false};
  tracker.track("rt-dying", kCatChangeNotifications,
                [&](const TracePayload& p, const pubsub::Message&) {
                  if (p.type == TraceType::kFailed) failed.store(true);
                });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  entity.set_responsive(false);
  // 6 misses at 30->10ms adaptive interval: well under a second.
  for (int i = 0; i < 400 && !failed.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(failed.load());
  net.stop();  // before the test-local entity/tracker are destroyed
}

TEST_F(RealTimeFixture, SlowDelegateKeygenIsNotPresumedDeparture) {
  // This 3072-bit delegate keygen takes ~170 ms on a 4-vCPU host, against
  // a ~30 ms disconnect window (10 ms pings, 3 misses); a 1536-bit one
  // takes ~30 ms and would not tell. The pair is minted before
  // registering, so the entity is free to answer the first pings.
  TracingConfig c = config;
  c.ping_interval = 10 * kMillisecond;
  c.min_ping_interval = 10 * kMillisecond;
  c.suspicion_misses = 1;
  c.failed_misses = 2;
  c.disconnect_misses = 3;
  c.delegate_key_bits = 3072;
  pubsub::Broker& broker = topo->add_broker({.name = "broker-keygen"});
  TracingBrokerService service(broker, anchors, c, 77);

  TracedEntity entity(net, identity("rt-keygen"), anchors, c, 5);
  entity.attach_tdn(tdn->node(), link());
  entity.connect_broker(broker.node(), link());
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  ASSERT_TRUE(start_blocking(entity).is_ok());
  net.stop();  // read the counters with every node thread halted

  EXPECT_EQ(service.stats().disconnects, 0u);
  EXPECT_EQ(service.stats().registrations, 1u);
  EXPECT_EQ(entity.stats().registrations, 1u);
  EXPECT_TRUE(service.has_session_for("rt-keygen"));
}

}  // namespace
}  // namespace et::tracing
