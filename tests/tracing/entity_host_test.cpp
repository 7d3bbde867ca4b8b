// EntityHost end-to-end (DESIGN.md §14): one batch registration covers a
// whole roster, one ping round carries the roster's liveness, coalesced
// digests expand back to exact per-entity semantics at the tracker.
#include "src/tracing/entity_host.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/transport/fault_injector.h"
#include "tests/tracing/harness.h"

namespace et::tracing {
namespace {

using testing::TracingHarness;

std::vector<std::string> member_ids(std::size_t n) {
  std::vector<std::string> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back("member-" + std::to_string(i));
  }
  return ids;
}

TracingConfig digest_config() {
  TracingConfig c = TracingHarness::fast_config();
  c.digest_interval = 100 * kMillisecond;
  c.timer_wheel_tick = 20 * kMillisecond;
  return c;
}

/// Forwards to another backend, recording every frame sent from a node
/// added through it.
class FrameTap final : public transport::NetworkBackend {
 public:
  struct Frame {
    TimePoint at = 0;
    transport::NodeId from = 0;
    transport::NodeId to = 0;
    Bytes payload;
    bool operator==(const Frame&) const = default;
  };

  explicit FrameTap(transport::NetworkBackend& inner) : inner_(inner) {}

  transport::NodeId add_node(std::string name,
                             transport::PacketHandler handler) override {
    return inner_.add_node(std::move(name), std::move(handler));
  }
  void link(transport::NodeId a, transport::NodeId b,
            const transport::LinkParams& params) override {
    inner_.link(a, b, params);
  }
  void unlink(transport::NodeId a, transport::NodeId b) override {
    inner_.unlink(a, b);
  }
  void detach(transport::NodeId node) override { inner_.detach(node); }
  Status send(transport::NodeId from, transport::NodeId to,
              transport::SharedPayload payload) override {
    frames.push_back({inner_.now(), from, to, *payload});
    return inner_.send(from, to, std::move(payload));
  }
  void post(transport::NodeId node, transport::Task task) override {
    inner_.post(node, std::move(task));
  }
  transport::TimerId schedule(transport::NodeId node, Duration delay,
                              transport::Task task) override {
    return inner_.schedule(node, delay, std::move(task));
  }
  void cancel(transport::TimerId id) override { inner_.cancel(id); }
  [[nodiscard]] TimePoint now() const override { return inner_.now(); }
  [[nodiscard]] bool linked(transport::NodeId a,
                            transport::NodeId b) const override {
    return inner_.linked(a, b);
  }
  [[nodiscard]] std::string node_name(transport::NodeId id) const override {
    return inner_.node_name(id);
  }

  std::vector<Frame> frames;

 private:
  transport::NetworkBackend& inner_;
};

struct HostFixture {
  explicit HostFixture(std::size_t brokers, std::size_t members,
                       TracingConfig config = digest_config())
      : h(brokers, config) {
    host = std::make_unique<EntityHost>(h.net, h.make_identity("host-0"),
                                        h.anchors, config, h.rng.next_u64());
    host->attach_tdn(h.tdn->node(), TracingHarness::link());
    host->connect_broker(h.brokers.front()->node(), TracingHarness::link());
    h.net.run_for(20 * kMillisecond);

    Status reg = internal_error("callback never ran");
    bool done = false;
    host->register_entities({}, member_ids(members), [&](const Status& s) {
      reg = s;
      done = true;
    });
    for (int i = 0; i < 100 && !done; ++i) h.net.run_for(50 * kMillisecond);
    EXPECT_TRUE(reg.is_ok()) << reg.to_string();
  }

  TracingHarness h;
  std::unique_ptr<EntityHost> host;
};

TEST(EntityHostTest, BatchRegistrationIsOneRoundTripPerRoster) {
  HostFixture f(/*brokers=*/1, /*members=*/16);
  EXPECT_TRUE(f.host->tracing_active());
  EXPECT_EQ(f.host->entity_count(), 16u);
  EXPECT_EQ(f.h.services[0]->stats().batch_registrations, 1u);
  EXPECT_EQ(f.h.services[0]->stats().registrations, 1u);  // one session
  EXPECT_EQ(f.h.services[0]->roster_size(), 16u);
  // Every member resolves to the (single) host session.
  for (const std::string& id : member_ids(16)) {
    EXPECT_TRUE(f.h.services[0]->has_session_for(id)) << id;
  }
}

TEST(EntityHostTest, DigestsExpandToPerEntityHeartbeats) {
  HostFixture f(/*brokers=*/3, /*members=*/16);
  auto tracker = f.h.make_tracker("tracker-0", /*broker_index=*/2);

  std::map<std::string, int> heartbeats;
  Status st = internal_error("never");
  bool done = false;
  tracker->track_host(
      "host-0", kCatAll,
      [&](const TracePayload& p, const pubsub::Message&) {
        if (p.type == TraceType::kAllsWell) ++heartbeats[p.entity_id];
      },
      [&](const Status& s) {
        st = s;
        done = true;
      });
  for (int i = 0; i < 100 && !done; ++i) f.h.net.run_for(50 * kMillisecond);
  ASSERT_TRUE(st.is_ok()) << st.to_string();

  f.h.net.run_for(2 * kSecond);
  // The tracker observes per-entity heartbeats for EVERY member even
  // though the wire carried coalesced digests.
  for (const std::string& id : member_ids(16)) {
    EXPECT_GE(heartbeats[id], 3) << id;
  }
  EXPECT_GT(tracker->stats().digests_received, 0u);
  EXPECT_GT(tracker->stats().digest_entries_expanded, 0u);
  // Coalescing actually happened on the broker side: far fewer digest
  // messages than observations carried.
  const TraceEmitter::Stats& es = f.h.services[0]->emitter_stats();
  EXPECT_GT(es.digests_published, 0u);
  EXPECT_GT(es.digest_entries, 4 * es.digests_published);
}

TEST(EntityHostTest, SingleUnresponsiveMemberEscalatesAlone) {
  HostFixture f(/*brokers=*/1, /*members=*/8);
  auto tracker = f.h.make_tracker("tracker-0");

  std::set<std::string> suspected;
  std::map<std::string, int> recovered;
  Status st = internal_error("never");
  bool done = false;
  tracker->track_host(
      "host-0", kCatAll,
      [&](const TracePayload& p, const pubsub::Message&) {
        if (p.type == TraceType::kFailureSuspicion ||
            p.type == TraceType::kFailed) {
          suspected.insert(p.entity_id);
        }
        if (p.type == TraceType::kAllsWell && !p.detail.empty()) {
          ++recovered[p.entity_id];
        }
      },
      [&](const Status& s) {
        st = s;
        done = true;
      });
  for (int i = 0; i < 100 && !done; ++i) f.h.net.run_for(50 * kMillisecond);
  ASSERT_TRUE(st.is_ok()) << st.to_string();

  f.host->set_responsive("member-3", false);
  f.h.net.run_for(3 * kSecond);
  // Only the dead member escalates; the host and its 7 live members keep
  // reporting healthy through the same ping/digest stream.
  EXPECT_EQ(suspected, std::set<std::string>{"member-3"});
  EXPECT_TRUE(f.h.services[0]->session_view("member-3").suspected ||
              f.h.services[0]->session_view("member-3").failed);
  EXPECT_FALSE(f.h.services[0]->session_view("member-1").suspected);

  // Recovery travels urgently (detail-carrying ALLS_WELL, not digested).
  f.host->set_responsive("member-3", true);
  f.h.net.run_for(1 * kSecond);
  EXPECT_GE(recovered["member-3"], 1);
  EXPECT_FALSE(f.h.services[0]->session_view("member-3").suspected);
  EXPECT_FALSE(f.h.services[0]->session_view("member-3").failed);
}

TEST(EntityHostTest, TimerStateIsPerHostNotPerEntity) {
  HostFixture f(/*brokers=*/1, /*members=*/64);
  f.h.net.run_for(1 * kSecond);
  // One session: ping + metrics + gauge (+ one digest flush) logical
  // timers — versus 64 entities.
  const TimerWheel::Stats ws = f.h.services[0]->timer_stats();
  EXPECT_LE(ws.pending, 4u);
  // A nonzero tick multiplexes them onto at most one armed backend timer.
  EXPECT_LE(ws.armed_now, 1u);
  // The arena actually holds the roster compactly.
  EXPECT_EQ(f.h.services[0]->roster_size(), 64u);
  EXPECT_GT(f.h.services[0]->roster_bytes(), 0u);
}

TEST(EntityHostTest, HostDisconnectFansOutPerMemberDisconnects) {
  HostFixture f(/*brokers=*/1, /*members=*/8);
  auto tracker = f.h.make_tracker("tracker-0");

  std::set<std::string> disconnected;
  bool done = false;
  tracker->track_host(
      "host-0", kCatAll,
      [&](const TracePayload& p, const pubsub::Message&) {
        if (p.type == TraceType::kDisconnect) {
          disconnected.insert(p.entity_id);
        }
      },
      [&](const Status&) { done = true; });
  for (int i = 0; i < 100 && !done; ++i) f.h.net.run_for(50 * kMillisecond);

  f.host->disconnect();
  f.h.net.run_for(2 * kSecond);
  // The broker notices the severed link and announces every member.
  const std::vector<std::string> roster = member_ids(8);
  EXPECT_EQ(disconnected, std::set<std::string>(roster.begin(), roster.end()));
  EXPECT_FALSE(f.h.services[0]->has_session_for("host-0"));
  EXPECT_EQ(f.h.services[0]->roster_size(), 0u);
}

TEST(EntityHostTest, BrokerSilenceTriggersBatchFailover) {
  TracingConfig c = digest_config();
  c.broker_silence_timeout = 600 * kMillisecond;
  RetryPolicy r;
  r.max_attempts = 0;  // an availability reporter never gives up
  r.initial_backoff = 50 * kMillisecond;
  r.max_backoff = 400 * kMillisecond;
  r.deadline = 10 * kSecond;
  c.retry = r;
  HostFixture f(/*brokers=*/2, /*members=*/8, c);
  f.h.register_brokers();
  ASSERT_TRUE(f.host->tracing_active());
  ASSERT_EQ(f.host->stats().registrations, 1u);

  // Kill the hosting broker: pings stop, the silence watchdog fires, and
  // ONE batch re-registration re-homes the entire roster — mirroring
  // TracedEntity's failover ladder at O(1)-per-host cost.
  f.h.net.faults().crash(f.h.brokers[0]->node());
  for (int i = 0; i < 200 && f.host->stats().failovers == 0; ++i) {
    f.h.net.run_for(100 * kMillisecond);
  }
  EXPECT_EQ(f.host->stats().failovers, 1u);
  EXPECT_GE(f.host->stats().failover_attempts, 1u);
  EXPECT_FALSE(f.host->failing_over());
  EXPECT_TRUE(f.host->tracing_active());
  EXPECT_EQ(f.host->client().broker(), f.h.brokers[1]->node());
  EXPECT_EQ(f.host->stats().registrations, 2u);
  // The replacement broker serves the whole roster under the new session.
  EXPECT_EQ(f.h.services[1]->roster_size(), 8u);
  for (const std::string& id : member_ids(8)) {
    EXPECT_TRUE(f.h.services[1]->has_session_for(id)) << id;
  }
  // Pings flow again: the host answers its new broker.
  const std::uint64_t answered = f.host->stats().pings_answered;
  f.h.net.run_for(1 * kSecond);
  EXPECT_GT(f.host->stats().pings_answered, answered);
}

/// Every frame a seeded host sends through registration, digested
/// heartbeats, one member flap and one broker failover.
std::vector<FrameTap::Frame> host_frames(std::uint64_t seed) {
  TracingConfig c = digest_config();
  c.broker_silence_timeout = 600 * kMillisecond;
  RetryPolicy r;
  r.max_attempts = 0;
  r.initial_backoff = 50 * kMillisecond;
  r.max_backoff = 400 * kMillisecond;
  r.deadline = 10 * kSecond;
  c.retry = r;
  TracingHarness h(2, c, seed);
  h.register_brokers();

  FrameTap tap(h.net);
  EntityHost host(tap, h.make_identity("host-0"), h.anchors, c,
                  h.rng.next_u64());
  host.attach_tdn(h.tdn->node(), TracingHarness::link());
  host.connect_broker(h.brokers[0]->node(), TracingHarness::link());
  h.net.run_for(20 * kMillisecond);
  bool registered = false;
  host.register_entities({}, member_ids(8), [&](const Status& s) {
    registered = s.is_ok();
  });
  for (int i = 0; i < 100 && !registered; ++i) {
    h.net.run_for(50 * kMillisecond);
  }
  EXPECT_TRUE(registered);

  auto tracker = h.make_tracker("tracker-0", /*broker_index=*/1);
  tracker->track_host(
      "host-0", kCatAll, [](const TracePayload&, const pubsub::Message&) {},
      [](const Status&) {});
  h.net.run_for(1 * kSecond);

  host.set_responsive("member-3", false);
  h.net.run_for(1 * kSecond);
  host.set_responsive("member-3", true);
  h.net.run_for(500 * kMillisecond);

  h.net.faults().crash(h.brokers[0]->node());
  for (int i = 0; i < 100 && host.stats().failovers == 0; ++i) {
    h.net.run_for(100 * kMillisecond);
  }
  EXPECT_EQ(host.stats().failovers, 1u);
  h.net.run_for(1 * kSecond);
  return tap.frames;
}

TEST(EntityHostTest, SameSeedSendsIdenticalFrames) {
  const std::vector<FrameTap::Frame> first = host_frames(4711);
  const std::vector<FrameTap::Frame> second = host_frames(4711);
  ASSERT_FALSE(first.empty());
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_TRUE(first[i] == second[i]) << "frames diverge at #" << i;
  }
}

TEST(EntityHostTest, PassthroughConfigStillDeliversPerEntity) {
  // digest_interval == 0: the emitter publishes per-entity messages, no
  // digests anywhere — the batch API works without coalescing.
  TracingConfig c = TracingHarness::fast_config();
  HostFixture f(/*brokers=*/1, /*members=*/4, c);
  auto tracker = f.h.make_tracker("tracker-0");

  std::map<std::string, int> heartbeats;
  bool done = false;
  tracker->track_host(
      "host-0", kCatAll,
      [&](const TracePayload& p, const pubsub::Message&) {
        if (p.type == TraceType::kAllsWell) ++heartbeats[p.entity_id];
      },
      [&](const Status&) { done = true; });
  for (int i = 0; i < 100 && !done; ++i) f.h.net.run_for(50 * kMillisecond);

  f.h.net.run_for(1 * kSecond);
  for (const std::string& id : member_ids(4)) {
    EXPECT_GE(heartbeats[id], 2) << id;
  }
  EXPECT_EQ(tracker->stats().digests_received, 0u);
  EXPECT_EQ(f.h.services[0]->emitter_stats().digests_published, 0u);
}

}  // namespace
}  // namespace et::tracing
