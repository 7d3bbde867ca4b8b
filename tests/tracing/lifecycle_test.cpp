// Lifecycle features: token renewal (§4.3), DISCONNECT traces (Table 1),
// tracker untrack, and the state announced after a failover.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/transport/fault_injector.h"
#include "tests/tracing/harness.h"

namespace et::tracing {
namespace {

using testing::ClientKind;
using testing::TracingHarness;

void token_renewal_keeps_traces_verifiable(ClientKind kind) {
  TracingConfig c = TracingHarness::fast_config();
  c.token_lifetime = 700 * kMillisecond;
  c.auto_renew_tokens = true;  // default, explicit for contrast
  TracingHarness h(1, c);
  auto entity = h.make_client(kind, "svc-renewing");
  ASSERT_TRUE(h.start_tracing(entity).is_ok());

  auto tracker = h.make_tracker("long-watcher");
  int received = 0;
  ASSERT_TRUE(h.track(*tracker, "svc-renewing", kCatAllUpdates,
                      [&](const TracePayload&, const pubsub::Message&) {
                        ++received;
                      })
                  .is_ok());

  // Run far past several token lifetimes: renewals must keep every trace
  // verifiable with zero rejections.
  h.net.run_for(4 * kSecond);
  EXPECT_GT(received, 20);
  EXPECT_EQ(tracker->stats().traces_rejected, 0u);

  const int before = received;
  h.net.run_for(1 * kSecond);
  EXPECT_GT(received, before);  // still flowing after ~7 lifetimes
}

TEST(LifecycleTest, TokenRenewalKeepsTracesVerifiable) {
  token_renewal_keeps_traces_verifiable(ClientKind::kEntity);
}

TEST(LifecycleTest, HostTokenRenewalKeepsTracesVerifiable) {
  token_renewal_keeps_traces_verifiable(ClientKind::kHost);
}

TEST(LifecycleTest, ManualRenewalReplacesDelegation) {
  TracingHarness h;
  auto entity = h.make_entity("svc-manual");
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());
  auto tracker = h.make_tracker("observer");
  int received = 0;
  ASSERT_TRUE(h.track(*tracker, "svc-manual", kCatAllUpdates,
                      [&](const TracePayload&, const pubsub::Message&) {
                        ++received;
                      })
                  .is_ok());
  h.net.run_for(500 * kMillisecond);
  const int before = received;

  entity->renew_token();
  h.net.run_for(1 * kSecond);
  // Traces continue under the new delegation without rejections.
  EXPECT_GT(received, before);
  EXPECT_EQ(tracker->stats().traces_rejected, 0u);
}

TEST(LifecycleTest, AbruptDisconnectPublishesDisconnectTrace) {
  TracingHarness h;
  auto entity = h.make_entity("svc-vanishing");
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());

  auto tracker = h.make_tracker("watcher");
  bool disconnect_seen = false;
  bool failed_seen = false;
  ASSERT_TRUE(h.track(*tracker, "svc-vanishing", kCatChangeNotifications,
                      [&](const TracePayload& p, const pubsub::Message&) {
                        if (p.type == TraceType::kDisconnect) {
                          disconnect_seen = true;
                        }
                        if (p.type == TraceType::kFailed) failed_seen = true;
                      })
                  .is_ok());
  h.net.run_for(300 * kMillisecond);

  entity->disconnect();  // sever the link with no notice
  h.net.run_for(2 * kSecond);

  // The broker notices on its next ping delivery attempt and reports
  // DISCONNECT (not FAILED — the link event preempts the miss counter).
  EXPECT_TRUE(disconnect_seen);
  EXPECT_FALSE(failed_seen);
  EXPECT_FALSE(h.services[0]->has_session_for("svc-vanishing"));
}

TEST(LifecycleTest, DisconnectWithNoTrackersIsQuiet) {
  TracingHarness h;
  auto entity = h.make_entity("svc-unseen");
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());
  h.net.run_for(200 * kMillisecond);
  entity->disconnect();
  h.net.run_for(2 * kSecond);
  // Session torn down, nothing published (no interest).
  EXPECT_FALSE(h.services[0]->has_session_for("svc-unseen"));
  EXPECT_EQ(h.services[0]->stats().traces_published, 0u);
}

TEST(LifecycleTest, UntrackStopsDeliveryAndInterestExpires) {
  TracingHarness h;
  auto entity = h.make_entity("svc-watched");
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());
  auto tracker = h.make_tracker("fickle");
  int received = 0;
  ASSERT_TRUE(h.track(*tracker, "svc-watched", kCatAllUpdates,
                      [&](const TracePayload&, const pubsub::Message&) {
                        ++received;
                      })
                  .is_ok());
  h.net.run_for(500 * kMillisecond);
  EXPECT_GT(received, 0);
  EXPECT_EQ(tracker->tracked_count(), 1u);

  tracker->untrack("svc-watched");
  h.net.run_for(100 * kMillisecond);
  EXPECT_EQ(tracker->tracked_count(), 0u);
  const int at_untrack = received;
  h.net.run_for(500 * kMillisecond);
  EXPECT_EQ(received, at_untrack);  // no further deliveries

  // After TTL gauge rounds with no interest responses, the broker stops
  // publishing entirely.
  h.net.run_for(2 * kSecond);
  const std::uint64_t published = h.services[0]->stats().traces_published;
  h.net.run_for(1 * kSecond);
  EXPECT_EQ(h.services[0]->stats().traces_published, published);
}

TEST(LifecycleTest, UntrackOneOfTwoKeepsTheOther) {
  TracingHarness h;
  auto e1 = h.make_entity("svc-a");
  auto e2 = h.make_entity("svc-b");
  ASSERT_TRUE(h.start_tracing(*e1).is_ok());
  ASSERT_TRUE(h.start_tracing(*e2).is_ok());
  auto tracker = h.make_tracker("dual");
  int a_count = 0, b_count = 0;
  ASSERT_TRUE(h.track(*tracker, "svc-a", kCatAllUpdates,
                      [&](const TracePayload&, const pubsub::Message&) {
                        ++a_count;
                      })
                  .is_ok());
  ASSERT_TRUE(h.track(*tracker, "svc-b", kCatAllUpdates,
                      [&](const TracePayload&, const pubsub::Message&) {
                        ++b_count;
                      })
                  .is_ok());
  h.net.run_for(500 * kMillisecond);
  tracker->untrack("svc-a");
  h.net.run_for(100 * kMillisecond);
  const int a_frozen = a_count;
  const int b_so_far = b_count;
  h.net.run_for(500 * kMillisecond);
  EXPECT_EQ(a_count, a_frozen);
  EXPECT_GT(b_count, b_so_far);
  EXPECT_EQ(tracker->tracked_count(), 1u);
}

/// The broker's liveness escalation for one traced entity, run over both
/// client kinds: a single entity, and the first member of a host whose
/// whole roster stops answering. Both must yield the same traces.
class LivenessLifecycleTest : public ::testing::TestWithParam<ClientKind> {
 protected:
  LivenessLifecycleTest() : h(1, config()) {
    client = h.make_client(GetParam(), "svc-esc");
    EXPECT_TRUE(h.start_tracing(client).is_ok());
    watched = client.members.empty() ? "svc-esc" : client.members.front();
    tracker = h.make_tracker("watcher");
    // Every liveness trace for the watched entity except heartbeats.
    EXPECT_TRUE(h.track(*tracker, "svc-esc",
                        kCatChangeNotifications | kCatAllUpdates,
                        [this](const TracePayload& p, const pubsub::Message&) {
                          if (p.entity_id != watched) return;
                          if (p.type == TraceType::kAllsWell &&
                              p.detail.empty()) {
                            return;
                          }
                          seen.push_back(std::string(trace_type_name(p.type)) +
                                         ": " + p.detail);
                        })
                    .is_ok());
    h.net.run_for(300 * kMillisecond);
  }

  static TracingConfig config() {
    TracingConfig c = TracingHarness::fast_config();
    c.disconnect_misses = 9;
    return c;
  }

  void set_responsive(bool responsive) {
    if (client.entity) {
      client.entity->set_responsive(responsive);
    } else {
      client.host->set_all_responsive(responsive);
    }
  }

  TracingHarness h;
  testing::TracedClient client;
  std::string watched;
  std::unique_ptr<Tracker> tracker;
  std::vector<std::string> seen;
};

const std::string kSuspicion =
    "FAILURE_SUSPICION: 3 consecutive pings unanswered";
const std::string kFailed = "FAILED: no ping response after 6 attempts";

TEST_P(LivenessLifecycleTest, UnresponsiveEscalatesToDisconnect) {
  set_responsive(false);
  h.net.run_for(3 * kSecond);
  EXPECT_EQ(seen,
            (std::vector<std::string>{
                kSuspicion, kFailed,
                "DISCONNECT: presumed departed: 9 consecutive pings "
                "unanswered"}));
  EXPECT_FALSE(h.services[0]->has_session_for(watched));
}

TEST_P(LivenessLifecycleTest, RecoveryBeforeDisconnectSendsAllsWell) {
  set_responsive(false);
  for (int i = 0; i < 300 && seen.size() < 2; ++i) {
    h.net.run_for(10 * kMillisecond);
  }
  set_responsive(true);
  h.net.run_for(1 * kSecond);
  EXPECT_EQ(seen, (std::vector<std::string>{
                      kSuspicion, kFailed,
                      "ALLS_WELL: entity responsive again"}));
  EXPECT_TRUE(h.services[0]->has_session_for(watched));
}

TEST_P(LivenessLifecycleTest, LostLinkSendsDisconnect) {
  client->disconnect();
  h.net.run_for(1 * kSecond);
  EXPECT_EQ(seen, (std::vector<std::string>{"DISCONNECT: client link lost"}));
  EXPECT_FALSE(h.services[0]->has_session_for(watched));
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, LivenessLifecycleTest,
    ::testing::Values(ClientKind::kEntity, ClientKind::kHost),
    [](const ::testing::TestParamInfo<ClientKind>& param) {
      return param.param == ClientKind::kEntity ? "Entity" : "HostMember";
    });

TEST(LifecycleTest, StateSetDuringRecoveryDwellIsNotOverwritten) {
  TracingConfig c = TracingHarness::fast_config();
  c.broker_silence_timeout = 600 * kMillisecond;
  RetryPolicy r;
  r.max_attempts = 0;
  r.initial_backoff = 50 * kMillisecond;
  r.max_backoff = 400 * kMillisecond;
  r.deadline = 10 * kSecond;
  c.retry = r;
  c.recovery_announce_delay = 700 * kMillisecond;
  TracingHarness h(2, c);
  h.register_brokers();
  auto entity = h.make_entity("svc-dwell", 0);
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());
  entity->set_state(EntityState::kReady);

  // The tracker sits on the broker the entity fails over to, so it sees
  // every state the entity reports after the failover.
  auto tracker = h.make_tracker("watcher", 1);
  std::vector<EntityState> observed;
  ASSERT_TRUE(h.track(*tracker, "svc-dwell", kCatAll,
                      [&](const TracePayload& p, const pubsub::Message&) {
                        if (p.state) observed.push_back(*p.state);
                      })
                  .is_ok());
  h.net.run_for(300 * kMillisecond);

  h.net.faults().crash(h.brokers[0]->node());
  for (int i = 0; i < 100 && entity->stats().failovers == 0; ++i) {
    h.net.run_for(50 * kMillisecond);
  }
  ASSERT_EQ(entity->stats().failovers, 1u);
  ASSERT_EQ(entity->state(), EntityState::kRecovering);

  // Shut down mid-dwell, late enough that the tracker's interest has
  // reached the new hosting broker. The dwell timer must not resurrect
  // the pre-failover READY afterwards.
  h.net.run_for(400 * kMillisecond);
  entity->set_state(EntityState::kShutdown);
  h.net.run_for(2 * kSecond);

  EXPECT_EQ(entity->state(), EntityState::kShutdown);
  ASSERT_FALSE(observed.empty());
  EXPECT_EQ(observed.back(), EntityState::kShutdown);
}

}  // namespace
}  // namespace et::tracing
