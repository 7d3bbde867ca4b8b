// End-to-end integration tests of the full tracing pipeline:
// TDN topic creation -> registration -> delegation -> pings -> traces ->
// tracker verification, across single- and multi-broker deployments.
#include <gtest/gtest.h>

#include <algorithm>

#include "tests/tracing/harness.h"

namespace et::tracing {
namespace {

using testing::ClientKind;
using testing::TracingHarness;

TEST(EndToEndTest, EntityRegistersAndTracingStarts) {
  TracingHarness h;
  auto entity = h.make_entity("service-1");
  const Status s = h.start_tracing(*entity);
  ASSERT_TRUE(s.is_ok()) << s.to_string();
  EXPECT_TRUE(entity->tracing_active());
  EXPECT_FALSE(entity->trace_topic().is_nil());
  EXPECT_FALSE(entity->session_id().is_nil());
  EXPECT_TRUE(h.services[0]->has_session_for("service-1"));
  EXPECT_EQ(h.services[0]->stats().registrations, 1u);
  EXPECT_EQ(h.tdn->stats().topics_created, 1u);
}

TEST(EndToEndTest, PingsFlowAndAllsWellReachesTracker) {
  TracingHarness h;
  auto entity = h.make_entity("service-2");
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());

  auto tracker = h.make_tracker("tracker-1");
  int alls_well = 0;
  ASSERT_TRUE(h.track(*tracker, "service-2", kCatAllUpdates,
                      [&](const TracePayload& p, const pubsub::Message&) {
                        if (p.type == TraceType::kAllsWell) ++alls_well;
                      })
                  .is_ok());

  h.net.run_for(2 * kSecond);
  EXPECT_GT(entity->stats().pings_answered, 10u);
  EXPECT_GT(alls_well, 10);
  EXPECT_EQ(tracker->stats().traces_rejected, 0u);
  // Trace time: heartbeats were verified end-to-end.
  EXPECT_GE(tracker->stats().traces_received, static_cast<std::uint64_t>(alls_well));
}

TEST(EndToEndTest, TracesCrossMultipleBrokerHops) {
  TracingHarness h(/*broker_count=*/4);
  auto entity = h.make_entity("svc-far", /*broker_index=*/0);
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());

  auto tracker = h.make_tracker("watcher", /*broker_index=*/3);
  int received = 0;
  ASSERT_TRUE(h.track(*tracker, "svc-far", kCatAllUpdates,
                      [&](const TracePayload&, const pubsub::Message&) {
                        ++received;
                      })
                  .is_ok());

  h.net.run_for(2 * kSecond);
  EXPECT_GT(received, 5);
  // Traces were forwarded through intermediate brokers.
  EXPECT_GT(h.brokers[1]->stats().forwarded, 0u);
  EXPECT_GT(h.brokers[2]->stats().forwarded, 0u);
}

TEST(EndToEndTest, StateTransitionsReachSelectiveTracker) {
  TracingHarness h;
  auto entity = h.make_entity("svc-state");
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());

  auto tracker = h.make_tracker("state-watcher");
  std::vector<EntityState> seen;
  int heartbeats = 0;
  ASSERT_TRUE(h.track(*tracker, "svc-state", kCatStateTransitions,
                      [&](const TracePayload& p, const pubsub::Message&) {
                        if (p.state) seen.push_back(*p.state);
                        if (p.type == TraceType::kAllsWell) ++heartbeats;
                      })
                  .is_ok());
  h.net.run_for(200 * kMillisecond);

  entity->set_state(EntityState::kReady);
  h.net.run_for(200 * kMillisecond);
  entity->set_state(EntityState::kRecovering);
  h.net.run_for(200 * kMillisecond);

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], EntityState::kReady);
  EXPECT_EQ(seen[1], EntityState::kRecovering);
  // Selectivity: this tracker never subscribed to AllUpdates.
  EXPECT_EQ(heartbeats, 0);
}

TEST(EndToEndTest, LoadReportsFlowToLoadSubscribers) {
  TracingHarness h;
  auto entity = h.make_entity("svc-load");
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());

  auto tracker = h.make_tracker("load-watcher");
  LoadInfo seen;
  int count = 0;
  ASSERT_TRUE(h.track(*tracker, "svc-load", kCatLoad,
                      [&](const TracePayload& p, const pubsub::Message&) {
                        if (p.load) {
                          seen = *p.load;
                          ++count;
                        }
                      })
                  .is_ok());
  h.net.run_for(100 * kMillisecond);

  LoadInfo load;
  load.cpu_utilization = 0.75;
  load.memory_utilization = 0.5;
  load.workload = 42;
  entity->report_load(load);
  h.net.run_for(200 * kMillisecond);

  ASSERT_EQ(count, 1);
  EXPECT_EQ(seen, load);
}

TEST(EndToEndTest, FailureDetectionEscalates) {
  TracingHarness h;
  auto entity = h.make_entity("svc-dying");
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());

  auto tracker = h.make_tracker("mortician");
  bool suspected = false, failed = false;
  TimePoint suspected_at = 0, failed_at = 0;
  ASSERT_TRUE(h.track(*tracker, "svc-dying", kCatChangeNotifications,
                      [&](const TracePayload& p, const pubsub::Message&) {
                        if (p.type == TraceType::kFailureSuspicion) {
                          suspected = true;
                          suspected_at = h.net.now();
                        }
                        if (p.type == TraceType::kFailed) {
                          failed = true;
                          failed_at = h.net.now();
                        }
                      })
                  .is_ok());

  h.net.run_for(500 * kMillisecond);
  ASSERT_FALSE(suspected);

  entity->set_responsive(false);  // crash
  h.net.run_for(5 * kSecond);

  EXPECT_TRUE(suspected);
  EXPECT_TRUE(failed);
  EXPECT_GT(failed_at, suspected_at);  // suspicion precedes failure
  const auto view = h.services[0]->session_view("svc-dying");
  EXPECT_TRUE(view.failed);
}

TEST(EndToEndTest, AdaptivePingIntervalShrinksOnMisses) {
  TracingHarness h;
  auto entity = h.make_entity("svc-flaky");
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());
  h.net.run_for(300 * kMillisecond);
  const auto before = h.services[0]->session_view("svc-flaky");

  entity->set_responsive(false);
  h.net.run_for(1 * kSecond);
  const auto during = h.services[0]->session_view("svc-flaky");
  EXPECT_LT(during.current_ping_interval, before.current_ping_interval);

  // Recovery restores the interval and clears flags.
  entity->set_responsive(true);
  h.net.run_for(2 * kSecond);
  const auto after = h.services[0]->session_view("svc-flaky");
  EXPECT_FALSE(after.suspected);
  EXPECT_FALSE(after.failed);
  EXPECT_EQ(after.current_ping_interval, before.current_ping_interval);
}

void silent_mode_publishes_reverting(ClientKind kind) {
  TracingHarness h;
  auto entity = h.make_client(kind, "svc-quiet");
  ASSERT_TRUE(h.start_tracing(entity).is_ok());

  auto tracker = h.make_tracker("observer");
  bool reverting = false;
  ASSERT_TRUE(h.track(*tracker, "svc-quiet", kCatChangeNotifications,
                      [&](const TracePayload& p, const pubsub::Message&) {
                        if (p.type == TraceType::kRevertingToSilentMode) {
                          reverting = true;
                        }
                      })
                  .is_ok());
  h.net.run_for(200 * kMillisecond);

  entity->stop_tracing();
  h.net.run_for(500 * kMillisecond);
  EXPECT_TRUE(reverting);
  EXPECT_FALSE(h.services[0]->has_session_for("svc-quiet"));
  EXPECT_EQ(h.services[0]->active_sessions(), 0u);
}

TEST(EndToEndTest, SilentModePublishesReverting) {
  silent_mode_publishes_reverting(ClientKind::kEntity);
}

TEST(EndToEndTest, HostSilentModePublishesReverting) {
  silent_mode_publishes_reverting(ClientKind::kHost);
}

TEST(EndToEndTest, NoTracesWithoutInterest) {
  TracingHarness h;
  auto entity = h.make_entity("svc-lonely");
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());
  h.net.run_for(2 * kSecond);
  // Pings flow, but no tracker ever asked for anything.
  EXPECT_GT(h.services[0]->stats().pings_sent, 0u);
  EXPECT_GT(h.services[0]->stats().traces_suppressed_no_interest, 0u);
  EXPECT_EQ(h.services[0]->stats().traces_published, 0u);
}

TEST(EndToEndTest, MultipleTrackersAllReceive) {
  TracingHarness h;
  auto entity = h.make_entity("svc-popular");
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());

  constexpr int kTrackers = 5;
  std::vector<std::unique_ptr<Tracker>> trackers;
  std::vector<int> counts(kTrackers, 0);
  for (int i = 0; i < kTrackers; ++i) {
    trackers.push_back(h.make_tracker("t" + std::to_string(i)));
    ASSERT_TRUE(h.track(*trackers.back(), "svc-popular", kCatAllUpdates,
                        [&counts, i](const TracePayload&,
                                     const pubsub::Message&) {
                          ++counts[i];
                        })
                    .is_ok());
  }
  h.net.run_for(1 * kSecond);
  for (int i = 0; i < kTrackers; ++i) {
    EXPECT_GT(counts[i], 3) << "tracker " << i;
  }
}

TEST(EndToEndTest, NetworkMetricsReportLinkBehaviour) {
  TracingHarness h;
  auto entity = h.make_entity("svc-metrics");
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());

  auto tracker = h.make_tracker("net-watcher");
  NetworkMetrics last;
  int count = 0;
  ASSERT_TRUE(h.track(*tracker, "svc-metrics", kCatNetworkMetrics,
                      [&](const TracePayload& p, const pubsub::Message&) {
                        if (p.metrics) {
                          last = *p.metrics;
                          ++count;
                        }
                      })
                  .is_ok());
  h.net.run_for(2 * kSecond);
  ASSERT_GT(count, 0);
  // Round trip over two 1 ms links is ~4 ms (entity->broker via broker).
  EXPECT_GT(last.mean_rtt_ms, 0.5);
  EXPECT_LT(last.mean_rtt_ms, 50.0);
  EXPECT_EQ(last.loss_rate, 0.0);
}

/// Makes `entity` drop exactly the next ping it receives.
void drop_next_ping(TracingHarness& h, TracedEntity& entity) {
  const std::uint64_t received = entity.stats().pings_received;
  entity.set_responsive(false);
  while (entity.stats().pings_received == received) {
    h.net.run_for(1 * kMillisecond);
  }
  entity.set_responsive(true);
}

TEST(EndToEndTest, NetworkMetricsCountDroppedPings) {
  TracingHarness h;
  auto entity = h.make_entity("svc-lossy");
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());

  auto tracker = h.make_tracker("loss-watcher");
  double max_loss = 0;
  ASSERT_TRUE(h.track(*tracker, "svc-lossy", kCatNetworkMetrics,
                      [&](const TracePayload& p, const pubsub::Message&) {
                        if (p.metrics) {
                          max_loss = std::max(max_loss, p.metrics->loss_rate);
                        }
                      })
                  .is_ok());
  h.net.run_for(500 * kMillisecond);
  ASSERT_EQ(max_loss, 0.0);

  // Two pings dropped, the rest answered: the window reports the loss.
  drop_next_ping(h, *entity);
  drop_next_ping(h, *entity);
  h.net.run_for(600 * kMillisecond);
  EXPECT_GT(max_loss, 0.0);
}

TEST(EndToEndTest, OneLostPingKeepsTheSteadyPingRate) {
  TracingHarness h;
  auto entity = h.make_entity("svc-steady");
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());
  h.net.run_for(500 * kMillisecond);

  const auto& stats = h.services[0]->stats();
  std::uint64_t before = stats.pings_sent;
  h.net.run_for(1 * kSecond);
  const std::uint64_t steady = stats.pings_sent - before;
  ASSERT_GE(steady, 9u);

  // One lost ping is one miss: the interval halves once and relaxes on
  // the next answer, instead of every later tick counting a miss.
  drop_next_ping(h, *entity);
  before = stats.pings_sent;
  h.net.run_for(1 * kSecond);
  const std::uint64_t after_loss = stats.pings_sent - before;
  EXPECT_LE(after_loss, steady + 1);
  EXPECT_GE(after_loss + 1, steady);
}

TEST(EndToEndTest, OnlyTheHostingBrokerMintsASession) {
  // Regression: the registration subscription must not propagate, or every
  // broker in the overlay creates a phantom session (with phantom pings,
  // duplicate traces and spurious failure detection).
  TracingHarness h(/*broker_count=*/3);
  auto entity = h.make_entity("svc-single-home", /*broker_index=*/1);
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());
  h.net.run_for(500 * kMillisecond);
  EXPECT_EQ(h.services[0]->active_sessions(), 0u);
  EXPECT_EQ(h.services[1]->active_sessions(), 1u);
  EXPECT_EQ(h.services[2]->active_sessions(), 0u);
  EXPECT_EQ(h.services[0]->stats().registrations, 0u);
  EXPECT_EQ(h.services[2]->stats().registrations, 0u);

  // And a remote tracker sees each state transition exactly once.
  auto tracker = h.make_tracker("dedup-check", 2);
  int ready_count = 0;
  ASSERT_TRUE(h.track(*tracker, "svc-single-home", kCatStateTransitions,
                      [&](const TracePayload& p, const pubsub::Message&) {
                        if (p.type == TraceType::kReady) ++ready_count;
                      })
                  .is_ok());
  entity->set_state(EntityState::kReady);
  h.net.run_for(300 * kMillisecond);
  EXPECT_EQ(ready_count, 1);
}

TEST(EndToEndTest, ReRegistrationReplacesSession) {
  TracingHarness h;
  auto entity = h.make_entity("svc-again");
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());
  const Uuid first_session = entity->session_id();
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());
  // A fresh topic + session replaces the old one; broker holds exactly one.
  EXPECT_EQ(h.services[0]->active_sessions(), 1u);
  EXPECT_NE(entity->session_id(), first_session);
}

}  // namespace
}  // namespace et::tracing
