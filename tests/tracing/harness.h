// Shared test fixture assembling a complete tracing deployment on the
// deterministic virtual-time backend: CA, TDN, broker chain with tracing
// services and trace filters, plus factory helpers for entities/trackers.
//
// Uses 512-bit RSA keys to keep the suite fast; the protocol logic is key
// size independent.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/crypto/credential.h"
#include "src/discovery/discovery_client.h"
#include "src/discovery/tdn.h"
#include "src/pubsub/topology.h"
#include "src/tracing/config.h"
#include "src/tracing/entity_host.h"
#include "src/tracing/trace_filter.h"
#include "src/tracing/traced_entity.h"
#include "src/tracing/tracing_broker.h"
#include "src/tracing/tracker.h"
#include "src/transport/virtual_network.h"

namespace et::tracing::testing {

inline constexpr std::size_t kTestKeyBits = 512;

/// The two traced-client kinds, for tests that run over both.
enum class ClientKind { kEntity, kHost };

/// A traced client of either kind, driven through the EntitySession API
/// both share. Exactly one of `entity` / `host` is set.
struct TracedClient {
  std::unique_ptr<TracedEntity> entity;
  std::unique_ptr<EntityHost> host;
  /// The host's roster (empty for an entity).
  std::vector<std::string> members;

  EntitySession* operator->() const {
    return entity ? static_cast<EntitySession*>(entity.get()) : host.get();
  }
};

/// A ready-to-use deployment.
class TracingHarness {
 public:
  explicit TracingHarness(std::size_t broker_count = 1,
                          TracingConfig config = fast_config(),
                          std::uint64_t seed = 1234)
      : net(seed),
        rng(seed),
        ca("test-ca", rng, kTestKeyBits),
        config_(config) {
    // TDN identity + node.
    crypto::Identity tdn_identity =
        crypto::Identity::create("tdn-0", ca, rng, net.now(),
                                 3600 * kSecond, kTestKeyBits);
    anchors.ca_key = ca.public_key();
    anchors.tdn_key = tdn_identity.keys.public_key;
    tdn = std::make_unique<discovery::Tdn>(net, std::move(tdn_identity),
                                           ca.public_key(), seed + 1);

    // Broker chain with tracing services and filters everywhere. Filters
    // ride the construction path: install_trace_filter fills the broker
    // Options before each broker is built.
    topology = std::make_unique<pubsub::Topology>(net);
    brokers = topology->make_chain(
        broker_count, link(), "broker", [&](const std::string& name) {
          pubsub::Broker::Options o;
          o.name = name;
          filters.push_back(install_trace_filter(o, anchors, net, config_));
          token_caches.push_back(filters.back().cache());
          return o;
        });
    for (std::size_t i = 0; i < brokers.size(); ++i) {
      services.push_back(std::make_unique<TracingBrokerService>(
          *brokers[i], anchors, config_, seed + 100 + i));
    }
  }

  /// Fast-turnaround config for tests.
  static TracingConfig fast_config() {
    TracingConfig c;
    c.ping_interval = 100 * kMillisecond;
    c.min_ping_interval = 20 * kMillisecond;
    c.gauge_interval = 300 * kMillisecond;
    c.metrics_interval = 250 * kMillisecond;
    c.delegate_key_bits = kTestKeyBits;
    return c;
  }

  /// Default low-latency link for tests.
  static transport::LinkParams link() {
    transport::LinkParams p = transport::LinkParams::ideal_profile();
    p.base_latency = 1 * kMillisecond;
    return p;
  }

  /// Enrolls every broker in the TDN's registry so find_broker (and hence
  /// entity failover) can discover them. Keeps the registrar client alive
  /// for the harness lifetime.
  void register_brokers() {
    registrar = std::make_unique<discovery::DiscoveryClient>(
        net, make_identity("registrar"));
    registrar->attach_tdn(tdn->node(), link());
    for (pubsub::Broker* b : brokers) {
      registrar->register_broker(b->name(), b->node(),
                                 make_identity(b->name()).credential);
    }
    net.run_for(20 * kMillisecond);
  }

  crypto::Identity make_identity(const std::string& id) {
    return crypto::Identity::create(id, ca, rng, net.now(), 3600 * kSecond,
                                    kTestKeyBits);
  }

  // NOTE: the deployment contains self-rescheduling timers (pings,
  // gauges), so run_until_idle would never return once a session exists.
  // All helpers advance bounded virtual time with run_for instead.

  /// Entity attached to `broker_index`, TDN wired.
  std::unique_ptr<TracedEntity> make_entity(const std::string& id,
                                            std::size_t broker_index = 0) {
    auto e = std::make_unique<TracedEntity>(net, make_identity(id), anchors,
                                            config_, rng.next_u64());
    e->attach_tdn(tdn->node(), link());
    e->connect_broker(brokers.at(broker_index)->node(), link());
    net.run_for(20 * kMillisecond);
    return e;
  }

  /// Client of `kind` attached to `broker_index`, TDN wired. A host named
  /// `<id>` carries the two-member roster `<id>-m0`, `<id>-m1`; trackers
  /// follow either kind by tracking `<id>`.
  TracedClient make_client(ClientKind kind, crypto::Identity identity,
                           std::size_t broker_index = 0) {
    TracedClient c;
    if (kind == ClientKind::kEntity) {
      c.entity = std::make_unique<TracedEntity>(net, std::move(identity),
                                                anchors, config_,
                                                rng.next_u64());
    } else {
      c.members = {identity.id + "-m0", identity.id + "-m1"};
      c.host = std::make_unique<EntityHost>(net, std::move(identity), anchors,
                                            config_, rng.next_u64());
    }
    c->attach_tdn(tdn->node(), link());
    c->connect_broker(brokers.at(broker_index)->node(), link());
    net.run_for(20 * kMillisecond);
    return c;
  }
  TracedClient make_client(ClientKind kind, const std::string& id,
                           std::size_t broker_index = 0) {
    return make_client(kind, make_identity(id), broker_index);
  }

  /// Tracker attached to `broker_index`, TDN wired.
  std::unique_ptr<Tracker> make_tracker(const std::string& id,
                                        std::size_t broker_index = 0) {
    auto t = std::make_unique<Tracker>(net, make_identity(id), anchors,
                                       rng.next_u64());
    t->attach_tdn(tdn->node(), link());
    t->connect_broker(brokers.at(broker_index)->node(), link());
    net.run_for(20 * kMillisecond);
    return t;
  }

  /// Runs start_tracing to completion; returns the outcome.
  Status start_tracing(TracedEntity& e,
                       discovery::DiscoveryRestrictions restrictions = {}) {
    return await_ready([&](EntitySession::ReadyCallback cb) {
      e.start_tracing(std::move(restrictions), std::move(cb));
    });
  }

  /// Runs start_tracing (entity) or register_entities (host) to
  /// completion; returns the outcome.
  Status start_tracing(TracedClient& c,
                       discovery::DiscoveryRestrictions restrictions = {}) {
    if (c.entity) return start_tracing(*c.entity, std::move(restrictions));
    return await_ready([&](EntitySession::ReadyCallback cb) {
      c.host->register_entities(std::move(restrictions), c.members,
                                std::move(cb));
    });
  }

  /// Runs track() to completion; returns the outcome.
  Status track(Tracker& t, const std::string& entity_id,
               std::uint8_t categories, Tracker::TraceHandler handler) {
    Status out = internal_error("callback never ran");
    bool done = false;
    t.track(entity_id, categories, std::move(handler), [&](const Status& s) {
      out = s;
      done = true;
    });
    for (int i = 0; i < 100 && !done; ++i) net.run_for(50 * kMillisecond);
    // Let the unsolicited interest response reach the hosting broker.
    net.run_for(20 * kMillisecond);
    return out;
  }

  transport::VirtualTimeNetwork net;
  Rng rng;
  crypto::CertificateAuthority ca;
  TrustAnchors anchors;
  std::unique_ptr<discovery::Tdn> tdn;
  std::unique_ptr<discovery::DiscoveryClient> registrar;
  std::unique_ptr<pubsub::Topology> topology;
  std::vector<pubsub::Broker*> brokers;
  std::vector<std::unique_ptr<TracingBrokerService>> services;
  /// Per-broker trace-filter handles (parallel to `brokers`).
  std::vector<TraceFilterHandle> filters;
  /// Per-broker token-verification caches (parallel to `brokers`; entries
  /// are nullptr when the config disables caching).
  std::vector<std::shared_ptr<TokenVerifyCache>> token_caches;

 private:
  /// Starts an operation that reports completion to a ReadyCallback and
  /// runs virtual time until it does (or ~5 s pass).
  Status await_ready(
      const std::function<void(EntitySession::ReadyCallback)>& begin) {
    Status out = internal_error("callback never ran");
    bool done = false;
    begin([&](const Status& s) {
      out = s;
      done = true;
    });
    for (int i = 0; i < 100 && !done; ++i) net.run_for(50 * kMillisecond);
    return out;
  }

  TracingConfig config_;
};

}  // namespace et::tracing::testing
