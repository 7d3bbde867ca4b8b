// The entity-side session engine (paper §3.1-§3.3, §4.2, §4.3, §6.3;
// DESIGN.md §11, §14).
//
// A traced client composes a pub/sub client and a discovery client and
// walks the paper's sequence:
//   1. create the trace topic `Availability/Traces/<id>` at a TDN
//      (credential + descriptor + discovery restrictions + lifetime) and
//      receive the signed advertisement;
//   2. register with its broker over a Registration constrained topic —
//      the request carries the advertisement and is signed to prove
//      private-key possession;
//   3. decrypt the hybrid-encrypted registration response (session id +
//      session key), subscribe to the ping topic;
//   4. mint the authorization token for a fresh delegate key pair and
//      deliver {token, delegate private key} to the broker over the
//      encrypted session channel — plus the secret trace key when
//      confidential traces are requested (§5.1) — and renew it before
//      the token expires. The pair is generated before step 2's request
//      goes out, so the entity is free to answer the broker's first
//      pings; a renewal generates its pair when it runs;
//   5. answer pings and push state/load reports, signing every message
//      (§4.2) or encrypting with the session key instead (§6.3 mode);
//   6. when the hosting broker goes silent, find a replacement at the TDN
//      and repeat 2-4 there (broker-silence failover, DESIGN.md §11).
//
// The roster is data, not a second code path. An empty roster is the
// paper's single entity: a RegistrationRequest on the Registration topic
// and ping responses with an empty liveness bitmap. A non-empty roster
// (co-hosted entities, §14) names every member in one
// BatchRegistrationRequest on the RegistrationBatch topic, shares one
// session and one delegation, and packs the members' responsiveness into
// each ping response's liveness bitmap (bit i = roster member i), which
// the broker fans back out into per-member traces.
//
// TracedEntity (a roster of none) and EntityHost (a roster of members)
// are the public faces of this engine.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/crypto/credential.h"
#include "src/crypto/secret_key.h"
#include "src/discovery/discovery_client.h"
#include "src/pubsub/client.h"
#include "src/tracing/authorization_token.h"
#include "src/tracing/config.h"
#include "src/tracing/registration.h"
#include "src/tracing/trace_message.h"

namespace et::tracing {

/// Counters for tests/benches.
struct EntitySessionStats {
  std::uint64_t pings_received = 0;
  std::uint64_t pings_answered = 0;
  std::uint64_t reports_sent = 0;       // state/load reports
  std::uint64_t registrations = 0;      // completed (re-)registrations
  std::uint64_t failover_attempts = 0;  // find_broker rounds started
  std::uint64_t failovers = 0;          // completed re-registrations
};

class EntitySession {
 public:
  using ReadyCallback = std::function<void(const Status&)>;

  EntitySession(const EntitySession&) = delete;
  EntitySession& operator=(const EntitySession&) = delete;

  /// Links the discovery client to a TDN.
  void attach_tdn(transport::NodeId tdn, const transport::LinkParams& params);

  /// Connects the pub/sub client to a broker.
  void connect_broker(transport::NodeId broker,
                      const transport::LinkParams& params);

  /// §3.3 "disable tracing": tells the broker to publish
  /// REVERTING_TO_SILENT_MODE and drop the session.
  void stop_tracing();

  /// Abrupt departure: severs the broker link without notice. The hosting
  /// broker publishes DISCONNECT (per roster member) when it next fails to
  /// reach us.
  void disconnect();

  /// True while hunting for a replacement broker after the hosting broker
  /// went silent (TracingConfig::broker_silence_timeout). One failover
  /// re-homes the whole roster: one find_broker round, one
  /// re-registration, one re-minted delegation.
  [[nodiscard]] bool failing_over() const { return failing_over_; }

  [[nodiscard]] const Uuid& trace_topic() const { return trace_topic_; }
  [[nodiscard]] const Uuid& session_id() const { return session_id_; }
  [[nodiscard]] bool tracing_active() const { return active_; }
  [[nodiscard]] const discovery::TopicAdvertisement& advertisement() const {
    return advertisement_;
  }
  [[nodiscard]] const EntitySessionStats& stats() const { return stats_; }
  [[nodiscard]] pubsub::Client& client() { return client_; }

 protected:
  EntitySession(transport::NetworkBackend& backend, crypto::Identity identity,
                TracingConfig config, std::uint64_t seed);

  /// Cancels the engine's timers; member clients detach their nodes.
  ~EntitySession();

  /// Runs steps 1-4 for `roster` (empty: the single entity itself).
  /// Liveness bitmap bit i refers to roster[i] until the next start().
  /// `restrictions` controls who may discover the trace topic. `on_ready`
  /// fires once the delegation is delivered (or with the first error).
  /// Starting again replaces the previous registration.
  void start(discovery::DiscoveryRestrictions restrictions,
             std::vector<std::string> roster, ReadyCallback on_ready);

  /// Re-delegates immediately: fresh delegate key pair + token delivered
  /// to the broker (§4.3 token renewal). Runs automatically near expiry
  /// when TracingConfig::auto_renew_tokens is set.
  void renew_token();

  /// Reports a state transition (broker republishes on StateTransitions).
  void set_state(EntityState state);

  /// Reports load (broker republishes on Load).
  void report_load(const LoadInfo& load);

  /// Failure injection for the whole session: while false, pings are
  /// swallowed, which drives the broker's suspicion/failure escalation
  /// for every member at once.
  void set_all_responsive(bool responsive);

  /// Failure injection for one roster member: while false, its liveness
  /// bit stays clear, driving per-member escalation at the broker while
  /// the rest of the roster keeps reporting healthy.
  void set_member_responsive(const std::string& member_id, bool responsive);

  /// Bench hook: a pre-generated delegate key pair reused instead of
  /// minting a fresh one per delegation. Must be called before start().
  void set_delegate_keys(crypto::RsaKeyPair keys);

  [[nodiscard]] const std::string& id() const { return identity_.id; }
  [[nodiscard]] std::size_t roster_size() const { return roster_.size(); }
  [[nodiscard]] EntityState state() const { return state_; }

 private:
  void register_with_broker(ReadyCallback on_ready);
  void on_registration_response(const pubsub::Message& m);
  /// A fresh delegate pair (or the preset one, see set_delegate_keys).
  crypto::RsaKeyPair mint_delegate();
  void deliver_delegation(const crypto::RsaKeyPair& delegate,
                          ReadyCallback on_ready);
  void on_ping(const pubsub::Message& m);
  /// Records `state` and reports it if a session is up (client context).
  void report_state(EntityState state);
  // Broker-silence failover (DESIGN.md §11). All run in the client context.
  void arm_watchdog();
  void on_watchdog();
  void begin_failover();
  void attempt_failover();
  void failover_backoff();
  void finish_failover();
  /// Sends a session message, authenticated per the configured mode.
  /// Token/key deliveries are always encrypted regardless of mode.
  void send_session_message(const SessionMessage& sm, bool force_encrypt);

  transport::NetworkBackend& backend_;
  crypto::Identity identity_;
  TracingConfig config_;
  Rng rng_;
  pubsub::Client client_;
  discovery::DiscoveryClient disc_;

  discovery::TopicAdvertisement advertisement_;
  Uuid trace_topic_;
  Uuid session_id_;
  crypto::SecretKey session_key_;
  crypto::SecretKey trace_key_;
  std::optional<crypto::RsaKeyPair> preset_delegate_;
  /// Delegate pair minted with the registration in flight (§4.3); its
  /// token is signed and sent once the session exists.
  crypto::RsaKeyPair registration_delegate_;
  std::vector<std::string> roster_;         // registration order
  std::vector<std::uint8_t> member_live_;  // parallel to roster_
  std::uint64_t registration_request_id_ = 0;
  /// Completion callback of the registration in flight; consumed exactly
  /// once per attempt (re-registration replaces it).
  ReadyCallback pending_ready_;
  bool registration_subscribed_ = false;
  std::uint64_t sequence_ = 0;
  transport::TimerId renewal_timer_ = 0;
  bool active_ = false;
  bool responsive_ = true;
  EntityState state_ = EntityState::kInitializing;
  /// Counts set_state() calls, so a post-failover RECOVERING dwell never
  /// overwrites a state reported after it began.
  std::uint64_t state_gen_ = 0;
  // Failover state. `failover_gen_` versions the in-flight attempt so
  // stale discovery/connect/registration callbacks are ignored.
  transport::LinkParams broker_params_{};
  TimePoint last_broker_activity_ = 0;
  transport::TimerId watchdog_timer_ = 0;
  transport::TimerId failover_timer_ = 0;  // backoff, attempt timeout or dwell
  bool failing_over_ = false;
  std::uint64_t failover_gen_ = 0;
  RetryState failover_retry_ = RetryState(RetryPolicy::none(), 0);
  EntitySessionStats stats_;
};

}  // namespace et::tracing
