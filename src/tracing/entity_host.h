// The entity-host client (DESIGN.md §14): batch-first registration for
// co-hosted entities.
//
// A host process running many entities (a container runtime, an actor
// system, a service mesh sidecar) registers them with ONE round-trip: one
// trace topic `Availability/Traces/<host-id>`, one signed
// BatchRegistrationRequest naming every member, one session and ONE
// delegation covering the whole roster — the re-mint round-trips collapse
// from O(entities) to O(1) per host. Each ping response carries the
// roster's liveness bitmap, which the broker fans back out into
// per-member observations (coalesced into digests when enabled), so
// trackers keep exact per-entity semantics.
//
// The protocol lives in EntitySession (entity_session.h); an EntityHost is
// a session whose roster is its members.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "src/tracing/entity_session.h"

namespace et::tracing {

class EntityHost : public EntitySession {
 public:
  /// `anchors` is accepted for interface stability; the client verifies
  /// nothing against it.
  EntityHost(transport::NetworkBackend& backend, crypto::Identity identity,
             TrustAnchors /*anchors*/, TracingConfig config,
             std::uint64_t seed)
      : EntitySession(backend, std::move(identity), config, seed) {}

  /// Bench hook: pre-generated delegate key pair to reuse instead of
  /// minting a fresh one per delegation. RSA keygen dominates setup time
  /// at bench scale and is not what E16 measures. Must be called before
  /// register_entities(); production callers should not use it (a fresh
  /// delegate pair per delegation is the §4.3 hygiene).
  using EntitySession::set_delegate_keys;

  /// Registers `entity_ids` as one roster (the batch registration order —
  /// liveness bitmap bit i refers to entity_ids[i] forever after).
  /// `restrictions` controls who may discover the host topic. `on_ready`
  /// fires once the delegation is delivered (or with the first error).
  /// Registering again replaces the previous roster.
  void register_entities(discovery::DiscoveryRestrictions restrictions,
                         std::vector<std::string> entity_ids,
                         ReadyCallback on_ready) {
    start(std::move(restrictions), std::move(entity_ids),
          std::move(on_ready));
  }

  /// Failure injection for one member: while false, its liveness bit
  /// stays clear, driving per-member suspicion/failure at the broker
  /// while the rest of the roster keeps reporting healthy.
  void set_responsive(const std::string& entity_id, bool responsive) {
    set_member_responsive(entity_id, responsive);
  }

  /// Failure injection for the whole host: while false, pings are
  /// swallowed entirely (hung host), driving whole-roster escalation.
  using EntitySession::set_all_responsive;

  [[nodiscard]] const std::string& host_id() const { return id(); }
  [[nodiscard]] std::size_t entity_count() const { return roster_size(); }
};

}  // namespace et::tracing
