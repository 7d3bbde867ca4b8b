// The traced-entity client (paper §3.1/§3.2, §4.2, §4.3, §6.3): one
// entity tracing itself over the paper's single-entity wire format. The
// protocol lives in EntitySession (entity_session.h); a TracedEntity is a
// session with an empty roster plus the entity's own state reports.
#pragma once

#include <utility>

#include "src/tracing/entity_session.h"

namespace et::tracing {

class TracedEntity : public EntitySession {
 public:
  /// `anchors` is accepted for interface stability; the client verifies
  /// nothing against it.
  TracedEntity(transport::NetworkBackend& backend, crypto::Identity identity,
               TrustAnchors /*anchors*/, TracingConfig config,
               std::uint64_t seed)
      : EntitySession(backend, std::move(identity), config, seed) {}

  /// Mints the trace topic, registers and delegates (EntitySession steps
  /// 1-4). `restrictions` controls who may discover the trace topic.
  /// `on_ready` fires once the delegation is delivered (or with the first
  /// error).
  void start_tracing(discovery::DiscoveryRestrictions restrictions,
                     ReadyCallback on_ready) {
    start(std::move(restrictions), {}, std::move(on_ready));
  }

  using EntitySession::renew_token;
  using EntitySession::report_load;
  using EntitySession::set_state;
  using EntitySession::state;

  /// Failure injection: while false, pings are swallowed, which drives the
  /// broker's suspicion/failure escalation.
  void set_responsive(bool responsive) { set_all_responsive(responsive); }

  [[nodiscard]] const std::string& entity_id() const { return id(); }
};

}  // namespace et::tracing
