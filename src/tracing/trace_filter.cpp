#include "src/tracing/trace_filter.h"

#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace et::tracing {

namespace {

/// Is `topic` a trace publication these filters police? Returns the
/// trace-topic UUID it names — its first suffix segment, empty when it
/// has none (no token can match that) — or nullopt when other rules apply.
std::optional<std::string> trace_publication_topic(std::string_view topic) {
  auto ct = pubsub::ConstrainedTopic::parse(topic);
  if (!ct || ct->event_type != "Traces" || !ct->constrainer_is_broker() ||
      ct->allowed != pubsub::AllowedActions::kPublishOnly) {
    return std::nullopt;
  }
  return ct->suffixes.empty() ? std::string() : ct->suffixes.front();
}

Status missing_token() {
  return unauthenticated("trace message without authorization token");
}

}  // namespace

pubsub::MessageFilter make_trace_filter(
    const TrustAnchors& anchors, transport::NetworkBackend& backend,
    std::shared_ptr<TokenVerifyCache> cache) {
  return [anchors, &backend, cache = std::move(cache)](
             pubsub::Broker&, const pubsub::MessageView& m,
             transport::NodeId) -> pubsub::FilterVerdict {
    const std::optional<std::string> expected =
        trace_publication_topic(m.topic);
    if (!expected) return pubsub::FilterVerdict::accept();
    if (m.auth_token.empty()) {
      return pubsub::FilterVerdict::reject(missing_token());
    }
    const TraceCheck check{m, *expected};
    Status verdict;
    verify_traces({&check, 1}, anchors, cache.get(), backend.now(),
                  {&verdict, 1});
    if (!verdict.is_ok()) return pubsub::FilterVerdict::reject(verdict);
    return pubsub::FilterVerdict::accept();
  };
}

TraceFilterHandle install_trace_filter(pubsub::Broker::Options& options,
                                       const TrustAnchors& anchors,
                                       transport::NetworkBackend& backend,
                                       const TracingConfig& config,
                                       VerifyPipeline::VerdictHook on_verdict) {
  std::shared_ptr<TokenVerifyCache> cache;
  if (config.verification.cache_capacity > 0) {
    cache = std::make_shared<TokenVerifyCache>(
        config.verification.cache_capacity, kTokenCacheTtl);
  }
  auto counters = std::make_shared<internal::FilterCounters>();
  // Every trace verdict, inline or deferred, is counted and then shown to
  // the caller's hook.
  auto record = [counters, on_verdict = std::move(on_verdict)](
                    const Status& verdict) {
    (verdict.is_ok() ? counters->accepted : counters->rejected).inc();
    if (on_verdict) on_verdict(verdict);
  };
  auto pipeline =
      std::make_shared<VerifyPipeline>(anchors, backend, cache, record);

  // The filter does only the cheap gates inline; everything that costs an
  // RSA operation is deferred into the pipeline and resolved through the
  // broker's deferred-verdict hooks.
  options.message_filter = [counters, pipeline, record = std::move(record)](
                               pubsub::Broker& self,
                               const pubsub::MessageView& m,
                               transport::NodeId from)
      -> pubsub::FilterVerdict {
    std::optional<std::string> expected = trace_publication_topic(m.topic);
    if (!expected) {
      counters->passthrough.inc();
      return pubsub::FilterVerdict::accept();
    }
    counters->checked.inc();
    if (m.auth_token.empty()) {
      const Status verdict = missing_token();
      record(verdict);
      return pubsub::FilterVerdict::reject(verdict);
    }
    // The pipeline parks the message past this packet-handler call, so it
    // gets an owning copy — the one materialization on the deferred path.
    pipeline->admit(self, m.materialize(), std::move(*expected), from);
    return pubsub::FilterVerdict::defer();
  };
  return {std::move(cache), std::move(counters), std::move(pipeline)};
}

}  // namespace et::tracing
