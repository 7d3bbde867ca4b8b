// Network-wide enforcement of trace authorization (paper §4.3/§5.2).
//
// Every broker in a tracing deployment installs this filter. Messages on
// trace-publication topics (/Constrained/Traces/Broker/Publish-Only/...)
// must carry an authorization token that
//   * chains to the TDN-signed advertisement and the CA,
//   * names the same trace topic the message is published on,
//   * grants publish rights and is within its validity window, and
//   * whose delegate key verifies the message signature.
// Anything else is discarded and counted as misbehaviour of the sending
// peer — repeated offences get the peer disconnected by the broker.
//
// Installation — the only path is filling in Broker::Options before the
// broker exists:
//
//   pubsub::Broker::Options opts{.name = "broker-0"};
//   auto handle = install_trace_filter(opts, anchors, net, config);
//   pubsub::Broker broker(net, std::move(opts));
//
// The installed filter is the *batched pipeline*: it performs only the
// cheap gates inline (topic grammar, token presence), defers the message
// into a VerifyPipeline and resolves it through the broker's
// deferred-verdict hooks — see verify_pipeline.h for the batching,
// ordering and determinism rules. The returned TraceFilterHandle is the
// one place to observe the broker's per-hop verification: filter verdict
// counters, the token cache and its hit rates, and the pipeline's
// batch-stage counters.
//
// make_trace_filter() builds the *inline* reference filter — the same
// gates, then verify_traces() on a batch of one, no deferral — which
// benches compare the pipeline against and tests use to exercise
// verification without a running overlay.
#pragma once

#include <memory>

#include "src/common/stats.h"
#include "src/pubsub/broker.h"
#include "src/tracing/config.h"
#include "src/tracing/token_verify_cache.h"
#include "src/tracing/verify_pipeline.h"

namespace et::tracing {

/// One consistent read of a trace filter's counters.
struct TraceFilterStats {
  std::uint64_t passthrough = 0;  // non-trace topics (other rules apply)
  std::uint64_t checked = 0;      // trace publications inspected
  std::uint64_t accepted = 0;     // full verification (or cache) passed
  std::uint64_t rejected = 0;     // discarded as unauthorized/invalid
};

namespace internal {
/// Live counters shared between the filter closure and its handle.
struct FilterCounters {
  RelaxedCounter passthrough;
  RelaxedCounter checked;
  RelaxedCounter accepted;
  RelaxedCounter rejected;

  [[nodiscard]] TraceFilterStats snapshot() const {
    return {passthrough.get(), checked.get(), accepted.get(),
            rejected.get()};
  }
};
}  // namespace internal

/// Handle returned by install_trace_filter: one place to observe a
/// broker's per-hop verification (filter verdict counters + the token
/// cache and its hit rates + the verification pipeline's batch counters).
/// Copyable; default-constructed handles read as empty. The cache pointer
/// is nullptr when the config disables caching.
class TraceFilterHandle {
 public:
  TraceFilterHandle() = default;
  TraceFilterHandle(std::shared_ptr<TokenVerifyCache> cache,
                    std::shared_ptr<internal::FilterCounters> counters,
                    std::shared_ptr<VerifyPipeline> pipeline = nullptr)
      : cache_(std::move(cache)),
        counters_(std::move(counters)),
        pipeline_(std::move(pipeline)) {}

  /// The broker's token-verification cache (nullptr when disabled).
  [[nodiscard]] const std::shared_ptr<TokenVerifyCache>& cache() const {
    return cache_;
  }

  /// Cache counters; zeros when caching is disabled. Safe from any thread
  /// (relaxed atomics).
  [[nodiscard]] TokenCacheStats cache_stats() const {
    return cache_ ? cache_->stats() : TokenCacheStats{};
  }

  /// Filter verdict counters; safe from any thread. For messages the
  /// pipeline defers, accepted/rejected tick when the verdict is applied,
  /// not at admission — quiesce (pipeline()->idle()) before asserting
  /// exact totals.
  [[nodiscard]] TraceFilterStats stats() const {
    return counters_ ? counters_->snapshot() : TraceFilterStats{};
  }

  /// Batch-stage counters; zeros when this handle observes an inline
  /// filter. Safe from any thread.
  [[nodiscard]] VerifyPipelineStats pipeline_stats() const {
    return pipeline_ ? pipeline_->stats() : VerifyPipelineStats{};
  }

  /// The verification pipeline (nullptr for inline filters) — tests poll
  /// pipeline()->idle() to synchronize with deferred verdicts.
  [[nodiscard]] const std::shared_ptr<VerifyPipeline>& pipeline() const {
    return pipeline_;
  }

  /// True when this handle observes an installed filter.
  [[nodiscard]] explicit operator bool() const { return counters_ != nullptr; }

 private:
  std::shared_ptr<TokenVerifyCache> cache_;
  std::shared_ptr<internal::FilterCounters> counters_;
  std::shared_ptr<VerifyPipeline> pipeline_;
};

/// Builds the inline (reference) filter; `backend` supplies the
/// verification clock. `cache` may be nullptr (every message pays the
/// full chain); it must outlive the filter and, like the broker it
/// serves, is touched only from that broker's node context.
pubsub::MessageFilter make_trace_filter(
    const TrustAnchors& anchors, transport::NetworkBackend& backend,
    std::shared_ptr<TokenVerifyCache> cache = nullptr);

/// Fills `options.message_filter` with the pipeline-backed trace filter
/// for a broker about to be constructed on `backend`, with a token cache
/// of `config.verification.cache_capacity` entries. `on_verdict`, when
/// given, sees every trace publication's verdict (inline gate rejections
/// and deferred outcomes alike) in the broker's node context. Returns the
/// stats handle.
TraceFilterHandle install_trace_filter(
    pubsub::Broker::Options& options, const TrustAnchors& anchors,
    transport::NetworkBackend& backend, const TracingConfig& config = {},
    VerifyPipeline::VerdictHook on_verdict = {});

}  // namespace et::tracing
