// Batched per-hop verification pipeline (paper §4.3/§5.2, DESIGN.md §10).
//
// The per-hop check is one rule: the token chains to the TDN and the CA,
// grants publish rights on the trace topic the message names, and its
// delegate key signed the message. verify_traces() is that rule, over a
// batch: it groups the batch by token fingerprint, resolves the chain
// once per group (through the TokenVerifyCache when one is given) and
// checks the group's signatures against the token's delegate key, whose
// Montgomery context was built once when the token was parsed, so a burst
// of traces from one hosting broker pays the per-key setup once instead of
// once per message. The inline reference filter calls it on a batch of one.
//
// The trace filter installed by install_trace_filter does not verify on
// the spot: it *admits* trace publications into a per-broker queue and
// answers FilterVerdict::defer(). A drain posted to the broker's node
// context takes the whole queue, runs verify_traces() on it and applies
// the verdicts in admission order: accepted messages re-enter routing via
// Broker::release_deferred, rejections go through Broker::reject_deferred
// and get the same misbehaviour accounting an inline rejection would.
//
// Ordering: the queue is FIFO and at most one drain is in flight at a
// time, so messages are released in exactly their admission order —
// grouping by key reorders *verification work*, never *delivery*.
//
// Scheduling: the first admission into an idle stage posts a drain; on
// VirtualTimeNetwork it runs at the same virtual timestamp, after every
// publication already delivered there, so same-timestamp arrivals verify
// as one batch and runs are bit-for-bit repeatable. In real time,
// admissions that arrive while a drain is queued join its batch
// (group-commit style) and sparse traffic pays only the dispatch hop.
//
// Threading: admit() and the drains run in the broker's node context,
// which is also the only context that touches the token cache. stats()
// and idle() are safe from any thread. Like packet handlers, drain tasks
// reference the broker: stop the network before destroying it.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>

#include "src/common/stats.h"
#include "src/pubsub/broker.h"
#include "src/tracing/config.h"
#include "src/tracing/token_verify_cache.h"
#include "src/transport/network.h"

namespace et::tracing {

/// One trace publication for verify_traces(): the message, and the
/// trace-topic UUID its publication topic names (the token must authorize
/// exactly it; empty when the topic names none).
struct TraceCheck {
  pubsub::MessageView msg;
  std::string_view expected_topic;
};

/// Writes the per-hop verdict of `batch[i]` to `verdicts[i]` (same size)
/// on the clock reading `now`. `cache` may be nullptr (every group runs
/// the full chain). Returns the number of distinct token groups.
std::size_t verify_traces(std::span<const TraceCheck> batch,
                          const TrustAnchors& anchors,
                          TokenVerifyCache* cache, TimePoint now,
                          std::span<Status> verdicts);

/// One consistent read of a pipeline's batch-stage counters.
struct VerifyPipelineStats {
  std::uint64_t queued = 0;        // messages admitted into the queue
  std::uint64_t drains = 0;        // drain passes run
  std::uint64_t batched = 0;       // messages taken off the queue in batches
  std::uint64_t keys_deduped = 0;  // messages that shared a batch key group
                                   // with an earlier member (chain + context
                                   // amortized away)
  std::uint64_t max_drain_depth = 0;  // deepest backlog a drain observed
};

namespace internal {
/// Live pipeline counters; relaxed atomics, readable from any thread.
struct PipelineCounters {
  RelaxedCounter queued;
  RelaxedCounter drains;
  RelaxedCounter batched;
  RelaxedCounter keys_deduped;
  RelaxedMaxGauge max_drain_depth;

  [[nodiscard]] VerifyPipelineStats snapshot() const {
    return {queued.get(), drains.get(), batched.get(), keys_deduped.get(),
            max_drain_depth.get()};
  }
};
}  // namespace internal

class VerifyPipeline {
 public:
  /// Per-verdict hook, invoked in the broker's node context right before
  /// the verdict is applied — install_trace_filter uses it to keep the
  /// filter's accepted/rejected counters in step with deferred outcomes.
  using VerdictHook = std::function<void(const Status& verdict)>;

  /// `cache` may be nullptr (every batch runs the full chain per key).
  VerifyPipeline(TrustAnchors anchors, transport::NetworkBackend& backend,
                 std::shared_ptr<TokenVerifyCache> cache,
                 VerdictHook on_verdict = {});

  VerifyPipeline(const VerifyPipeline&) = delete;
  VerifyPipeline& operator=(const VerifyPipeline&) = delete;

  /// Queues a trace publication whose cheap gates (topic grammar, token
  /// presence) already passed. Must run in `self`'s node context — the
  /// caller is the broker's message filter, which just answered kDefer
  /// for this message. `expected_topic` is as in TraceCheck. A pipeline
  /// instance serves one broker for its whole lifetime.
  void admit(pubsub::Broker& self, pubsub::Message m,
             std::string expected_topic, transport::NodeId from);

  /// Batch-stage counters; safe from any thread.
  [[nodiscard]] VerifyPipelineStats stats() const {
    return counters_.snapshot();
  }

  /// True when no message is queued and no drain is in flight. Real-time
  /// tests poll this (after stopping publishers) to know the backlog has
  /// fully resolved.
  [[nodiscard]] bool idle() const;

 private:
  struct Pending {
    pubsub::Message msg;
    transport::NodeId from = transport::kInvalidNode;
    std::string expected_topic;
  };

  /// Posts a drain if one should run now; called with `lock` held (it is
  /// released before the backend call).
  void maybe_start_drain(std::unique_lock<std::mutex>& lock);
  /// Takes the whole queue, verifies it and applies the verdicts in
  /// admission order. Node context only.
  void drain();

  const TrustAnchors anchors_;
  transport::NetworkBackend& backend_;
  const std::shared_ptr<TokenVerifyCache> cache_;
  const VerdictHook on_verdict_;

  pubsub::Broker* broker_ = nullptr;  // bound on first admit
  transport::NodeId node_ = transport::kInvalidNode;

  // Guards the queue and the flag only because idle() is read from other
  // threads; every writer runs in the node context.
  mutable std::mutex mu_;
  std::deque<Pending> queue_;
  bool drain_active_ = false;

  internal::PipelineCounters counters_;
};

}  // namespace et::tracing
