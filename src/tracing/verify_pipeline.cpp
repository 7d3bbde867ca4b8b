#include "src/tracing/verify_pipeline.h"

#include <iterator>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/crypto/fingerprint.h"
#include "src/crypto/rsa.h"
#include "src/tracing/authorization_token.h"

namespace et::tracing {

namespace {

// May this rejection be replayed for a byte-identical resend? Signature
// -chain failures (unauthenticated / permission-denied) are deterministic
// over the bytes and the (fixed) trust anchors. Of the time-dependent
// kExpired rejections only a lapsed token window is monotonic — a
// not-yet-valid token or a transiently out-of-window credential must be
// re-verified later, so those are never cached.
bool rejection_is_deterministic(const Status& s, const AuthorizationToken& t,
                                TimePoint now, Duration skew) {
  if (s.code() != Code::kExpired) return true;
  return now - skew >= t.valid_until();
}

// Malformed bytes are never cached: rejecting them is already cheap, and
// an attacker flooding garbage must not be able to thrash good entries
// out of the LRU.
Status parse_token(BytesView bytes, AuthorizationToken& out) {
  try {
    out = AuthorizationToken::deserialize(bytes);
  } catch (const SerializeError& e) {
    return unauthenticated(std::string("malformed token: ") + e.what());
  }
  return Status::ok();
}

/// Batch slice sharing one token fingerprint, in admission order.
struct Group {
  crypto::Fingerprint256 fp;
  std::vector<std::size_t> items;  // indices into the batch
};

}  // namespace

std::size_t verify_traces(std::span<const TraceCheck> batch,
                          const TrustAnchors& anchors,
                          TokenVerifyCache* cache, TimePoint now,
                          std::span<Status> verdicts) {
  std::vector<Group> groups;
  {
    std::unordered_map<crypto::Fingerprint256, std::size_t,
                       crypto::Fingerprint256Hash>
        by_fp;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const crypto::Fingerprint256 fp =
          crypto::fingerprint(batch[i].msg.auth_token);
      const auto [it, inserted] = by_fp.emplace(fp, groups.size());
      if (inserted) groups.push_back({fp, {}});
      groups[it->second].items.push_back(i);
    }
  }

  for (const Group& g : groups) {
    // Chain verdict, once per token: cache lookup, then parse + verify on
    // a miss, stored at once. A cached token pointer is used only before
    // the next group's lookup, so it never outlives its entry.
    const AuthorizationToken* token = nullptr;
    AuthorizationToken parsed;
    Status chain = Status::ok();
    const TokenVerifyCache::Lookup cached =
        cache ? cache->lookup(g.fp, now) : TokenVerifyCache::Lookup{};
    if (cached.kind == TokenVerifyCache::Lookup::Kind::kOk) {
      token = cached.token;
    } else if (cached.kind == TokenVerifyCache::Lookup::Kind::kRejected) {
      chain = cached.status;
    } else if (chain = parse_token(batch[g.items.front()].msg.auth_token,
                                   parsed);
               chain.is_ok()) {
      chain = parsed.verify(anchors.tdn_key, anchors.ca_key, now);
      if (chain.is_ok()) {
        token = cache && cache->capacity() > 0
                    ? cache->store_ok(g.fp, std::move(parsed), now)
                    : &parsed;
      } else if (cache && rejection_is_deterministic(chain, parsed, now,
                                                     kDefaultSkewAllowance)) {
        cache->store_rejected(g.fp, chain, now);
      }
    }
    if (token == nullptr) {
      for (const std::size_t i : g.items) verdicts[i] = chain;
      continue;
    }

    // Per-message checks, on cache hits too: they depend on the message,
    // not the token bytes alone. The topic string and the rights check
    // are computed once per group.
    const std::string topic = token->trace_topic().to_string();
    const bool rights_ok = token->rights() == TokenRights::kPublish;
    const crypto::RsaPublicKey& key = token->delegate_key();
    for (const std::size_t i : g.items) {
      const pubsub::MessageView& m = batch[i].msg;
      if (!rights_ok) {
        verdicts[i] = permission_denied("token does not grant publish rights");
      } else if (batch[i].expected_topic != topic) {
        verdicts[i] = permission_denied("token is for a different trace topic");
      } else if (!key.verify(m.signable_bytes(), m.signature)) {
        verdicts[i] =
            unauthenticated("trace message not signed by the delegate key");
      } else {
        verdicts[i] = Status::ok();
      }
    }
  }
  return groups.size();
}

VerifyPipeline::VerifyPipeline(TrustAnchors anchors,
                               transport::NetworkBackend& backend,
                               std::shared_ptr<TokenVerifyCache> cache,
                               VerdictHook on_verdict)
    : anchors_(std::move(anchors)),
      backend_(backend),
      cache_(std::move(cache)),
      on_verdict_(std::move(on_verdict)) {}

void VerifyPipeline::admit(pubsub::Broker& self, pubsub::Message m,
                           std::string expected_topic,
                           transport::NodeId from) {
  if (broker_ == nullptr) {  // node context: no publication precedes this
    broker_ = &self;
    node_ = self.node();
  }
  counters_.queued.inc();
  std::unique_lock<std::mutex> lock(mu_);
  queue_.push_back({std::move(m), from, std::move(expected_topic)});
  maybe_start_drain(lock);
}

void VerifyPipeline::maybe_start_drain(std::unique_lock<std::mutex>& lock) {
  if (queue_.empty() || drain_active_) return;
  // Drain as soon as the stage is idle. The task runs after publications
  // already delivered to this node, so arrivals at one virtual timestamp
  // (or while the task waits in real time) verify as one batch.
  drain_active_ = true;
  lock.unlock();
  backend_.post(node_, [this] { drain(); });
}

void VerifyPipeline::drain() {
  std::vector<Pending> batch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    counters_.max_drain_depth.observe(queue_.size());
    batch.assign(std::make_move_iterator(queue_.begin()),
                 std::make_move_iterator(queue_.end()));
    queue_.clear();
  }
  counters_.drains.inc();
  counters_.batched.inc(batch.size());

  std::vector<TraceCheck> checks;
  checks.reserve(batch.size());
  for (const Pending& p : batch) {
    checks.push_back({p.msg.as_view(), p.expected_topic});
  }
  std::vector<Status> verdicts(batch.size());
  const std::size_t groups = verify_traces(checks, anchors_, cache_.get(),
                                           backend_.now(), verdicts);
  counters_.keys_deduped.inc(batch.size() - groups);

  // Verdicts land in admission order, so an accepted trace can never be
  // overtaken by one admitted after it.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (on_verdict_) on_verdict_(verdicts[i]);
    if (verdicts[i].is_ok()) {
      broker_->release_deferred(std::move(batch[i].msg), batch[i].from);
    } else {
      broker_->reject_deferred(batch[i].from, verdicts[i]);
    }
  }
  std::unique_lock<std::mutex> lock(mu_);
  drain_active_ = false;
  maybe_start_drain(lock);  // anything admitted while we applied
}

bool VerifyPipeline::idle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.empty() && !drain_active_;
}

}  // namespace et::tracing
