#include "src/tracing/verify_pipeline.h"

#include <atomic>
#include <condition_variable>
#include <thread>
#include <unordered_map>
#include <utility>

#include "src/crypto/fingerprint.h"
#include "src/crypto/rsa.h"
#include "src/tracing/authorization_token.h"

namespace et::tracing {

namespace {

// May this rejection be replayed for a byte-identical resend? Same rule as
// the inline filter: signature-chain failures are deterministic over the
// bytes and the (fixed) trust anchors; of the time-dependent kExpired
// rejections only a definitively lapsed token window is monotonic.
bool rejection_is_deterministic(const Status& s, const AuthorizationToken& t,
                                TimePoint now, Duration skew) {
  if (s.code() != Code::kExpired) return true;
  return now - skew >= t.valid_until();
}

}  // namespace

/// One batch slice sharing a token fingerprint: the chain verdict, the
/// parsed token and the delegate-key verification context are computed
/// once for every message in `items`.
struct VerifyPipeline::Group {
  crypto::Fingerprint256 fp;
  std::vector<std::size_t> items;  // indices into the batch, admission order

  // Resolution state, written by verify_group (disjoint per group, so
  // groups may resolve on different pool workers):
  const AuthorizationToken* token = nullptr;  // cache entry or &parsed
  AuthorizationToken parsed;                  // cache-miss storage
  Status chain = Status::ok();                // per-key chain verdict
  bool from_cache = false;                    // token/chain came from cache
  bool store_ok = false;                      // commit positive entry
  bool cacheable_reject = false;              // commit negative entry
};

/// Drain worker pool: a mutex/condvar task queue drained by `threads`
/// joinable workers.
class VerifyPipeline::Pool {
 public:
  explicit Pool(int threads) {
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { loop(); });
    }
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  void submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      tasks_.push_back(std::move(task));
    }
    cv_.notify_one();
  }

 private:
  void loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
        if (stop_ && tasks_.empty()) return;
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
      task();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

VerifyPipeline::VerifyPipeline(TrustAnchors anchors,
                               transport::NetworkBackend& backend,
                               std::shared_ptr<TokenVerifyCache> cache,
                               TracingConfig::Verification config,
                               VerdictHook on_verdict)
    : anchors_(std::move(anchors)),
      backend_(backend),
      cache_(std::move(cache)),
      config_([&config] {
        if (config.batch_max == 0) config.batch_max = 1;
        return config;
      }()),
      on_verdict_(std::move(on_verdict)),
      concurrent_(backend.concurrent_dispatch()) {
  // Worker threads only make sense when the backend tolerates posts from
  // foreign threads; clamping (rather than rejecting) lets one config run
  // on both backends.
  pool_threads_ = concurrent_ && config_.threads > 0 ? config_.threads : 0;
  if (pool_threads_ > 0) pool_ = std::make_unique<Pool>(pool_threads_);
}

VerifyPipeline::~VerifyPipeline() {
  pool_.reset();  // joins workers; any in-flight drain completes first
}

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
  // Drain as soon as the stage is idle. Virtual time runs the task at the
  // same virtual timestamp, after any publications already enqueued
  // there, so same-timestamp arrivals still batch; in real time
  // everything admitted while this drain is busy forms the next batch.
  drain_active_ = true;
  lock.unlock();
  if (pool_) {
    pool_->submit([this] { run_drain(); });
  } else {
    backend_.post(node_, [this] { run_drain(); });
  }
}

void VerifyPipeline::run_drain() {
  std::vector<Pending> batch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    counters_.max_drain_depth.observe(queue_.size());
    // Real-time drains are bounded so the latency of the first message is
    // not hostage to a flood behind it; virtual-time drains take the whole
    // queue (time does not advance while we verify).
    const std::size_t take =
        concurrent_ ? std::min(queue_.size(), config_.batch_max)
                    : queue_.size();
    batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
  }
  counters_.drains.inc();
  counters_.batched.inc(batch.size());

  const TimePoint now = backend_.now();

  // Group the batch by token fingerprint. Admission order is preserved
  // both across the batch (verdicts index it) and within each group.
  std::vector<Group> groups;
  {
    std::unordered_map<crypto::Fingerprint256, std::size_t,
                       crypto::Fingerprint256Hash>
        by_fp;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const crypto::Fingerprint256 fp =
          crypto::fingerprint(batch[i].msg.auth_token);
      const auto [it, inserted] = by_fp.emplace(fp, groups.size());
      if (inserted) {
        groups.push_back(Group{});
        groups.back().fp = fp;
      }
      groups[it->second].items.push_back(i);
    }
  }
  counters_.keys_deduped.inc(batch.size() - groups.size());

  // Cache lookups stay on the coordinator: drains are serialized, so the
  // cache never sees two threads (see header). Entry pointers stay valid
  // across lookups of distinct fingerprints — stores are deferred below.
  if (cache_) {
    for (Group& g : groups) {
      const TokenVerifyCache::Lookup cached = cache_->lookup(g.fp, now);
      if (cached.kind == TokenVerifyCache::Lookup::Kind::kOk) {
        g.token = cached.token;
        g.from_cache = true;
      } else if (cached.kind == TokenVerifyCache::Lookup::Kind::kRejected) {
        g.chain = cached.status;
        g.from_cache = true;
      }
    }
  }

  // Resolve the groups — fanned out over the pool when it has spare
  // workers, with the coordinator pulling from the same index so it never
  // blocks on work it could do itself.
  std::vector<Status> verdicts(batch.size(), Status::ok());
  const std::size_t helpers =
      pool_threads_ > 1 && groups.size() > 1
          ? std::min<std::size_t>(static_cast<std::size_t>(pool_threads_) - 1,
                                  groups.size() - 1)
          : 0;
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (std::size_t i = 0; (i = next.fetch_add(1)) < groups.size();) {
      verify_group(groups[i], batch, verdicts, now);
    }
  };
  if (helpers == 0) {
    work();
  } else {
    std::mutex join_mu;
    std::condition_variable join_cv;
    std::size_t done = 0;
    for (std::size_t h = 0; h < helpers; ++h) {
      pool_->submit([&] {
        work();
        // Notify while holding the lock: the coordinator destroys these
        // stack-local join primitives as soon as its wait returns, so the
        // notify must complete before the mutex is released.
        std::lock_guard<std::mutex> lock(join_mu);
        ++done;
        join_cv.notify_one();
      });
    }
    work();
    std::unique_lock<std::mutex> lock(join_mu);
    join_cv.wait(lock, [&] { return done == helpers; });
  }

  // Commit cache stores (coordinator only, after the join — group tokens
  // may point into the cache until here).
  if (cache_) {
    for (Group& g : groups) {
      if (g.from_cache) continue;
      if (g.store_ok) {
        cache_->store_ok(g.fp, std::move(g.parsed), now);
      } else if (g.cacheable_reject) {
        cache_->store_rejected(g.fp, g.chain, now);
      }
    }
  }

  if (pool_) {
    backend_.post(node_, [this, batch = std::move(batch),
                          verdicts = std::move(verdicts)]() mutable {
      apply(batch, verdicts);
    });
  } else {
    apply(batch, verdicts);  // already in the node context
  }
}

void VerifyPipeline::verify_group(Group& g, const std::vector<Pending>& batch,
                                  std::vector<Status>& verdicts,
                                  TimePoint now) const {
  if (g.token == nullptr && g.chain.is_ok()) {
    // Cache miss: run the full chain once for this key group.
    try {
      g.parsed =
          AuthorizationToken::deserialize(batch[g.items.front()].msg.auth_token);
    } catch (const SerializeError& e) {
      // Malformed bytes are never cached (same rule as the inline filter).
      g.chain = unauthenticated(std::string("malformed token: ") + e.what());
    }
    if (g.chain.is_ok()) {
      g.chain = g.parsed.verify(anchors_.tdn_key, anchors_.ca_key, now);
      if (g.chain.is_ok()) {
        g.token = &g.parsed;
        g.store_ok = true;
      } else {
        g.cacheable_reject = rejection_is_deterministic(
            g.chain, g.parsed, now, kDefaultSkewAllowance);
      }
    }
  }
  if (g.token == nullptr) {
    for (const std::size_t i : g.items) verdicts[i] = g.chain;
    return;
  }

  // Per-key amortization: the topic string, the rights check and the
  // delegate-key Montgomery context are computed once per group.
  const std::string topic = g.token->trace_topic().to_string();
  const bool rights_ok = g.token->rights() == TokenRights::kPublish;
  const crypto::RsaVerifyContext ctx(g.token->delegate_key());
  for (const std::size_t i : g.items) {
    const Pending& p = batch[i];
    if (!rights_ok) {
      verdicts[i] = permission_denied("token does not grant publish rights");
    } else if (p.expected_topic != topic) {
      verdicts[i] = permission_denied("token is for a different trace topic");
    } else if (!ctx.verify(p.msg.signable_bytes(), p.msg.signature)) {
      verdicts[i] =
          unauthenticated("trace message not signed by the delegate key");
    } else {
      verdicts[i] = Status::ok();
    }
  }
}

void VerifyPipeline::apply(std::vector<Pending>& batch,
                           const std::vector<Status>& verdicts) {
  // Node context. Verdicts land in admission order, so an accepted trace
  // can never be overtaken by one admitted after it.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const bool accepted = verdicts[i].is_ok();
    if (on_verdict_) on_verdict_(accepted);
    if (accepted) {
      broker_->release_deferred(std::move(batch[i].msg), batch[i].from);
    } else {
      broker_->reject_deferred(batch[i].from, verdicts[i]);
    }
  }
  std::unique_lock<std::mutex> lock(mu_);
  drain_active_ = false;
  maybe_start_drain(lock);  // anything queued while we verified
}

bool VerifyPipeline::idle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.empty() && !drain_active_;
}

}  // namespace et::tracing
