// Per-hop token-verification cache (paper §4.3/§5.2).
//
// Every broker verifies the authorization token attached to every trace it
// routes. The expensive part of that check — the TDN-signed advertisement,
// the owner credential's CA chain and the owner's token signature, three
// RSA verifications plus a deserialization — depends only on the token
// *bytes*, which are identical for every trace a hosting broker emits
// during one validity window. The paper notes brokers may "keep track of
// previously computed verifications"; this cache is that bookkeeping, the
// same amortization trick as TLS session resumption and SPKI chain caches.
//
// Design rules (see DESIGN.md "Token-verification cache"):
//   * Keys are SHA-256 fingerprints of the raw serialized token, so a
//     cached verdict can only ever be replayed for byte-identical input —
//     flipping any bit of a token (signature included) changes the key.
//   * A cached OK stores the parsed token plus its validity window; every
//     lookup re-evaluates the window against the caller's clock, so a
//     cached OK is dead the instant the token expires. Entries also carry
//     a TTL so a revoked-upstream advertisement or credential cannot be
//     honoured for longer than `ttl` after its last full verification.
//   * Negative verdicts are cached only for *deterministic* rejections
//     (signature-chain failures, definitively lapsed windows) — never for
//     malformed input, which is rejected cheaply upstream and must not be
//     able to thrash the LRU, and never for not-yet-valid tokens, which
//     become good later.
//   * Bounded LRU: at capacity the least-recently-used entry is evicted.
//     Eviction is purely a performance event — a re-presented evicted
//     token simply runs the full chain again.
//
// Threading: like pubsub::Broker, a cache instance is owned by one broker
// and touched only from that broker's node context, where the trace filter
// and its verification drains run; it is not internally synchronized.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

#include "src/common/clock.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/crypto/fingerprint.h"
#include "src/tracing/authorization_token.h"

namespace et::tracing {

/// How long a broker reuses a cached verdict before re-running the full
/// chain. Bounds the window during which an advertisement or credential
/// that expired *after* the token was verified could still be honoured;
/// token windows themselves are re-checked on every hit.
inline constexpr Duration kTokenCacheTtl = 60 * kSecond;

/// Counter snapshot exported alongside BrokerStats for benches and tests.
/// Returned by value from TokenVerifyCache::stats(), which may be called
/// from any thread while the owning broker keeps verifying (the counters
/// are relaxed atomics, same discipline as internal::FilterCounters).
struct TokenCacheStats {
  std::uint64_t hits = 0;           // cached OK served
  std::uint64_t negative_hits = 0;  // cached rejection served
  std::uint64_t misses = 0;         // no entry; full verification ran
  std::uint64_t expired = 0;        // entry found but stale or lapsed
  std::uint64_t insertions = 0;     // verdicts stored
  std::uint64_t evictions = 0;      // LRU capacity evictions

  /// Fraction of lookups answered from the cache, in [0, 1].
  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits + negative_hits + misses + expired;
    return total == 0
               ? 0.0
               : static_cast<double>(hits + negative_hits) /
                     static_cast<double>(total);
  }
};

class TokenVerifyCache {
 public:
  /// `capacity` == 0 disables storage (every lookup misses). `ttl` bounds
  /// how long any verdict may be reused after the full chain last ran.
  TokenVerifyCache(std::size_t capacity, Duration ttl)
      : capacity_(capacity), ttl_(ttl) {}

  struct Lookup {
    enum class Kind {
      kMiss,      // no usable entry; run the full chain
      kOk,        // chain verified and window still open: `token` is set
      kRejected,  // deterministic rejection: `status` is the cached verdict
    };
    Kind kind = Kind::kMiss;
    /// Parsed token of a positive entry. Owned by the cache; valid until
    /// the next lookup/store/evict call.
    const AuthorizationToken* token = nullptr;
    Status status = Status::ok();
  };

  /// Consults the cache. `now` is the verifying broker's clock; `skew` is
  /// the NTP allowance applied to the token's validity window, matching
  /// AuthorizationToken::verify. Entries whose TTL or window has lapsed
  /// are dropped and reported as misses (counted in `expired`).
  Lookup lookup(const crypto::Fingerprint256& fp, TimePoint now,
                Duration skew = kDefaultSkewAllowance);

  /// Stores a chain-verified token. Returns a pointer to the stored copy
  /// (valid until the next mutating call) so the caller can continue with
  /// per-message checks without re-parsing.
  const AuthorizationToken* store_ok(const crypto::Fingerprint256& fp,
                                     AuthorizationToken token, TimePoint now);

  /// Stores a deterministic rejection for these exact bytes. Callers must
  /// only pass verdicts that can never change for a byte-identical resend
  /// (signature-chain failures, definitively lapsed validity windows).
  void store_rejected(const crypto::Fingerprint256& fp, Status verdict,
                      TimePoint now);

  /// Snapshot of the counters. Safe to call from any thread (counters are
  /// relaxed atomics); the structural accessors below are still
  /// single-context like the rest of the cache.
  [[nodiscard]] TokenCacheStats stats() const {
    TokenCacheStats s;
    s.hits = counters_.hits.get();
    s.negative_hits = counters_.negative_hits.get();
    s.misses = counters_.misses.get();
    s.expired = counters_.expired.get();
    s.insertions = counters_.insertions.get();
    s.evictions = counters_.evictions.get();
    return s;
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    crypto::Fingerprint256 fp;
    bool ok = false;
    AuthorizationToken token;  // parsed form, positive entries only
    Status verdict = Status::ok();
    TimePoint stale_at = 0;  // full verification required after this
  };

  /// Live counters; relaxed because each is independent and readers only
  /// ever want monotonic totals.
  struct Counters {
    RelaxedCounter hits;
    RelaxedCounter negative_hits;
    RelaxedCounter misses;
    RelaxedCounter expired;
    RelaxedCounter insertions;
    RelaxedCounter evictions;
  };

  using Lru = std::list<Entry>;

  void evict_to_capacity();

  std::size_t capacity_;
  Duration ttl_;
  Lru entries_;  // front = most recently used
  std::unordered_map<crypto::Fingerprint256, Lru::iterator,
                     crypto::Fingerprint256Hash>
      index_;
  Counters counters_;
};

}  // namespace et::tracing
