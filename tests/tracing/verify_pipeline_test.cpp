// Deferred-verdict pipeline tests (verify_pipeline.h): the batched filter
// must behave observably like the inline one. Forged traces admitted to
// the queue are rejected, counted as misbehaviour of the sending peer and
// never reorder deliveries — an earlier accepted trace on the same topic
// always arrives first. The inline reference filter and the pipeline
// reject every class of bad trace with the same status code. Virtual-time
// runs stay deterministic; the real-time burst is the suite's TSan
// target.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>
#include <vector>

#include "src/pubsub/message.h"
#include "src/pubsub/topology.h"
#include "src/tracing/token_verify_cache.h"
#include "src/tracing/trace_filter.h"
#include "src/tracing/trace_message.h"
#include "src/tracing/verify_pipeline.h"
#include "src/transport/realtime_network.h"
#include "src/transport/virtual_network.h"
#include "tests/tracing/harness.h"

namespace et::tracing {
namespace {

constexpr std::size_t kBits = 512;

/// Advertisement for `topic` owned by `owner`, signed with the TDN key.
/// `from` anchors the validity window — pass the backend's now() on the
/// real-time network, whose clock does not start at zero.
discovery::TopicAdvertisement make_ad(const crypto::Identity& owner,
                                      const crypto::RsaKeyPair& tdn_keys,
                                      const Uuid& topic, TimePoint from = 0) {
  discovery::TopicAdvertisement unsigned_ad(
      topic, "Availability/Traces/" + owner.credential.subject(),
      owner.credential, {}, from, from + 3600 * kSecond, "tdn-0", {});
  return discovery::TopicAdvertisement(
      topic, "Availability/Traces/" + owner.credential.subject(),
      owner.credential, {}, from, from + 3600 * kSecond, "tdn-0",
      tdn_keys.private_key.sign(unsigned_ad.tbs()));
}

/// AllUpdates trace publication on `ad`'s topic, signed with `delegate`.
pubsub::Message make_trace(const discovery::TopicAdvertisement& ad,
                           const AuthorizationToken& t,
                           const crypto::RsaKeyPair& delegate,
                           std::uint64_t seq, TimePoint now) {
  TracePayload p;
  p.type = TraceType::kAllsWell;
  p.entity_id = "owner-1";
  pubsub::Message m;
  m.topic = pubsub::trace_topics::trace_publication(ad.topic().to_string(),
                                                    "AllUpdates");
  m.payload = p.serialize();
  m.publisher = "upstream-broker";
  m.sequence = seq;
  m.timestamp = now;
  m.auth_token = t.serialize();
  m.signature = delegate.private_key.sign(m.signable_bytes());
  return m;
}

struct PipelineFixture : ::testing::Test {
  PipelineFixture() : rng(91), ca("ca", rng, kBits), net(17) {
    owner = crypto::Identity::create("owner-1", ca, rng, 0, 3600 * kSecond,
                                     kBits);
    tdn_keys = crypto::rsa_generate(rng, kBits);
    ad = make_ad(owner, tdn_keys, Uuid::generate(rng));
    anchors.ca_key = ca.public_key();
    anchors.tdn_key = tdn_keys.public_key;
  }

  AuthorizationToken make_token(const crypto::RsaKeyPair& delegate,
                                const crypto::RsaPrivateKey& signer) {
    return AuthorizationToken::create(ad, delegate.public_key,
                                      TokenRights::kPublish, 0, 600 * kSecond,
                                      signer);
  }

  /// Token whose chain deterministically fails: signed by an identity
  /// other than the advertisement's owner.
  AuthorizationToken make_forged_token(const crypto::RsaKeyPair& delegate) {
    Rng mallory_rng(5);
    const crypto::Identity mallory = crypto::Identity::create(
        "mallory", ca, mallory_rng, 0, 3600 * kSecond, kBits);
    return make_token(delegate, mallory.keys.private_key);
  }

  [[nodiscard]] std::string topic() const {
    return pubsub::trace_topics::trace_publication(ad.topic().to_string(),
                                                   "AllUpdates");
  }

  Rng rng;
  crypto::CertificateAuthority ca;
  transport::VirtualTimeNetwork net;
  crypto::Identity owner;
  crypto::RsaKeyPair tdn_keys;
  discovery::TopicAdvertisement ad;
  TrustAnchors anchors;
};

// --- rejection + misbehaviour accounting -----------------------------------

TEST_F(PipelineFixture, ForgedTraceRejectedAndCountedAsMisbehaviour) {
  pubsub::Topology topo(net);
  pubsub::Broker& b0 = topo.add_broker({.name = "b0"});
  pubsub::Broker::Options o{.name = "b1", .misbehaviour_threshold = 2};
  TraceFilterHandle handle = install_trace_filter(o, anchors, net);
  pubsub::Broker& b1 = topo.add_broker(std::move(o));
  topo.connect_brokers(b0, b1, transport::LinkParams::ideal_profile());

  std::vector<std::uint64_t> delivered;
  b1.subscribe_local(topic(), [&](const pubsub::Message& m) {
    delivered.push_back(m.sequence);
  });
  net.run_for(10 * kMillisecond);  // interest propagation to b0

  const crypto::RsaKeyPair good_key = crypto::rsa_generate(rng, kBits);
  const crypto::RsaKeyPair bad_key = crypto::rsa_generate(rng, kBits);
  const AuthorizationToken good = make_token(good_key, owner.keys.private_key);
  const AuthorizationToken forged = make_forged_token(bad_key);

  b0.publish_from_broker(make_trace(ad, good, good_key, 1, net.now()));
  b0.publish_from_broker(make_trace(ad, forged, bad_key, 2, net.now()));
  b0.publish_from_broker(make_trace(ad, good, good_key, 3, net.now()));
  net.run_for(10 * kMillisecond);

  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{1, 3}));
  const TraceFilterStats fs = handle.stats();
  EXPECT_EQ(fs.checked, 3u);
  EXPECT_EQ(fs.accepted, 2u);
  EXPECT_EQ(fs.rejected, 1u);
  EXPECT_GE(b1.stats().discarded, 1u);
  // One strike so far: below the threshold of 2, the peer stays connected.
  EXPECT_FALSE(b1.is_blacklisted(b0.node()));

  // The second forgery (served from the negative cache) crosses the
  // threshold and the upstream peer is disconnected.
  b0.publish_from_broker(make_trace(ad, forged, bad_key, 4, net.now()));
  net.run_for(10 * kMillisecond);
  EXPECT_TRUE(b1.is_blacklisted(b0.node()));
  EXPECT_GE(b1.stats().disconnects, 1u);

  const VerifyPipelineStats ps = handle.pipeline_stats();
  EXPECT_EQ(ps.queued, 4u);
  EXPECT_EQ(ps.batched, 4u);
  EXPECT_GE(ps.drains, 1u);
  EXPECT_TRUE(handle.pipeline()->idle());
}

// --- ordering ---------------------------------------------------------------

TEST_F(PipelineFixture, ForgedTraceNeverReordersEarlierAcceptedTrace) {
  pubsub::Topology topo(net);
  pubsub::Broker& b0 = topo.add_broker({.name = "b0"});
  pubsub::Broker::Options o{.name = "b1"};
  TraceFilterHandle handle = install_trace_filter(o, anchors, net);
  pubsub::Broker& b1 = topo.add_broker(std::move(o));
  topo.connect_brokers(b0, b1, transport::LinkParams::ideal_profile());

  std::vector<std::uint64_t> delivered;
  b1.subscribe_local(topic(), [&](const pubsub::Message& m) {
    delivered.push_back(m.sequence);
  });
  net.run_for(10 * kMillisecond);

  // Two legitimate delegate keys and one forgery, interleaved on ONE
  // topic: grouping by key must reorder verification work only, never
  // delivery.
  const crypto::RsaKeyPair key_a = crypto::rsa_generate(rng, kBits);
  const crypto::RsaKeyPair key_b = crypto::rsa_generate(rng, kBits);
  const crypto::RsaKeyPair bad_key = crypto::rsa_generate(rng, kBits);
  const AuthorizationToken tok_a = make_token(key_a, owner.keys.private_key);
  const AuthorizationToken tok_b = make_token(key_b, owner.keys.private_key);
  const AuthorizationToken forged = make_forged_token(bad_key);

  std::vector<std::uint64_t> expected;
  std::uint64_t seq = 0;
  for (int round = 0; round < 3; ++round) {
    b0.publish_from_broker(make_trace(ad, tok_a, key_a, ++seq, net.now()));
    expected.push_back(seq);
    b0.publish_from_broker(make_trace(ad, tok_b, key_b, ++seq, net.now()));
    expected.push_back(seq);
    b0.publish_from_broker(make_trace(ad, forged, bad_key, ++seq, net.now()));
  }
  net.run_for(10 * kMillisecond);

  // Every accepted trace arrives, in exactly its admission order; the
  // rejected ones leave no gap-induced reordering behind.
  EXPECT_EQ(delivered, expected);
  const TraceFilterStats fs = handle.stats();
  EXPECT_EQ(fs.checked, 9u);
  EXPECT_EQ(fs.accepted, 6u);
  EXPECT_EQ(fs.rejected, 3u);
}

// --- batching mechanics, driven directly ------------------------------------

TEST_F(PipelineFixture, BatchedDrainGroupsByDelegateKeyFingerprint) {
  pubsub::Broker host(net, {.name = "host"});
  pubsub::Broker peer(net, {.name = "peer"});
  auto cache = std::make_shared<TokenVerifyCache>(/*capacity=*/64,
                                                  /*ttl=*/60 * kSecond);
  std::atomic<int> ok{0};
  std::atomic<int> bad{0};
  VerifyPipeline pipe(anchors, net, cache, [&](const Status& verdict) {
    (verdict.is_ok() ? ok : bad)++;
  });

  const crypto::RsaKeyPair key_a = crypto::rsa_generate(rng, kBits);
  const crypto::RsaKeyPair key_b = crypto::rsa_generate(rng, kBits);
  const AuthorizationToken tok_a = make_token(key_a, owner.keys.private_key);
  const AuthorizationToken tok_b = make_token(key_b, owner.keys.private_key);
  const std::string expected_topic = ad.topic().to_string();

  // Six admissions before the virtual clock runs: the drain posted by the
  // first admission takes the whole backlog in one pass and resolves each
  // key's chain once.
  for (std::uint64_t i = 0; i < 6; ++i) {
    const bool use_a = (i % 2) == 0;
    pipe.admit(host,
               make_trace(ad, use_a ? tok_a : tok_b, use_a ? key_a : key_b,
                          i + 1, net.now()),
               expected_topic, peer.node());
  }
  net.run_for(1 * kMillisecond);

  EXPECT_TRUE(pipe.idle());
  EXPECT_EQ(ok.load(), 6);
  EXPECT_EQ(bad.load(), 0);
  const VerifyPipelineStats s = pipe.stats();
  EXPECT_EQ(s.queued, 6u);
  EXPECT_EQ(s.drains, 1u);
  EXPECT_EQ(s.batched, 6u);
  EXPECT_EQ(s.keys_deduped, 4u);  // 6 messages, 2 distinct key groups
  EXPECT_EQ(s.max_drain_depth, 6u);
  EXPECT_EQ(cache->stats().misses, 2u);
  EXPECT_EQ(cache->stats().insertions, 2u);
  // Released messages entered the host's routing stage.
  EXPECT_EQ(host.stats().published, 6u);
}

TEST_F(PipelineFixture, SameTimestampDrainStoresAfterEachGroupUnderEviction) {
  pubsub::Broker host(net, {.name = "host"});
  pubsub::Broker peer(net, {.name = "peer"});
  auto cache = std::make_shared<TokenVerifyCache>(/*capacity=*/2,
                                                  /*ttl=*/60 * kSecond);
  std::vector<Status> verdicts;
  VerifyPipeline pipe(anchors, net, cache, [&](const Status& verdict) {
    verdicts.push_back(verdict);
  });

  const crypto::RsaKeyPair key_a = crypto::rsa_generate(rng, kBits);
  const crypto::RsaKeyPair key_b = crypto::rsa_generate(rng, kBits);
  const crypto::RsaKeyPair key_c = crypto::rsa_generate(rng, kBits);
  const crypto::RsaKeyPair key_d = crypto::rsa_generate(rng, kBits);
  const AuthorizationToken tok_a = make_token(key_a, owner.keys.private_key);
  const AuthorizationToken tok_b = make_token(key_b, owner.keys.private_key);
  const AuthorizationToken tok_c = make_token(key_c, owner.keys.private_key);
  const AuthorizationToken forged = make_forged_token(key_d);
  const std::string expected_topic = ad.topic().to_string();
  std::uint64_t seq = 0;
  auto admit = [&](const AuthorizationToken& t,
                   const crypto::RsaKeyPair& signer) {
    pipe.admit(host, make_trace(ad, t, signer, ++seq, net.now()),
               expected_topic, peer.node());
  };

  // Warm drain: A then B stored, so the LRU holds [B, A].
  admit(tok_a, key_a);
  admit(tok_b, key_b);
  net.run_for(1 * kMillisecond);
  ASSERT_EQ(verdicts.size(), 2u);

  // One drain, four key groups in first-appearance order A, C, B, D, over
  // a cache that holds two. Each group stores its verdict before the next
  // looks up: A hits; C's store evicts B, so B misses and its store evicts
  // A; D's negative entry evicts C. C's second message carries B's
  // signature and must fail on its own.
  admit(tok_a, key_a);
  admit(tok_c, key_c);
  admit(tok_b, key_b);
  admit(forged, key_d);
  admit(tok_a, key_a);
  admit(tok_c, key_b);
  admit(tok_b, key_b);
  admit(forged, key_d);
  net.run_for(1 * kMillisecond);

  ASSERT_EQ(verdicts.size(), 10u);
  const std::vector<Code> expected = {
      Code::kOk,  Code::kOk, Code::kOk,  Code::kUnauthenticated,
      Code::kOk,  Code::kUnauthenticated, Code::kOk,
      Code::kUnauthenticated};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(verdicts[i + 2].code(), expected[i]) << "message " << i;
  }
  EXPECT_EQ(verdicts[7].message(),
            "trace message not signed by the delegate key");

  const TokenCacheStats cs = cache->stats();
  EXPECT_EQ(cs.hits, 1u);
  EXPECT_EQ(cs.negative_hits, 0u);
  EXPECT_EQ(cs.misses, 5u);
  EXPECT_EQ(cs.insertions, 5u);
  EXPECT_EQ(cs.evictions, 3u);
  EXPECT_EQ(cache->size(), 2u);

  const VerifyPipelineStats ps = pipe.stats();
  EXPECT_EQ(ps.drains, 2u);
  EXPECT_EQ(ps.batched, 10u);
  EXPECT_EQ(ps.keys_deduped, 4u);
  EXPECT_EQ(ps.max_drain_depth, 8u);
  EXPECT_TRUE(pipe.idle());
  EXPECT_EQ(host.stats().published, 7u);
}

// --- differential: inline reference filter vs install_trace_filter ----------

TEST_F(PipelineFixture, InlineFilterAndPipelineAgreeOnEveryRejectionClass) {
  net.run_for(1 * kSecond);  // lets a short token window lapse below

  pubsub::Topology topo(net);
  pubsub::Broker& b0 = topo.add_broker({.name = "b0"});
  // Every class is a strike; keep the peer connected through all of them.
  pubsub::Broker::Options o{.name = "b1", .misbehaviour_threshold = 1000};
  std::vector<Status> deferred;
  TraceFilterHandle handle =
      install_trace_filter(o, anchors, net, {}, [&](const Status& verdict) {
        deferred.push_back(verdict);
      });
  pubsub::Broker& b1 = topo.add_broker(std::move(o));
  topo.connect_brokers(b0, b1, transport::LinkParams::ideal_profile());
  const pubsub::MessageFilter reference = make_trace_filter(anchors, net);

  const crypto::RsaKeyPair key = crypto::rsa_generate(rng, kBits);
  const crypto::RsaKeyPair other_key = crypto::rsa_generate(rng, kBits);
  const AuthorizationToken good = make_token(key, owner.keys.private_key);
  const discovery::TopicAdvertisement other_ad =
      make_ad(owner, tdn_keys, Uuid::generate(rng));
  Rng rogue_rng(23);
  crypto::CertificateAuthority rogue_ca("rogue-ca", rogue_rng, kBits);
  const crypto::Identity rogue = crypto::Identity::create(
      "owner-1", rogue_ca, rogue_rng, 0, 3600 * kSecond, kBits);
  const discovery::TopicAdvertisement rogue_ad =
      make_ad(rogue, tdn_keys, Uuid::generate(rng));

  int delivered = 0;
  for (const Uuid& t : {ad.topic(), other_ad.topic(), rogue_ad.topic()}) {
    b1.subscribe_local(pubsub::trace_topics::trace_publication(
                           t.to_string(), "AllUpdates"),
                       [&](const pubsub::Message&) { ++delivered; });
  }
  net.run_for(10 * kMillisecond);

  struct Case {
    const char* name;
    pubsub::Message msg;
    Code code;
  };
  std::uint64_t seq = 0;
  auto trace = [&](const discovery::TopicAdvertisement& on,
                   const AuthorizationToken& t,
                   const crypto::RsaKeyPair& signer) {
    return make_trace(on, t, signer, ++seq, net.now());
  };
  std::vector<Case> cases;
  cases.push_back({"valid", trace(ad, good, key), Code::kOk});
  {
    pubsub::Message m = trace(ad, good, key);
    m.auth_token.clear();
    cases.push_back({"no token", std::move(m), Code::kUnauthenticated});
  }
  {
    pubsub::Message m = trace(ad, good, key);
    m.auth_token = to_bytes("not a token");
    cases.push_back({"malformed token", std::move(m), Code::kUnauthenticated});
  }
  cases.push_back({"wrong trace topic", trace(other_ad, good, key),
                   Code::kPermissionDenied});
  cases.push_back(
      {"non-publish rights",
       trace(ad,
             AuthorizationToken::create(ad, key.public_key,
                                        TokenRights::kSubscribe, 0,
                                        600 * kSecond, owner.keys.private_key),
             key),
       Code::kPermissionDenied});
  cases.push_back({"forged delegate signature", trace(ad, good, other_key),
                   Code::kUnauthenticated});
  cases.push_back(
      {"lapsed token",
       trace(ad,
             AuthorizationToken::create(ad, key.public_key,
                                        TokenRights::kPublish, 0,
                                        1 * kMillisecond,
                                        owner.keys.private_key),
             key),
       Code::kExpired});
  cases.push_back(
      {"owner credential not from the CA",
       trace(rogue_ad, make_token(key, rogue.keys.private_key), key),
       Code::kUnauthenticated});

  for (const Case& c : cases) {
    const pubsub::FilterVerdict inline_verdict =
        reference(b0, c.msg.as_view(), b0.node());
    EXPECT_EQ(inline_verdict.status.code(), c.code) << c.name;
    EXPECT_EQ(inline_verdict.accepted(), c.code == Code::kOk) << c.name;

    const std::size_t before = deferred.size();
    b0.publish_from_broker(c.msg);
    net.run_for(5 * kMillisecond);
    ASSERT_EQ(deferred.size(), before + 1) << c.name;
    EXPECT_EQ(deferred.back().code(), inline_verdict.status.code()) << c.name;
  }
  EXPECT_EQ(delivered, 1);
  const TraceFilterStats fs = handle.stats();
  EXPECT_EQ(fs.checked, cases.size());
  EXPECT_EQ(fs.accepted, 1u);
  EXPECT_EQ(fs.rejected, cases.size() - 1);
  EXPECT_FALSE(b1.is_blacklisted(b0.node()));
}

// --- determinism ------------------------------------------------------------

TEST(VerifyPipelineDeterminismTest, VirtualTimeRunsAreRepeatable) {
  using Transcript = std::vector<std::tuple<std::uint64_t, TimePoint, int>>;
  auto run_once = []() {
    Transcript transcript;
    testing::TracingHarness h(/*broker_count=*/2);
    auto entity = h.make_entity("svc", 0);
    EXPECT_TRUE(h.start_tracing(*entity).is_ok());
    auto tracker = h.make_tracker("watch", 1);
    EXPECT_TRUE(h.track(*tracker, "svc",
                        kCatAllUpdates | kCatStateTransitions,
                        [&](const TracePayload& p, const pubsub::Message& m) {
                          transcript.emplace_back(m.sequence, m.timestamp,
                                                  static_cast<int>(p.type));
                        })
                    .is_ok());
    h.net.run_for(2 * kSecond);
    const VerifyPipelineStats ps = h.filters[1].pipeline_stats();
    const TraceFilterStats fs = h.filters[1].stats();
    return std::make_tuple(transcript, ps.queued, ps.drains, ps.batched,
                           fs.accepted);
  };

  const auto a = run_once();
  const auto b = run_once();
  EXPECT_FALSE(std::get<0>(a).empty());
  EXPECT_GT(std::get<1>(a), 0u);
  // Identical seeds -> identical trace transcripts AND identical pipeline
  // batching decisions (queue depths, drain passes) on the virtual clock.
  EXPECT_EQ(a, b);
}

// --- real-time drain (TSan target) ----------------------------------------

TEST(VerifyPipelineRealTimeTest, BurstKeepsOrderAndCountsForgeries) {
  transport::RealTimeNetwork net;
  Rng rng(131);
  const TimePoint t0 = net.now();  // steady-clock epoch, NOT zero
  crypto::CertificateAuthority ca("rt-ca", rng, kBits);
  const crypto::Identity owner = crypto::Identity::create(
      "owner-1", ca, rng, t0, 3600 * kSecond, kBits);
  const crypto::RsaKeyPair tdn_keys = crypto::rsa_generate(rng, kBits);
  const discovery::TopicAdvertisement ad =
      make_ad(owner, tdn_keys, Uuid::generate(rng), t0);
  TrustAnchors anchors{ca.public_key(), tdn_keys.public_key};

  pubsub::Topology topo(net);
  pubsub::Broker& b0 = topo.add_broker({.name = "rt-b0"});
  // Strikes are the assertion here, not disconnection: keep the peer
  // connected through all 18 forgeries so later messages still flow.
  pubsub::Broker::Options o{.name = "rt-b1", .misbehaviour_threshold = 1000};
  TraceFilterHandle handle = install_trace_filter(o, anchors, net);
  pubsub::Broker& b1 = topo.add_broker(std::move(o));
  transport::LinkParams link = transport::LinkParams::ideal_profile();
  link.base_latency = 200;  // 0.2 ms
  topo.connect_brokers(b0, b1, link);

  const std::string topic = pubsub::trace_topics::trace_publication(
      ad.topic().to_string(), "AllUpdates");
  std::mutex mu;
  std::vector<std::uint64_t> delivered;
  b1.subscribe_local(topic, [&](const pubsub::Message& m) {
    const std::lock_guard<std::mutex> l(mu);
    delivered.push_back(m.sequence);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Burst: three legitimate delegate keys plus a forgery, round-robin on
  // one topic — enough backlog for multi-message, multi-group batches.
  constexpr std::uint64_t kTotal = 72;
  std::vector<crypto::RsaKeyPair> keys;
  std::vector<AuthorizationToken> tokens;
  for (int i = 0; i < 3; ++i) {
    keys.push_back(crypto::rsa_generate(rng, kBits));
    tokens.push_back(AuthorizationToken::create(
        ad, keys.back().public_key, TokenRights::kPublish, t0,
        t0 + 600 * kSecond, owner.keys.private_key));
  }
  const crypto::RsaKeyPair bad_key = crypto::rsa_generate(rng, kBits);
  Rng mallory_rng(5);
  const crypto::Identity mallory = crypto::Identity::create(
      "mallory", ca, mallory_rng, t0, 3600 * kSecond, kBits);
  const AuthorizationToken forged = AuthorizationToken::create(
      ad, bad_key.public_key, TokenRights::kPublish, t0, t0 + 600 * kSecond,
      mallory.keys.private_key);

  std::vector<std::uint64_t> expected_good;
  for (std::uint64_t seq = 1; seq <= kTotal; ++seq) {
    const std::size_t slot = (seq - 1) % 4;
    pubsub::Message m =
        slot < 3 ? make_trace(ad, tokens[slot], keys[slot], seq, net.now())
                 : make_trace(ad, forged, bad_key, seq, net.now());
    if (slot < 3) expected_good.push_back(seq);
    net.post(b0.node(), [&b0, m]() mutable {
      b0.publish_from_broker(std::move(m));
    });
  }
  const std::uint64_t kGood = expected_good.size();
  const std::uint64_t kForged = kTotal - kGood;

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  auto settled = [&]() {
    if (handle.stats().checked < kTotal) return false;
    if (!handle.pipeline()->idle()) return false;
    const std::lock_guard<std::mutex> l(mu);
    return delivered.size() >= kGood;
  };
  while (!settled() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  {
    const std::lock_guard<std::mutex> l(mu);
    // FIFO link + FIFO queue + in-order apply: the accepted traces arrive
    // in exactly their admission order.
    EXPECT_EQ(delivered, expected_good);
  }
  const TraceFilterStats fs = handle.stats();
  EXPECT_EQ(fs.checked, kTotal);
  EXPECT_EQ(fs.accepted, kGood);
  EXPECT_EQ(fs.rejected, kForged);
  EXPECT_EQ(b1.stats().discarded, kForged);
  const VerifyPipelineStats ps = handle.pipeline_stats();
  EXPECT_EQ(ps.queued, kTotal);
  EXPECT_EQ(ps.batched, kTotal);
  EXPECT_GE(ps.drains, 1u);
  net.stop();
}

}  // namespace
}  // namespace et::tracing
