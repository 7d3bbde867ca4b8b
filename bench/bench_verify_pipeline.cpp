// E12 — batched per-hop verification pipeline (verify_pipeline.h).
//
// The same burst of signed trace publications is pushed through the two
// filter implementations:
//   * inline reference filter — every message pays the full token chain
//     (TDN + CA + owner signatures) plus a delegate-signature verify;
//   * batched pipeline — messages are admitted into the per-broker queue
//     and drained in key-grouped batches: the chain is resolved once per
//     key per drain, each message then pays one signature verify against
//     the delegate key parsed with it.
// Caching is disabled on both sides so the measurement isolates the
// batching/amortization win (E10 measures the token-verdict cache).
//
// Sweeps burst size x distinct delegate keys, and the single-message path
// (batch size 1) where the pipeline must not regress against the inline
// filter. Drains run in the host broker's node context, as in a
// deployment. Emits paper tables plus JSON rows/counters (speedup_* keys)
// for trajectories.
#include <atomic>
#include <cstdio>
#include <map>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/tracing/trace_filter.h"
#include "src/tracing/verify_pipeline.h"

namespace et::bench {
namespace {

constexpr std::size_t kKeyBits = 1024;  // paper §6.1 configuration

/// One trace topic, K delegate keys with tokens over it, signed bursts,
/// and a host broker to resolve deferred verdicts against.
class PipelineBench {
 public:
  PipelineBench() : rng_(4242), ca_("bench-ca", rng_, kKeyBits) {
    t0_ = net_.now();
    owner_ = crypto::Identity::create("owner", ca_, rng_, t0_,
                                      24 * 3600 * kSecond, kKeyBits);
    tdn_ = crypto::rsa_generate(rng_, kKeyBits);
    anchors_.ca_key = ca_.public_key();
    anchors_.tdn_key = tdn_.public_key;
    const Uuid topic = Uuid::generate(rng_);
    discovery::TopicAdvertisement unsigned_ad(
        topic, "Availability/Traces/owner", owner_.credential, {}, t0_,
        t0_ + 24 * 3600 * kSecond, "tdn-0", {});
    ad_ = discovery::TopicAdvertisement(
        topic, "Availability/Traces/owner", owner_.credential, {}, t0_,
        t0_ + 24 * 3600 * kSecond, "tdn-0",
        tdn_.private_key.sign(unsigned_ad.tbs()));
  }

  /// `count` messages round-robin over `keys` distinct delegate keys, all
  /// on the one trace topic (the paper's burst shape: a few hosting
  /// brokers, many traces).
  std::vector<pubsub::Message> make_messages(std::size_t count,
                                             std::size_t keys) {
    std::vector<crypto::RsaKeyPair> delegates;
    std::vector<tracing::AuthorizationToken> tokens;
    for (std::size_t k = 0; k < keys; ++k) {
      delegates.push_back(crypto::rsa_generate(rng_, kKeyBits));
      tokens.push_back(tracing::AuthorizationToken::create(
          ad_, delegates.back().public_key, tracing::TokenRights::kPublish,
          t0_, t0_ + 24 * 3600 * kSecond, owner_.keys.private_key));
    }
    tracing::TracePayload p;
    p.type = tracing::TraceType::kAllsWell;
    p.entity_id = "owner";
    std::vector<pubsub::Message> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t k = i % keys;
      pubsub::Message m;
      m.topic = pubsub::trace_topics::trace_publication(
          ad_.topic().to_string(), "AllUpdates");
      m.payload = p.serialize();
      m.publisher = "upstream-broker";
      m.sequence = i + 1;
      m.timestamp = net_.now();
      m.auth_token = tokens[k].serialize();
      m.signature = delegates[k].private_key.sign(m.signable_bytes());
      out.push_back(std::move(m));
    }
    return out;
  }

  /// Mean ms per burst through the inline (uncached) reference filter.
  double time_inline(const std::vector<pubsub::Message>& msgs,
                     std::size_t rounds, PaperTable& table,
                     const std::string& label) {
    const pubsub::MessageFilter filter =
        tracing::make_trace_filter(anchors_, net_);
    SystemClock clock;
    RunningStats stats;
    for (std::size_t r = 0; r <= rounds; ++r) {
      const TimePoint a = clock.now();
      for (const auto& m : msgs) {
        if (!filter(host_, m.as_view(), peer_.node()).accepted()) std::abort();
      }
      const TimePoint b = clock.now();
      if (r > 0) stats.add(to_millis(b - a));  // round 0 warms up
    }
    table.add_row(label, stats);
    return stats.mean();
  }

  /// Mean ms per burst through the batched pipeline: admit everything,
  /// wait for the last deferred verdict. A fresh (cacheless) pipeline per
  /// round keys every drain cold, mirroring time_inline.
  double time_pipeline(const std::vector<pubsub::Message>& msgs,
                       std::size_t rounds, PaperTable& table,
                       const std::string& label) {
    const std::string expected = ad_.topic().to_string();
    SystemClock clock;
    RunningStats stats;
    for (std::size_t r = 0; r <= rounds; ++r) {
      std::atomic<std::size_t> done{0};
      tracing::VerifyPipeline pipe(
          anchors_, net_, nullptr, [&done](const Status& verdict) {
            if (!verdict.is_ok()) std::abort();
            done.fetch_add(1, std::memory_order_relaxed);
          });
      const TimePoint a = clock.now();
      for (const auto& m : msgs) {
        pipe.admit(host_, m, expected, peer_.node());
      }
      while (done.load(std::memory_order_relaxed) < msgs.size() ||
             !pipe.idle()) {
        std::this_thread::yield();
      }
      const TimePoint b = clock.now();
      if (r > 0) stats.add(to_millis(b - a));
    }
    table.add_row(label, stats);
    return stats.mean();
  }

  /// Mean ms from publish at the upstream broker to local delivery at the
  /// filtering broker over one paper-profile TCP hop, one trace in flight
  /// at a time — the deployment view of "batch size 1". `use_pipeline`
  /// picks the downstream broker's filter implementation.
  double time_hop(bool use_pipeline, std::size_t rounds, PaperTable& table,
                  const std::string& label) {
    const std::string tag = use_pipeline ? "pipe" : "inline";
    pubsub::Broker::Options o{.name = "hop-down-" + tag};
    tracing::TraceFilterHandle handle;
    if (use_pipeline) {
      handle = tracing::install_trace_filter(o, anchors_, net_);
    } else {
      o.message_filter = tracing::make_trace_filter(anchors_, net_);
    }
    pubsub::Broker& up = topo_.add_broker({.name = "hop-up-" + tag});
    pubsub::Broker& down = topo_.add_broker(std::move(o));
    topo_.connect_brokers(up, down, transport::LinkParams::tcp_profile());
    Latch got;
    down.subscribe_local(pubsub::trace_topics::trace_publication(
                             ad_.topic().to_string(), "AllUpdates"),
                         [&](const pubsub::Message&) { got.hit(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    const auto msgs = make_messages(rounds + 1, 1);
    SystemClock clock;
    RunningStats stats;
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      const pubsub::Message& m = msgs[i];
      const TimePoint a = clock.now();
      net_.post(up.node(), [&up, m]() mutable {
        up.publish_from_broker(std::move(m));
      });
      if (!got.wait_for(i + 1, 2 * kSecond)) std::abort();
      const TimePoint b = clock.now();
      if (i > 0) stats.add(to_millis(b - a));
    }
    table.add_row(label, stats);
    return stats.mean();
  }

  void stop() { net_.stop(); }

 private:
  transport::RealTimeNetwork net_;
  Rng rng_;
  crypto::CertificateAuthority ca_;
  TimePoint t0_ = 0;
  crypto::Identity owner_;
  crypto::RsaKeyPair tdn_;
  discovery::TopicAdvertisement ad_;
  tracing::TrustAnchors anchors_;
  pubsub::Broker host_{net_, {.name = "bench-host"}};
  pubsub::Broker peer_{net_, {.name = "bench-peer"}};
  pubsub::Topology topo_{net_};  // owns the per-hop comparison brokers
};

}  // namespace
}  // namespace et::bench

int main() {
  using et::bench::PaperTable;
  std::printf(
      "E12: Batched verification pipeline vs inline trace filter\n"
      "Units: milliseconds per burst (table 1), per message (tables 2-3).\n");
  et::bench::PipelineBench fx;
  std::map<std::string, double> mean;  // label -> ms, for speedup counters

  {
    PaperTable table("Burst verification wall time (cache off)");
    const auto msgs4 = fx.make_messages(256, 4);
    const auto msgs1 = fx.make_messages(64, 1);
    for (const std::size_t burst : {std::size_t{64}, std::size_t{256}}) {
      const std::vector<et::pubsub::Message> slice(msgs4.begin(),
                                                   msgs4.begin() + burst);
      const std::string suffix =
          " " + std::to_string(burst) + "msg/4key";
      mean["inline" + suffix] =
          fx.time_inline(slice, 6, table, "inline," + suffix);
      mean["pipe" + suffix] =
          fx.time_pipeline(slice, 6, table, "pipeline," + suffix);
    }
    mean["inline 64msg/1key"] =
        fx.time_inline(msgs1, 6, table, "inline, 64msg/1key");
    mean["pipe 64msg/1key"] =
        fx.time_pipeline(msgs1, 6, table, "pipeline, 64msg/1key");
    table.print();
    table.print_json("verify_pipeline");
  }

  {
    PaperTable table("Single message (batch size 1), cache off");
    const auto one = fx.make_messages(1, 1);
    mean["inline single"] = fx.time_inline(one, 40, table, "inline, 1 msg");
    mean["pipe single"] =
        fx.time_pipeline(one, 40, table, "pipeline, 1 msg");
    table.print();
    table.print_json("verify_pipeline");
  }

  {
    PaperTable table("Per-hop latency, 1.5ms TCP link, one trace in flight");
    mean["hop inline"] = fx.time_hop(false, 30, table, "inline filter hop");
    mean["hop pipeline"] = fx.time_hop(true, 30, table, "pipeline hop");
    table.print();
    table.print_json("verify_pipeline");
  }

  const double speedup64 =
      mean["pipe 64msg/4key"] > 0
          ? mean["inline 64msg/4key"] / mean["pipe 64msg/4key"]
          : 0.0;
  const double speedup256 =
      mean["pipe 256msg/4key"] > 0
          ? mean["inline 256msg/4key"] / mean["pipe 256msg/4key"]
          : 0.0;
  const double single_ratio = mean["pipe single"] > 0
                                  ? mean["inline single"] / mean["pipe single"]
                                  : 0.0;
  std::printf(
      "{\"bench\":\"verify_pipeline\",\"counters\":{"
      "\"speedup_burst64_4keys\":%.2f,\"speedup_burst256_4keys\":%.2f,"
      "\"single_msg_inline_over_pipeline\":%.2f,"
      "\"hop_latency_inline_ms\":%.3f,\"hop_latency_pipeline_ms\":%.3f,"
      "\"batch1_added_hop_latency_ms\":%.3f}}\n",
      speedup64, speedup256, single_ratio, mean["hop inline"],
      mean["hop pipeline"], mean["hop pipeline"] - mean["hop inline"]);
  fx.stop();
  return 0;
}
