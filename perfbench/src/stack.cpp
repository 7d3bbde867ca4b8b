#include "perfbench/src/stack.h"

#include <future>
#include <stdexcept>
#include <thread>

namespace perfbench {
namespace {

// Key material comes from fixed seeds, so every run does the same set-up
// work; the workload seed drives only the load (see workloads).
constexpr std::uint64_t kKeySeed = 0x5eed;
constexpr et::Duration kCredentialLifetime = 24 * 3600 * et::kSecond;

}  // namespace

Stack::Stack(const et::tracing::TracingConfig& config, bool traced,
             const std::string& ledger_path)
    : config_(config),
      ledger_path_(ledger_path),
      net_(kKeySeed),
      probe_(traced ? std::make_unique<Probe>(net_) : nullptr),
      backend_(traced ? static_cast<et::transport::NetworkBackend*>(
                            probe_.get())
                      : &net_),
      rng_(kKeySeed) {
  // On the raw network, so the gauge never shows up as spans.
  gauge_node_ = net_.add_node("speed-gauge", [](et::transport::NodeId,
                                                et::BytesView) {});
  arm_speed_gauge();
  {
    const std::int64_t t0 = now_ns();
    ca_ = std::make_unique<et::crypto::CertificateAuthority>("bench-ca", rng_,
                                                             kKeyBits);
    keygen_ms_.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  shared_keys_ = timed_keygen(rng_);

  et::crypto::Identity tdn_identity;
  tdn_identity.id = "tdn-0";
  tdn_identity.keys = timed_keygen(rng_);
  tdn_identity.credential = ca_->issue("tdn-0", tdn_identity.keys.public_key,
                                       net_.now(), kCredentialLifetime);
  anchors_.ca_key = ca_->public_key();
  anchors_.tdn_key = tdn_identity.keys.public_key;
  tdn_ = std::make_unique<et::discovery::Tdn>(
      *backend_, std::move(tdn_identity), ca_->public_key(), kKeySeed + 1);

  topology_ = std::make_unique<et::pubsub::Topology>(*backend_);
  brokers_ = topology_->make_chain(
      kBrokers, link(), "broker", [this](const std::string& name) {
        et::pubsub::Broker::Options o;
        o.name = name;
        filters_.push_back(
            et::tracing::install_trace_filter(o, anchors_, *backend_, config_));
        if (probe_) o.message_filter = probe_->wrap_filter(o.message_filter);
        return o;
      });
  for (std::size_t i = 0; i < brokers_.size(); ++i) {
    if (probe_) probe_->mark_broker(brokers_[i]->node());
    services_.push_back(std::make_unique<et::tracing::TracingBrokerService>(
        *brokers_[i], anchors_, config_, kKeySeed + 100 + i));
  }
  // broker-0 hosts every traced entity, so it alone emits traces.
  if (const et::Status s = ledger_.open({ledger_path_,
                                         et::persist::FsyncPolicy::kNever});
      !s.is_ok()) {
    throw std::runtime_error("ledger open failed: " + s.to_string());
  }
  services_.front()->set_trace_ledger(&ledger_);
}

Stack::~Stack() { net_.stop(); }

et::crypto::RsaKeyPair Stack::timed_keygen(et::Rng& rng) {
  const std::int64_t t0 = now_ns();
  et::crypto::RsaKeyPair keys = et::crypto::rsa_generate(rng, kKeyBits);
  keygen_ms_.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  return keys;
}

et::crypto::Identity Stack::make_identity(const std::string& id) {
  et::crypto::Identity ident;
  ident.id = id;
  ident.keys = shared_keys_;
  ident.credential = ca_->issue(id, shared_keys_.public_key, net_.now(),
                                kCredentialLifetime);
  return ident;
}

void SpeedGauge::run_kernel() {
  constexpr int kLimbs = 32;  // 1024 bits
  constexpr int kReps = 50;
  std::vector<std::uint32_t> n(kLimbs), a(kLimbs), b(kLimbs);
  for (int i = 0; i < kLimbs; ++i) {
    const auto k = static_cast<std::uint32_t>(i);
    n[i] = (0x9e3779b9u * (k + 1)) | 1u;
    a[i] = 0xbf58476du * (k + 3);
    b[i] = 0x94d049bbu * (k + 5);
  }
  n[kLimbs - 1] |= 0x80000000u;
  std::uint32_t inv = 1;  // n[0]^-1 mod 2^32 by Newton's iteration
  for (int i = 0; i < 5; ++i) inv *= 2 - n[0] * inv;
  const std::uint32_t n0inv = -inv;

  const std::int64_t t0 = now_ns();
  for (int rep = 0; rep < kReps; ++rep) {
    // One CIOS Montgomery multiply a * b * 2^-1024 mod n.
    std::vector<std::uint32_t> t(kLimbs + 2, 0);
    for (int i = 0; i < kLimbs; ++i) {
      std::uint64_t c = 0;
      for (int j = 0; j < kLimbs; ++j) {
        const std::uint64_t s = std::uint64_t{a[j]} * b[i] + t[j] + c;
        t[j] = static_cast<std::uint32_t>(s);
        c = s >> 32;
      }
      std::uint64_t s = std::uint64_t{t[kLimbs]} + c;
      t[kLimbs] = static_cast<std::uint32_t>(s);
      t[kLimbs + 1] = static_cast<std::uint32_t>(s >> 32);
      const std::uint32_t m = t[0] * n0inv;
      s = std::uint64_t{m} * n[0] + t[0];
      c = s >> 32;
      for (int j = 1; j < kLimbs; ++j) {
        s = std::uint64_t{m} * n[j] + t[j] + c;
        t[j - 1] = static_cast<std::uint32_t>(s);
        c = s >> 32;
      }
      s = std::uint64_t{t[kLimbs]} + c;
      t[kLimbs - 1] = static_cast<std::uint32_t>(s);
      t[kLimbs] = t[kLimbs + 1] + static_cast<std::uint32_t>(s >> 32);
    }
    a.assign(t.begin(), t.begin() + kLimbs);  // chain the reps
  }
  const std::int64_t took = now_ns() - t0;
  // Keep the result observable so the loop is not optimized away.
  if (a[0] == 0x5eed) sum_ns_.fetch_add(1);
  sum_ns_.fetch_add(took);
  runs_.fetch_add(1);
}

double SpeedGauge::speed_since(std::pair<double, std::uint64_t> from) const {
  const auto [sum_us, runs] = read();
  if (runs <= from.second) return 1;
  return kReferenceUs * static_cast<double>(runs - from.second) /
         (sum_us - from.first);
}

void Stack::arm_speed_gauge() {
  net_.schedule(gauge_node_, gauge_period_.load(), [this] {
    if (!gauge_on_.load()) return;
    gauge_.run_kernel();
    arm_speed_gauge();
  });
}

void Stack::run_on(et::transport::NodeId node,
                   const std::function<void()>& fn) {
  std::promise<void> done;
  // Through the raw network, so bench reads never show up as spans.
  net_.post(node, [&] {
    fn();
    done.set_value();
  });
  done.get_future().wait();
}

bool Stack::wait_until(et::transport::NodeId node,
                       const std::function<bool()>& pred, double timeout_s) {
  const std::int64_t end =
      now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  for (;;) {
    bool held = false;
    run_on(node, [&] { held = pred(); });
    if (held) return true;
    if (now_ns() > end) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

}  // namespace perfbench
