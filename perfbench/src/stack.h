// The deployment every workload runs on: a CA, one TDN and a 3-broker
// chain on one in-process SocketNetwork, so every frame crosses the host's
// loopback interface over TCP.
//
// Links use LinkParams::ideal_profile() (no modelled latency), so the
// numbers measure program work rather than sleeps. Crypto is the paper's
// reference configuration: RSA-1024, SHA-1 signatures, AES-192. Every
// broker runs install_trace_filter and a TracingBrokerService; the hosting
// broker (broker-0) also has a WAL-backed TraceLedger with
// FsyncPolicy::kNever. Verification and match threads stay at 0, so the
// SocketNetwork loop thread runs every node.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/probe.h"
#include "src/crypto/credential.h"
#include "src/discovery/tdn.h"
#include "src/persist/ledger.h"
#include "src/pubsub/topology.h"
#include "src/tracing/config.h"
#include "src/tracing/trace_filter.h"
#include "src/tracing/tracing_broker.h"
#include "src/transport/socket_network.h"

namespace perfbench {

inline constexpr std::size_t kBrokers = 3;

/// Times a fixed bench-owned integer kernel on the loop thread: 1024-bit
/// Montgomery multiplies in 32-bit limbs, each into a new vector, the
/// shape of the program's RSA work. The host's CPU speed drifts with its
/// other tenants by up to ~1.8x; the kernel's time says how fast the loop
/// ran in any stretch of a run. Over three minutes of alternating runs on
/// a shared 4-vCPU guest, the RSA-1024 sign time stayed within +-4 % of a
/// fixed multiple of this kernel's time while it moved by +-12 % itself.
class SpeedGauge {
 public:
  /// The kernel's time at reference speed (a quiet 4-vCPU Xeon KVM
  /// guest); metrics "at reference speed" are scaled to it.
  static constexpr double kReferenceUs = 98.0;

  void run_kernel();
  /// Sum of kernel times (us) and runs so far.
  [[nodiscard]] std::pair<double, std::uint64_t> read() const {
    return {static_cast<double>(sum_ns_.load()) / 1e3, runs_.load()};
  }
  /// Reference kernel time over the mean kernel time since `from` (an
  /// earlier read()): 0.6 means the loop ran at 60 % of reference speed,
  /// so a time measured meanwhile times 0.6 is that time at reference
  /// speed. The mean, not the median, so that time the hypervisor took
  /// from the loop counts as it does for the program. 1 when the kernel
  /// has not run since.
  [[nodiscard]] double speed_since(std::pair<double, std::uint64_t> from) const;

 private:
  std::atomic<std::int64_t> sum_ns_{0};
  std::atomic<std::uint64_t> runs_{0};
};
inline constexpr std::size_t kKeyBits = 1024;

class Stack {
 public:
  /// `traced` builds every component on a Probe wrapping the network.
  /// `ledger_path` is the hosting broker's WAL file.
  Stack(const et::tracing::TracingConfig& config, bool traced,
        const std::string& ledger_path);
  ~Stack();

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// The backend components are built on (the Probe when traced).
  [[nodiscard]] et::transport::NetworkBackend& backend() { return *backend_; }
  [[nodiscard]] Probe* probe() { return probe_.get(); }

  /// A fresh CA-issued identity sharing the deployment's long-term keys.
  et::crypto::Identity make_identity(const std::string& id);

  [[nodiscard]] et::pubsub::Broker& broker(std::size_t i) {
    return *brokers_.at(i);
  }
  [[nodiscard]] et::tracing::TracingBrokerService& service(std::size_t i) {
    return *services_.at(i);
  }
  [[nodiscard]] const et::tracing::TraceFilterHandle& filter(
      std::size_t i) const {
    return filters_.at(i);
  }
  [[nodiscard]] et::transport::NodeId tdn_node() const { return tdn_->node(); }
  [[nodiscard]] const et::tracing::TrustAnchors& anchors() const {
    return anchors_;
  }
  [[nodiscard]] const et::tracing::TracingConfig& config() const {
    return config_;
  }
  [[nodiscard]] static et::transport::LinkParams link() {
    return et::transport::LinkParams::ideal_profile();
  }

  /// Ledger reads must run in broker-0's context (the ledger is not
  /// thread-safe); see run_on().
  [[nodiscard]] const et::persist::TraceLedger& ledger() const {
    return ledger_;
  }
  [[nodiscard]] const std::string& ledger_path() const { return ledger_path_; }

  /// Milliseconds each of the bench's own rsa_generate calls took.
  [[nodiscard]] const std::vector<double>& keygen_ms() const {
    return keygen_ms_;
  }

  /// Runs `fn` in `node`'s context and waits for it.
  void run_on(et::transport::NodeId node, const std::function<void()>& fn);
  /// Checks `pred` in `node`'s context every 0.2 ms until it holds;
  /// false when it still fails after `timeout_s`.
  bool wait_until(et::transport::NodeId node, const std::function<bool()>& pred,
                  double timeout_s = 30);

  /// The speed gauge's kernel runs on the loop thread from construction,
  /// every 10 ms so a set-up of a few hundred ms gets its own reading,
  /// until stop_speed_gauge(). A measurement window sets a 100 ms period.
  void set_speed_gauge_period(et::Duration period) {
    gauge_period_.store(period);
  }
  void stop_speed_gauge() { gauge_on_.store(false); }
  [[nodiscard]] const SpeedGauge& speed_gauge() const { return gauge_; }

  /// Stops the loop thread. Call before destroying the workload's clients.
  void stop() { net_.stop(); }

 private:
  et::crypto::RsaKeyPair timed_keygen(et::Rng& rng);
  void arm_speed_gauge();

  et::tracing::TracingConfig config_;
  std::string ledger_path_;
  std::vector<double> keygen_ms_;
  et::transport::SocketNetwork net_;
  std::unique_ptr<Probe> probe_;
  et::transport::NetworkBackend* backend_;
  et::Rng rng_;
  std::unique_ptr<et::crypto::CertificateAuthority> ca_;
  et::crypto::RsaKeyPair shared_keys_;
  et::tracing::TrustAnchors anchors_;
  std::unique_ptr<et::discovery::Tdn> tdn_;
  std::unique_ptr<et::pubsub::Topology> topology_;
  std::vector<et::pubsub::Broker*> brokers_;
  std::vector<et::tracing::TraceFilterHandle> filters_;
  std::vector<std::unique_ptr<et::tracing::TracingBrokerService>> services_;
  et::persist::TraceLedger ledger_;
  SpeedGauge gauge_;
  et::transport::NodeId gauge_node_;
  std::atomic<bool> gauge_on_{true};
  std::atomic<et::Duration> gauge_period_{10 * et::kMillisecond};
};

}  // namespace perfbench
