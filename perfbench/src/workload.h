// The interface the three workloads implement, and what one measurement
// window produces.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/src/stack.h"

namespace perfbench {

/// Latencies in a log-linear histogram (0.2 % resolution) that stores only
/// the range of buckets it has seen, so the bench's own memory stays small
/// however long the run.
class Samples {
 public:
  void add(double ms);
  /// Adds `other`'s samples, each multiplied by `scale`.
  void merge(const Samples& other, double scale = 1);
  [[nodiscard]] std::uint64_t size() const { return n_; }
  [[nodiscard]] double mean() const { return n_ == 0 ? 0 : sum_ / n_; }
  /// Nearest-rank percentile, p in (0, 100]; 0 when empty.
  [[nodiscard]] double pct(double p) const;

 private:
  void bump(std::size_t bucket, std::uint64_t count);

  std::size_t base_ = 0;                // bucket of counts_[0]
  std::vector<std::uint64_t> counts_;  // buckets base_ .. base_ + size - 1
  std::uint64_t n_ = 0;
  double sum_ = 0;
};

/// About one second of a measurement window.
struct Slice {
  double wall_s = 0;
  double cpu_s = 0;  // process CPU
  std::uint64_t ops = 0;
  Samples latency_ms;
  /// Loop speed in this slice as a share of reference speed
  /// (SpeedGauge::speed_since).
  double speed = 1;
};

/// Cuts a measurement window into one-second slices. op() and latency()
/// may be called from any thread; start(), tick() and stop() run on the
/// bench thread, which calls tick() at least every 100 ms.
class Recorder {
 public:
  Recorder() : mu_(std::make_unique<std::mutex>()) {}
  /// Reads the loop's speed per slice (optional; set before start()).
  void set_gauge(const SpeedGauge* gauge) { gauge_ = gauge; }
  /// Reads the process's peak RSS at the first tick() once `ops` ops have
  /// been counted (set before start()).
  void set_rss_ops(std::uint64_t ops) { rss_ops_ = ops; }
  void start();
  void op(std::uint64_t n = 1);
  void latency(double ms);
  void tick();
  void stop();
  /// Closed slices (call after stop()).
  [[nodiscard]] const std::vector<Slice>& slices() const { return done_; }
  /// Peak RSS (MiB) read after the set_rss_ops() count; 0 when the window
  /// never reached it.
  [[nodiscard]] double rss_mb() const { return rss_mb_; }

 private:
  void roll(std::int64_t now);  // caller holds *mu_

  std::unique_ptr<std::mutex> mu_;
  std::vector<Slice> done_;
  Slice cur_;
  std::int64_t start_ns_ = 0;
  double start_cpu_ = 0;
  const SpeedGauge* gauge_ = nullptr;
  std::pair<double, std::uint64_t> start_gauge_{0, 0};
  std::uint64_t ops_ = 0;  // ops counted since start()
  std::uint64_t rss_ops_ = 0;
  double rss_mb_ = 0;                 // bench thread only
  std::int64_t next_rss_check_ns_ = 0;  // bench thread only
};

/// One-shot slot for the program's ready callbacks. The state is shared,
/// so a callback that fires after the waiter gave up touches nothing dead.
class Ready {
 public:
  Ready() : s_(std::make_shared<State>()) {}
  [[nodiscard]] std::function<void(const et::Status&)> callback() const;
  /// Waits up to `timeout_s`; a timeout reads as kUnavailable.
  [[nodiscard]] et::Status wait(double timeout_s) const;

 private:
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    et::Status status;
  };
  std::shared_ptr<State> s_;
};

/// Process CPU time (user + system, all threads), seconds.
double process_cpu_s();

/// Peak resident memory of the process so far (VmHWM), MiB.
double peak_rss_mb();

/// Seconds on the steady clock.
inline double wall_s() { return static_cast<double>(now_ns()) / 1e9; }

/// Timings of the set-up calls, in milliseconds.
struct SetupLog {
  std::vector<double> start_tracing_ms;  // start_tracing -> ready
  std::vector<double> register_ms;       // register_entities -> ready
  std::vector<double> track_ms;          // track/track_host -> ready
};

/// What paces a workload's op latency and set-up, which decides what is
/// scaled to reference speed (see window_metrics in main.cpp).
enum class Pacing : std::uint8_t {
  kCpu,    // loop CPU work (trace-chain, pubsub-flood)
  kTimer,  // protocol timers (fleet-flap)
};

/// Percentile op_tail_ms reports. On fleet-flap (~10 flaps a second) p90
/// is the highest with ten samples beyond it in 30 s. trace-chain and
/// pubsub-flood have enough samples for p99, but on a shared host their
/// p99 is set by hypervisor stalls: in busy stretches whole runs read
/// 1.5-2.5x their quiet p99, and ten runs spread 0.7-0.8 where their p90
/// spread 0.12. The console still prints the p99 (op_p99_ms).
inline constexpr double kTailPct = 90;

/// What one measurement window produced.
struct Window {
  /// Per-slice ops, CPU and (for CPU-bound ops) latencies.
  Recorder rec;
  /// Whole-window latencies of a timer-paced op (fleet-flap detection).
  Samples latency_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // timeouts and wrong outputs
  std::uint64_t ops = 0;     // units the per-op metrics divide by
  /// [start, end] of each request, steady-clock ns, for a workload that
  /// keeps one request in flight (trace-chain). The traced run checks
  /// that spans cover these intervals.
  std::vector<std::pair<std::int64_t, std::int64_t>> requests;
  /// Correctness gate violations; any one fails the run.
  std::vector<std::string> violations;
};

/// One printed value: a metric, a console figure or a diagnostic.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t n = 0;  // samples or operations behind the value
  std::string note;     // the base of a ratio, or what the value means
};

/// Node roles the per-layer metrics are taken at.
struct Roles {
  std::vector<et::transport::NodeId> senders;  // edge clients that start ops
  et::transport::NodeId receiver = et::transport::kInvalidNode;
  /// True when the bench's own call is Client::publish (pubsub-flood);
  /// otherwise publishes are the senders' self-posted tasks.
  bool bench_publishes = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the clients on the stack and returns once the first operation
  /// has been delivered. Throws std::runtime_error on failure.
  virtual void setup(SetupLog& log) = 0;
  /// Drives the load for `seconds` and fills `w`.
  virtual void run(double seconds, Window& w) = 0;
  /// Workload-specific gates after the window (the stack is still live).
  virtual void check(Window& w) = 0;
  [[nodiscard]] virtual Roles roles() = 0;
  /// Console figures beyond the generic ones, as measured.
  [[nodiscard]] virtual std::vector<Metric> extra_metrics() const {
    return {};
  }
};

/// What the bench needs to know about a workload beyond its interface.
struct WorkloadSpec {
  std::string name;
  /// Tracing configuration the stack is built with.
  et::tracing::TracingConfig config;
  Pacing pacing = Pacing::kCpu;
  /// peak_rss_mb is read once the window has completed this many ops
  /// (about ten seconds' worth), so every run measures the same work even
  /// where memory grows with ops (trace-chain's ledger keeps every record).
  std::uint64_t rss_ops = 0;
  /// The workload's own names for op_p50_ms, op_tail_ms, op_cpu_us and
  /// ops_per_s, printed on the console.
  std::array<std::string, 4> names;
  std::unique_ptr<Workload> (*make)(Stack& stack, std::uint64_t seed) =
      nullptr;
};

/// The paper's §6.1 tracing set-up the workloads start from: RSA-1024
/// delegate keys, SHA-1 signatures, AES-192, a 500 ms ping.
et::tracing::TracingConfig paper_config();

/// Every workload; `find_workload` returns nullptr for an unknown name.
const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

WorkloadSpec trace_chain_spec();
WorkloadSpec fleet_flap_spec();
WorkloadSpec pubsub_flood_spec();

}  // namespace perfbench
