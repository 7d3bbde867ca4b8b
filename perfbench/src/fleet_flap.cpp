// fleet-flap: two EntityHosts with 4096 members each on broker-0, one
// Tracker on broker-2 tracking both hosts. Sessions are symmetric
// (kSymmetricSession), heartbeats coalesce into 500 ms digests and the
// broker's session timers ride a 50 ms wheel. Every 100 ms a seeded
// schedule makes one member unresponsive; once the tracker sees that
// member's FAILED trace the member is made responsive again, and the
// urgent "responsive again" ALLS_WELL ends the flap.
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "perfbench/src/workload.h"
#include "src/tracing/entity_host.h"
#include "src/tracing/tracker.h"

namespace perfbench {
namespace {

using et::tracing::TracePayload;
using et::tracing::TraceType;

constexpr std::size_t kHosts = 2;
constexpr std::size_t kMembers = 4096;
constexpr double kFlapPeriodS = 0.1;
// Detection takes failed_misses x ping_interval (~3 s) and recovery one
// more ping; no flap starts this close to the end of the window.
constexpr double kFlapTailS = 4.0;
constexpr double kGraceS = 3.0;
constexpr std::uint64_t kClientSeed = 0xf1ee7;

std::string member_id(std::size_t host, std::size_t i) {
  std::string id = "h";
  id += std::to_string(host);
  id += ".e";
  id += std::to_string(i);
  return id;
}

class FleetFlap final : public Workload {
 public:
  FleetFlap(Stack& stack, std::uint64_t seed)
      : stack_(stack),
        rng_(seed),
        tracker_(stack.backend(), stack.make_identity("tracker-0"),
                 stack.anchors(), kClientSeed + kHosts) {
    for (std::size_t h = 0; h < kHosts; ++h) {
      hosts_.push_back(std::make_unique<et::tracing::EntityHost>(
          stack.backend(), stack.make_identity("host-" + std::to_string(h)),
          stack.anchors(), stack.config(), kClientSeed + h));
      for (std::size_t i = 0; i < kMembers; ++i) {
        index_[member_id(h, i)] = flaps_.size();
        flaps_.push_back({h, i});
      }
    }
  }

  void setup(SetupLog& log) override {
    for (auto& host : hosts_) {
      host->attach_tdn(stack_.tdn_node(), Stack::link());
      host->connect_broker(stack_.broker(0).node(), Stack::link());
    }
    tracker_.attach_tdn(stack_.tdn_node(), Stack::link());
    tracker_.connect_broker(stack_.broker(kBrokers - 1).node(), Stack::link());

    for (std::size_t h = 0; h < kHosts; ++h) {
      std::vector<std::string> ids;
      for (std::size_t i = 0; i < kMembers; ++i) ids.push_back(member_id(h, i));
      const double t0 = wall_s();
      Ready registered;
      hosts_[h]->register_entities({}, std::move(ids), registered.callback());
      if (const et::Status s = registered.wait(30); !s.is_ok()) {
        throw std::runtime_error("register_entities: " + s.to_string());
      }
      log.register_ms.push_back((wall_s() - t0) * 1e3);
    }
    for (auto& host : hosts_) {
      const double t0 = wall_s();
      Ready tracked;
      tracker_.track_host(
          host->host_id(), et::tracing::kCatAll,
          [this](const TracePayload& p, const et::pubsub::Message&) {
            on_trace(p);
          },
          tracked.callback());
      if (const et::Status s = tracked.wait(30); !s.is_ok()) {
        throw std::runtime_error("track_host: " + s.to_string());
      }
      log.track_ms.push_back((wall_s() - t0) * 1e3);
    }
    // First delivery: a heartbeat from every host.
    std::unique_lock lock(mu_);
    if (!cv_.wait_for(lock, std::chrono::seconds(30), [&] {
          for (const bool seen : host_seen_) {
            if (!seen) return false;
          }
          return true;
        })) {
      throw std::runtime_error("first heartbeat never arrived");
    }
  }

  void run(double seconds, Window& w) override {
    if (seconds <= kFlapTailS) {
      w.violations.push_back("fleet-flap needs --seconds above " +
                             std::to_string(kFlapTailS) + ": no flap starts");
    }
    const double start = wall_s();
    const double last_flap = start + seconds - kFlapTailS;
    {
      std::lock_guard lock(mu_);
      observations_ = 0;
      rec_ = &w.rec;
      rec_->start();
    }
    for (std::size_t k = 0;; ++k) {
      const double due = start + static_cast<double>(k) * kFlapPeriodS;
      if (due > last_flap) break;
      const double now = wall_s();
      if (due > now) {
        std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
      }
      w.rec.tick();
      std::size_t host;
      std::string id;
      {
        std::lock_guard lock(mu_);
        std::size_t pick;
        do {
          pick = rng_.next_below(flaps_.size());
        } while (flaps_[pick].phase != Phase::kIdle);  // each flaps once
        Flap& f = flaps_[pick];
        f.phase = Phase::kDown;
        f.down_at = now_ns();
        ++started_;
        host = f.host;
        id = member_id(f.host, f.index);
      }
      ++w.attempted;
      hosts_[host]->set_responsive(id, false);
    }
    // Let the last flaps finish, within the run length plus a grace period.
    std::unique_lock lock(mu_);
    while (finished_ != started_ && wall_s() < start + seconds + kGraceS) {
      cv_.wait_for(lock, std::chrono::milliseconds(100));
      w.rec.tick();
    }
    w.rec.stop();
    rec_ = nullptr;
    recover_ms_ = Samples{};
    for (const Flap& f : flaps_) {
      if (f.phase == Phase::kIdle) continue;
      if (f.phase != Phase::kRecovered) {
        ++w.failed;
        w.violations.push_back("flap of " + member_id(f.host, f.index) +
                               " not detected and recovered in time");
        continue;
      }
      w.latency_ms.add(static_cast<double>(f.failed_at - f.down_at) / 1e6);
      recover_ms_.add(static_cast<double>(f.recovered_at - f.up_at) / 1e6);
    }
    w.ops = observations_;
  }

  void check(Window& w) override {
    {
      std::lock_guard lock(mu_);
      for (const std::string& v : violations_) w.violations.push_back(v);
    }
    stack_.run_on(tracker_.client().node(), [&] {
      const et::tracing::TrackerStats& s = tracker_.stats();
      if (s.traces_rejected != 0 || s.undecryptable != 0) {
        w.violations.push_back(
            "tracker rejected " + std::to_string(s.traces_rejected) +
            " and could not decrypt " + std::to_string(s.undecryptable));
      }
    });
  }

  [[nodiscard]] std::vector<Metric> extra_metrics() const override {
    return {{"recover_p50_ms", recover_ms_.pct(50), "ms", recover_ms_.size(),
             "set_responsive(id, true) -> urgent ALLS_WELL, p50"}};
  }

  [[nodiscard]] Roles roles() override {
    Roles r;
    for (const auto& host : hosts_) r.senders.push_back(host->client().node());
    r.receiver = tracker_.client().node();
    return r;
  }

 private:
  enum class Phase : std::uint8_t { kIdle, kDown, kFailed, kRecovered };
  struct Flap {
    std::size_t host = 0;
    std::size_t index = 0;
    Phase phase = Phase::kIdle;
    std::int64_t down_at = 0;
    std::int64_t failed_at = 0;
    std::int64_t up_at = 0;
    std::int64_t recovered_at = 0;
  };

  // Tracker context (loop thread).
  void on_trace(const TracePayload& p) {
    const std::int64_t at = now_ns();
    std::lock_guard lock(mu_);
    ++observations_;
    if (rec_ != nullptr) rec_->op();
    const auto it = index_.find(p.entity_id);
    if (it == index_.end()) {
      // Host-level traces (JOIN, gauges, metrics) name the host itself.
      const bool failure = p.type == TraceType::kFailureSuspicion ||
                           p.type == TraceType::kFailed ||
                           p.type == TraceType::kDisconnect;
      if (!is_host(p.entity_id) || failure) {
        violations_.push_back(
            std::string(et::tracing::trace_type_name(p.type)) +
            " trace for " + p.entity_id);
      }
      return;
    }
    Flap& f = flaps_[it->second];
    if (!host_seen_[f.host] && p.type == TraceType::kAllsWell) {
      host_seen_[f.host] = true;
      cv_.notify_all();
    }
    switch (p.type) {
      case TraceType::kFailureSuspicion:
        if (f.phase != Phase::kDown) {
          violations_.push_back("suspicion of responsive member " +
                                p.entity_id);
        }
        return;
      case TraceType::kFailed:
        if (f.phase != Phase::kDown) {
          violations_.push_back("FAILED for member " + p.entity_id +
                                " that was not made unresponsive");
          return;
        }
        f.phase = Phase::kFailed;
        f.failed_at = at;
        f.up_at = now_ns();
        hosts_[f.host]->set_responsive(p.entity_id, true);
        return;
      case TraceType::kAllsWell:
        if (p.detail.empty()) return;  // plain heartbeat
        if (f.phase != Phase::kFailed) {
          violations_.push_back("recovery of member " + p.entity_id +
                                " that had not failed");
          return;
        }
        f.phase = Phase::kRecovered;
        f.recovered_at = at;
        ++finished_;
        cv_.notify_all();
        return;
      case TraceType::kDisconnect:
        violations_.push_back("DISCONNECT for member " + p.entity_id);
        return;
      default:
        return;
    }
  }

  [[nodiscard]] bool is_host(const std::string& id) const {
    for (const auto& host : hosts_) {
      if (host->host_id() == id) return true;
    }
    return false;
  }

  Stack& stack_;
  et::Rng rng_;
  std::vector<std::unique_ptr<et::tracing::EntityHost>> hosts_;
  et::tracing::Tracker tracker_;
  std::unordered_map<std::string, std::size_t> index_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Flap> flaps_;
  bool host_seen_[kHosts] = {};
  std::uint64_t observations_ = 0;
  Recorder* rec_ = nullptr;  // the window being measured
  std::uint64_t started_ = 0;
  std::uint64_t finished_ = 0;
  Samples recover_ms_;  // bench thread, after the window
  std::vector<std::string> violations_;
};

}  // namespace

WorkloadSpec fleet_flap_spec() {
  WorkloadSpec w;
  w.name = "fleet-flap";
  w.config = paper_config();
  w.config.signing_mode = et::tracing::EntitySigningMode::kSymmetricSession;
  w.config.digest_interval = 500 * et::kMillisecond;
  w.config.timer_wheel_tick = 50 * et::kMillisecond;
  w.pacing = Pacing::kTimer;
  w.rss_ops = 150000;
  w.names = {"detect_p50_ms", "detect_p90_ms", "obs_cpu_us", "obs_per_s"};
  w.make = [](Stack& stack, std::uint64_t seed) -> std::unique_ptr<Workload> {
    return std::make_unique<FleetFlap>(stack, seed);
  };
  return w;
}

}  // namespace perfbench
