// trace-chain: the paper's Table 3 path. One TracedEntity on broker-0
// signs every message (kSignEachMessage) and asks for encrypted traces;
// one Tracker on broker-2 receives them. The bench flips the entity's
// state with exactly one flip outstanding (closed loop) and times
// set_state() -> verified, decrypted trace in the tracker's handler.
#include <condition_variable>
#include <mutex>
#include <stdexcept>

#include "perfbench/src/workload.h"
#include "src/tracing/traced_entity.h"
#include "src/tracing/tracker.h"

namespace perfbench {
namespace {

using et::tracing::EntityState;
using et::tracing::TracePayload;
using et::tracing::TraceType;

constexpr double kOpTimeoutS = 2.0;
constexpr std::uint64_t kClientSeed = 0xc11e;

class TraceChain final : public Workload {
 public:
  TraceChain(Stack& stack, std::uint64_t seed)
      : stack_(stack),
        rng_(seed),
        entity_(stack.backend(), stack.make_identity("entity-0"),
                stack.anchors(), stack.config(), kClientSeed),
        tracker_(stack.backend(), stack.make_identity("tracker-0"),
                 stack.anchors(), kClientSeed + 1) {}

  void setup(SetupLog& log) override {
    entity_.attach_tdn(stack_.tdn_node(), Stack::link());
    entity_.connect_broker(stack_.broker(0).node(), Stack::link());
    tracker_.attach_tdn(stack_.tdn_node(), Stack::link());
    tracker_.connect_broker(stack_.broker(kBrokers - 1).node(), Stack::link());

    double t0 = wall_s();
    Ready started;
    entity_.start_tracing({}, started.callback());
    if (const et::Status s = started.wait(30); !s.is_ok()) {
      throw std::runtime_error("start_tracing: " + s.to_string());
    }
    log.start_tracing_ms.push_back((wall_s() - t0) * 1e3);

    t0 = wall_s();
    Ready tracked;
    tracker_.track(
        entity_.entity_id(),
        et::tracing::kCatStateTransitions |
            et::tracing::kCatChangeNotifications,
        [this](const TracePayload& p, const et::pubsub::Message&) {
          on_trace(p);
        },
        tracked.callback());
    if (const et::Status s = tracked.wait(30); !s.is_ok()) {
      throw std::runtime_error("track: " + s.to_string());
    }
    log.track_ms.push_back((wall_s() - t0) * 1e3);

    // First delivery: READY reaches the tracker once its interest and the
    // trace key have reached broker-0 (a suppressed report is replayed).
    {
      std::lock_guard lock(mu_);
      expected_ = EntityState::kReady;
      outstanding_ = true;
    }
    entity_.set_state(EntityState::kReady);
    std::unique_lock lock(mu_);
    if (!cv_.wait_for(lock, std::chrono::seconds(30),
                      [&] { return !outstanding_; })) {
      throw std::runtime_error("first trace never arrived");
    }
    current_ = EntityState::kReady;
    warm_ = true;
  }

  void run(double seconds, Window& w) override {
    static constexpr EntityState kStates[] = {
        EntityState::kInitializing, EntityState::kRecovering,
        EntityState::kReady};
    Probe* probe = stack_.probe();
    const double end = wall_s() + seconds;
    w.rec.start();
    while (wall_s() < end) {
      EntityState next;
      do {
        next = kStates[rng_.next_below(3)];
      } while (next == current_);
      std::int64_t t0;
      {
        std::lock_guard lock(mu_);
        expected_ = next;
        outstanding_ = true;
        t0 = now_ns();
      }
      ++w.attempted;
      if (probe) probe->set_request(static_cast<std::uint32_t>(w.attempted));
      entity_.set_state(next);
      std::unique_lock lock(mu_);
      if (!cv_.wait_for(lock, std::chrono::duration<double>(kOpTimeoutS),
                        [&] { return !outstanding_; })) {
        ++w.failed;
        w.violations.push_back("state flip " + std::to_string(w.attempted) +
                               " not delivered within 2 s");
        break;  // a late delivery would be misattributed; stop here
      }
      if (probe) probe->set_request(0);
      current_ = next;
      ++w.ops;
      w.rec.op();
      w.rec.latency(static_cast<double>(delivered_at_ - t0) / 1e6);
      w.rec.tick();
      w.requests.emplace_back(t0, delivered_at_);
    }
    w.rec.stop();
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

  [[nodiscard]] Roles roles() override {
    return {{entity_.client().node()}, tracker_.client().node(), false};
  }

 private:
  // Tracker context (loop thread).
  void on_trace(const TracePayload& p) {
    const std::int64_t at = now_ns();
    std::lock_guard lock(mu_);
    if (p.entity_id != entity_.entity_id()) {
      violations_.push_back("trace for unknown entity " + p.entity_id);
      return;
    }
    switch (p.type) {
      case TraceType::kInitializing:
      case TraceType::kRecovering:
      case TraceType::kReady:
      case TraceType::kShutdown:
        break;
      case TraceType::kJoin:
        return;
      default:
        violations_.push_back("unexpected " +
                              std::string(et::tracing::trace_type_name(p.type)) +
                              " trace");
        return;
    }
    const bool right = outstanding_ && p.state.has_value() &&
                       *p.state == expected_;
    if (!warm_) {
      // Before the first delivery the entity's own start-up report may
      // arrive first; only READY completes set-up.
      if (right) {
        outstanding_ = false;
        cv_.notify_all();
      }
      return;
    }
    if (!right) {
      violations_.push_back(
          outstanding_ ? "state trace out of order or wrong state"
                       : "state trace delivered with no flip outstanding");
      return;
    }
    delivered_at_ = at;
    outstanding_ = false;
    cv_.notify_all();
  }

  Stack& stack_;
  et::Rng rng_;
  et::tracing::TracedEntity entity_;
  et::tracing::Tracker tracker_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool warm_ = false;
  bool outstanding_ = false;
  EntityState expected_ = EntityState::kReady;
  EntityState current_ = EntityState::kReady;
  std::int64_t delivered_at_ = 0;
  std::vector<std::string> violations_;
};

}  // namespace

WorkloadSpec trace_chain_spec() {
  WorkloadSpec w;
  w.name = "trace-chain";
  w.config = paper_config();
  w.config.signing_mode = et::tracing::EntitySigningMode::kSignEachMessage;
  w.config.secure_traces = true;
  w.pacing = Pacing::kCpu;
  w.rss_ops = 5000;
  w.names = {"trace_p50_ms", "trace_p90_ms", "trace_cpu_us", "traces_per_s"};
  w.make = [](Stack& stack, std::uint64_t seed) -> std::unique_ptr<Workload> {
    return std::make_unique<TraceChain>(stack, seed);
  };
  return w;
}

}  // namespace perfbench
