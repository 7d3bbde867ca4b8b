// pubsub-flood: one pubsub::Client on broker-0 publishes 64-byte messages
// on a non-trace topic across the filtered chain to one subscriber on
// broker-2, keeping a closed window of 32 messages in flight (a model of
// flow-controlled TCP). No crypto runs: the trace filter passes the topic
// through, so transport and pubsub do all the work.
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <stdexcept>

#include "perfbench/src/workload.h"
#include "src/pubsub/client.h"

namespace perfbench {
namespace {

constexpr char kTopic[] = "bench/flood";
constexpr std::size_t kPayloadBytes = 64;
constexpr std::size_t kWindow = 32;
constexpr double kDrainS = 5.0;
constexpr std::uint8_t kData = 0;
constexpr std::uint8_t kWarmup = 1;

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class PubsubFlood final : public Workload {
 public:
  PubsubFlood(Stack& stack, std::uint64_t seed)
      : stack_(stack),
        seed_(seed),
        pub_(stack.backend(), "publisher"),
        sub_(stack.backend(), "subscriber") {}

  void setup(SetupLog&) override {
    Ready pub_connected, sub_connected, subscribed;
    pub_.connect(stack_.broker(0).node(), Stack::link(),
                 pub_connected.callback());
    sub_.connect(stack_.broker(kBrokers - 1).node(), Stack::link(),
                 sub_connected.callback());
    for (const Ready* r : {&pub_connected, &sub_connected}) {
      if (const et::Status s = r->wait(30); !s.is_ok()) {
        throw std::runtime_error("connect: " + s.to_string());
      }
    }
    std::size_t edges_before = 0;
    stack_.run_on(stack_.broker(0).node(), [&] {
      edges_before = stack_.broker(0).interest_edges();
    });
    sub_.subscribe(
        kTopic, [this](const et::pubsub::Message& m) { on_message(m); },
        subscribed.callback());
    if (const et::Status s = subscribed.wait(30); !s.is_ok()) {
      throw std::runtime_error("subscribe: " + s.to_string());
    }
    // First delivery: the subscription reaches broker-0 asynchronously,
    // one hop at a time. Once broker-0 holds the new interest edge, one
    // warm-up message is published and set-up ends when it arrives.
    if (!stack_.wait_until(stack_.broker(0).node(), [&] {
          return stack_.broker(0).interest_edges() > edges_before;
        })) {
      throw std::runtime_error("subscription never reached broker-0");
    }
    pub_.publish(kTopic, payload(kWarmup, 0));
    std::unique_lock lock(mu_);
    if (!cv_.wait_for(lock, std::chrono::seconds(30), [&] { return warm_; })) {
      throw std::runtime_error("first message never arrived");
    }
  }

  void run(double seconds, Window& w) override {
    materialized_before_ = materialized();
    const double end = wall_s() + seconds;
    std::uint64_t seq = 0;
    std::unique_lock lock(mu_);
    rec_ = &w.rec;
    rec_->start();
    while (wall_s() < end) {
      rec_->tick();
      if (in_flight_ >= kWindow) {
        waiting_ = true;
        cv_.wait_for(lock, std::chrono::milliseconds(100),
                     [&] { return in_flight_ < kWindow; });
        waiting_ = false;
        continue;
      }
      ++in_flight_;
      sent_at_[seq % kWindow] = now_ns();
      lock.unlock();
      pub_.publish(kTopic, payload(kData, seq));
      ++seq;
      lock.lock();
    }
    if (!cv_.wait_for(lock, std::chrono::duration<double>(kDrainS),
                      [&] { return in_flight_ == 0; })) {
      w.violations.push_back(std::to_string(in_flight_) +
                             " messages never delivered");
    }
    w.attempted = seq;
    w.failed = in_flight_;
    rec_->stop();
    rec_ = nullptr;
    w.ops = next_;
  }

  void check(Window& w) override {
    {
      std::lock_guard lock(mu_);
      for (const std::string& v : violations_) w.violations.push_back(v);
    }
    // Forwarding must stay zero-copy and drop nothing.
    std::uint64_t discarded = 0;
    for (std::size_t i = 0; i < kBrokers; ++i) {
      discarded += stack_.broker(i).stats().discarded;
    }
    const std::uint64_t copies = materialized() - materialized_before_;
    if (copies != 0 || discarded != 0) {
      w.violations.push_back("brokers materialized " + std::to_string(copies) +
                             " and discarded " + std::to_string(discarded) +
                             " messages");
    }
  }

  [[nodiscard]] Roles roles() override {
    return {{pub_.node()}, sub_.node(), true};
  }

 private:
  [[nodiscard]] et::Bytes payload(std::uint8_t kind, std::uint64_t seq) const {
    et::Bytes b(kPayloadBytes);
    b[0] = kind;
    std::memcpy(&b[1], &seq, sizeof seq);
    for (std::size_t i = 1 + sizeof seq; i < kPayloadBytes; i += 8) {
      const std::uint64_t r = mix(seed_ ^ mix(seq * 131 + i));
      std::memcpy(&b[i], &r, std::min<std::size_t>(8, kPayloadBytes - i));
    }
    return b;
  }

  [[nodiscard]] std::uint64_t materialized() const {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < kBrokers; ++i) {
      n += stack_.broker(i).stats().materialized;
    }
    return n;
  }

  // Subscriber context (loop thread).
  void on_message(const et::pubsub::Message& m) {
    const std::int64_t at = now_ns();
    std::lock_guard lock(mu_);
    if (m.payload.size() != kPayloadBytes) {
      violations_.push_back("message of " + std::to_string(m.payload.size()) +
                            " bytes");
      return;
    }
    if (m.payload[0] == kWarmup) {
      if (!warm_) {
        warm_ = true;
        cv_.notify_all();
      }
      return;
    }
    std::uint64_t seq;
    std::memcpy(&seq, &m.payload[1], sizeof seq);
    if (seq != next_) {
      violations_.push_back("message " + std::to_string(seq) +
                            " arrived when " + std::to_string(next_) +
                            " was due (lost, duplicated or reordered)");
      return;
    }
    if (m.payload != payload(kData, seq)) {
      violations_.push_back("message " + std::to_string(seq) +
                            " payload corrupted");
    }
    if (rec_ != nullptr) {
      rec_->op();
      rec_->latency(static_cast<double>(at - sent_at_[seq % kWindow]) / 1e6);
    }
    ++next_;
    --in_flight_;
    if (waiting_ || in_flight_ == 0) cv_.notify_all();
  }

  Stack& stack_;
  std::uint64_t seed_;
  std::uint64_t materialized_before_ = 0;
  et::pubsub::Client pub_;
  et::pubsub::Client sub_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool warm_ = false;
  bool waiting_ = false;
  std::size_t in_flight_ = 0;
  std::uint64_t next_ = 0;
  std::int64_t sent_at_[kWindow] = {};
  Recorder* rec_ = nullptr;  // the window being measured
  std::vector<std::string> violations_;
};

}  // namespace

WorkloadSpec pubsub_flood_spec() {
  WorkloadSpec w;
  w.name = "pubsub-flood";
  w.config = paper_config();
  w.pacing = Pacing::kCpu;
  w.rss_ops = 500000;
  w.names = {"flood_p50_ms", "flood_p90_ms", "flood_cpu_us",
             "flood_msgs_per_s"};
  w.make = [](Stack& stack, std::uint64_t seed) -> std::unique_ptr<Workload> {
    return std::make_unique<PubsubFlood>(stack, seed);
  };
  return w;
}

}  // namespace perfbench
