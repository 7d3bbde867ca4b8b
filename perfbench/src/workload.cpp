#include "perfbench/src/workload.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>

namespace perfbench {

namespace {

// Values below 1024 ns get their own bucket; above, each power of two
// [512 * 2^m, 1024 * 2^m) ns splits into 512 buckets of width 2^m.
std::size_t bucket_of(std::uint64_t ns) {
  if (ns < 1024) return ns;
  const int m = 63 - __builtin_clzll(ns) - 9;
  return 1024 + static_cast<std::size_t>(m - 1) * 512 + ((ns >> m) - 512);
}

double bucket_mid_ns(std::size_t i) {
  if (i < 1024) return static_cast<double>(i);
  const std::size_t m = (i - 1024) / 512 + 1;
  const std::uint64_t lo = (512 + (i - 1024) % 512) << m;
  return static_cast<double>(lo) + static_cast<double>(1ULL << m) / 2;
}

}  // namespace

void Samples::bump(std::size_t bucket, std::uint64_t count) {
  if (counts_.empty()) {
    base_ = bucket;
  } else if (bucket < base_) {
    counts_.insert(counts_.begin(), base_ - bucket, 0);
    base_ = bucket;
  }
  if (bucket - base_ >= counts_.size()) counts_.resize(bucket - base_ + 1, 0);
  counts_[bucket - base_] += count;
}

void Samples::add(double ms) {
  bump(bucket_of(static_cast<std::uint64_t>(std::max(0.0, ms * 1e6))), 1);
  ++n_;
  sum_ += ms;
}

void Samples::merge(const Samples& other, double scale) {
  for (std::size_t i = 0; i < other.counts_.size(); ++i) {
    if (other.counts_[i] == 0) continue;
    const std::size_t from = other.base_ + i;
    bump(scale == 1 ? from
                    : bucket_of(static_cast<std::uint64_t>(
                          bucket_mid_ns(from) * scale)),
         other.counts_[i]);
  }
  n_ += other.n_;
  sum_ += other.sum_ * scale;
}

double Samples::pct(double p) const {
  if (n_ == 0) return 0;
  const auto rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(p / 100.0 * static_cast<double>(n_))),
      1, n_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= rank) return bucket_mid_ns(base_ + i) / 1e6;
  }
  return bucket_mid_ns(base_ + counts_.size() - 1) / 1e6;
}

void Recorder::start() {
  std::lock_guard lock(*mu_);
  done_.clear();
  cur_ = Slice{};
  ops_ = 0;
  rss_mb_ = 0;
  next_rss_check_ns_ = 0;
  start_ns_ = now_ns();
  start_cpu_ = process_cpu_s();
  if (gauge_ != nullptr) start_gauge_ = gauge_->read();
}

void Recorder::op(std::uint64_t n) {
  std::lock_guard lock(*mu_);
  cur_.ops += n;
  ops_ += n;
}

void Recorder::latency(double ms) {
  std::lock_guard lock(*mu_);
  cur_.latency_ms.add(ms);
}

void Recorder::tick() {
  const std::int64_t now = now_ns();
  const bool roll_due = now - start_ns_ >= 1'000'000'000;
  // The op count is checked every 100 ms at most, so a tick per op stays
  // cheap.
  const bool rss_due =
      rss_mb_ == 0 && rss_ops_ != 0 && now >= next_rss_check_ns_;
  if (!roll_due && !rss_due) return;
  std::lock_guard lock(*mu_);
  if (rss_due) {
    next_rss_check_ns_ = now + 100'000'000;
    if (ops_ >= rss_ops_) rss_mb_ = peak_rss_mb();
  }
  if (roll_due) roll(now);
}

void Recorder::stop() {
  std::lock_guard lock(*mu_);
  roll(now_ns());
}

void Recorder::roll(std::int64_t now) {
  const double cpu = process_cpu_s();
  cur_.wall_s = static_cast<double>(now - start_ns_) / 1e9;
  cur_.cpu_s = cpu - start_cpu_;
  if (gauge_ != nullptr) {
    cur_.speed = gauge_->speed_since(start_gauge_);
    start_gauge_ = gauge_->read();
  }
  done_.push_back(std::move(cur_));
  cur_ = Slice{};
  start_ns_ = now;
  start_cpu_ = cpu;
}

std::function<void(const et::Status&)> Ready::callback() const {
  return [s = s_](const et::Status& status) {
    std::lock_guard lock(s->mu);
    if (s->done) return;
    s->done = true;
    s->status = status;
    s->cv.notify_all();
  };
}

et::Status Ready::wait(double timeout_s) const {
  std::unique_lock lock(s_->mu);
  if (!s_->cv.wait_for(lock, std::chrono::duration<double>(timeout_s),
                       [&] { return s_->done; })) {
    return et::unavailable("no ready callback within the timeout");
  }
  return s_->status;
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

double process_cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return secs(u.ru_utime) + secs(u.ru_stime);
}

et::tracing::TracingConfig paper_config() {
  et::tracing::TracingConfig c;
  c.ping_interval = 500 * et::kMillisecond;
  c.gauge_interval = 5 * et::kSecond;
  c.metrics_interval = 5 * et::kSecond;
  c.delegate_key_bits = kKeyBits;
  c.symmetric_alg = et::crypto::SymmetricAlg::kAes192Cbc;
  return c;
}

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      trace_chain_spec(), fleet_flap_spec(), pubsub_flood_spec()};
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
