// perfbench: the repository benchmark.
//
//   perfbench --workload <trace-chain|fleet-flap|pubsub-flood> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir>
//
// --trace 0 sets the deployment up seven times (reporting the median
// set-up time), measures the last one for --seconds and prints the
// end-to-end metrics. --trace 1 measures an untraced pass and then a
// traced pass of the same length, prints the per-layer metrics of the
// traced pass plus the tracing overhead on every end-to-end metric, and
// writes the traced pass's spans to <work-dir>. Either way the last line
// of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is non-zero when a correctness gate failed.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <unistd.h>
#include <vector>

#include "perfbench/src/workload.h"
#include "src/common/logging.h"
#include "src/crypto/sha256.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using et::pubsub::BrokerStats;

const std::int64_t g_process_start_ns = now_ns();

// Set-ups per --trace 0 run; setup_s is their median.
constexpr int kSetups = 7;

struct Args {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";
};

// --- program counters ------------------------------------------------------

struct Counters {
  std::vector<BrokerStats> broker;
  std::vector<et::tracing::TraceFilterStats> filter;
  std::vector<et::tracing::TokenCacheStats> cache;
  std::vector<et::tracing::VerifyPipelineStats> pipeline;
  et::tracing::TraceEmitter::Stats emitter;
  std::size_t ledger_records = 0;
  et::TimerWheel::Stats wheel;
  std::uintmax_t wal_bytes = 0;
};

Counters read_counters(Stack& s) {
  Counters c;
  for (std::size_t i = 0; i < kBrokers; ++i) {
    c.broker.push_back(s.broker(i).stats());
    c.filter.push_back(s.filter(i).stats());
    c.cache.push_back(s.filter(i).cache_stats());
    c.pipeline.push_back(s.filter(i).pipeline_stats());
  }
  s.run_on(s.broker(0).node(), [&] {
    c.emitter = s.service(0).emitter_stats();
    c.ledger_records = s.ledger().total_records();
    c.wheel = s.service(0).timer_stats();
  });
  std::error_code ec;
  c.wal_bytes = fs::file_size(s.ledger_path(), ec);
  return c;
}

/// Gates every workload shares: no filter rejection anywhere, and a
/// hosting-broker ledger whose chains verify and hold every trace
/// broker-0 published.
void common_gates(Stack& s, const Counters& c, Window& w) {
  for (std::size_t i = 0; i < kBrokers; ++i) {
    if (c.filter[i].rejected != 0) {
      w.violations.push_back("broker-" + std::to_string(i) + " filter rejected " +
                             std::to_string(c.filter[i].rejected) + " messages");
    }
  }
  s.run_on(s.broker(0).node(), [&] {
    for (const std::string& v :
         et::persist::LedgerAuditor::verify_all(s.ledger())) {
      w.violations.push_back("ledger: " + v);
    }
    const et::tracing::TraceEmitter::Stats& e = s.service(0).emitter_stats();
    const std::uint64_t published = e.traces_published + e.digests_published;
    if (s.ledger().total_records() != published) {
      w.violations.push_back(
          "ledger holds " + std::to_string(s.ledger().total_records()) +
          " records for " + std::to_string(published) + " published traces");
    }
  });
}

// --- one measured pass ---------------------------------------------------

struct Pass {
  Window w;
  SetupLog log;
  std::vector<double> setup_s;      // at reference speed
  std::vector<double> setup_raw_s;  // as measured
  std::vector<Metric> extra;        // the workload's own console figures
  std::vector<double> keygen_ms;
  Counters before, after;
  Roles roles;
  std::optional<ProbeSnapshot> setup_probe;  // traced: the set-up phase
  std::optional<ProbeSnapshot> probe;        // traced: the window
  std::vector<Span> spans;
  std::uint64_t dropped_spans = 0;
  std::size_t tdn_node = 0;
  std::vector<NodeId> broker_nodes;
  double peak_rss_mb = 0;
  std::string rss_note;
};

Pass run_pass(const Args& a, bool traced, int setups) {
  Pass p;
  for (int i = 0; i < setups; ++i) {
    const std::int64_t t0 =
        (i == 0 && !traced && setups > 1) ? g_process_start_ns : now_ns();
    const fs::path dir =
        fs::path(a.work_dir) / ("run-" + std::to_string(getpid()) + "-" +
                                std::to_string(traced) + std::to_string(i));
    fs::remove_all(dir);
    fs::create_directories(dir);
    auto stack = std::make_unique<Stack>(a.spec->config, traced,
                                         (dir / "broker-0.wal").string());
    auto wl = a.spec->make(*stack, a.seed);
    try {
      wl->setup(p.log);
    } catch (...) {
      stack->stop();  // no handler may run into the clients as they go
      throw;
    }
    // Set-up is CPU work (keygen, signing, registration) plus loopback
    // round trips, so like the window's CPU-set values it is reported at
    // reference speed, from the gauge readings taken during it. A
    // timer-paced workload's set-up ends on a protocol timer (fleet-flap's
    // first digest) and is reported as measured.
    const double raw_s = static_cast<double>(now_ns() - t0) / 1e9;
    p.setup_raw_s.push_back(raw_s);
    p.setup_s.push_back(a.spec->pacing == Pacing::kTimer
                            ? raw_s
                            : raw_s * stack->speed_gauge().speed_since({0, 0}));
    if (i + 1 < setups) {
      stack->stop();
      wl.reset();
      stack.reset();
      fs::remove_all(dir);
      continue;
    }

    p.keygen_ms = stack->keygen_ms();
    p.roles = wl->roles();
    p.tdn_node = stack->tdn_node();
    for (std::size_t b = 0; b < kBrokers; ++b) {
      p.broker_nodes.push_back(stack->broker(b).node());
    }
    if (Probe* probe = stack->probe()) {
      p.setup_probe = probe->snapshot();
      probe->reset_window();
    }
    p.w.rec.set_gauge(&stack->speed_gauge());
    p.w.rec.set_rss_ops(a.spec->rss_ops);
    stack->set_speed_gauge_period(100 * et::kMillisecond);
    p.before = read_counters(*stack);
    wl->run(a.seconds, p.w);
    stack->stop_speed_gauge();
    if (Probe* probe = stack->probe()) p.probe = probe->snapshot();
    p.after = read_counters(*stack);
    wl->check(p.w);
    common_gates(*stack, p.after, p.w);
    if (p.w.attempted == 0 || p.w.ops == 0) {
      p.w.violations.push_back(
          "the window attempted " + std::to_string(p.w.attempted) +
          " and completed " + std::to_string(p.w.ops) + " operations");
    }
    p.extra = wl->extra_metrics();

    stack->stop();
    if (Probe* probe = stack->probe()) {
      p.spans = probe->spans();
      p.dropped_spans = probe->dropped_spans();
      const fs::path out = fs::path(a.work_dir) /
                           ("spans-" + a.spec->name + "-seed" +
                            std::to_string(a.seed) + ".csv");
      if (!probe->write_spans(out.string())) {
        std::fprintf(stderr, "could not write %s\n", out.c_str());
      } else {
        std::printf("spans written to %s (%zu kept, %llu dropped)\n",
                    out.c_str(), p.spans.size(),
                    static_cast<unsigned long long>(p.dropped_spans));
      }
    }
    wl.reset();
    stack.reset();
    fs::remove_all(dir);
  }
  p.peak_rss_mb = p.w.rec.rss_mb();
  p.rss_note = "VmHWM after set-up and " + std::to_string(a.spec->rss_ops) +
               " ops";
  if (p.peak_rss_mb == 0) {
    p.peak_rss_mb = peak_rss_mb();
    p.rss_note = "VmHWM at the end (the window never reached " +
                 std::to_string(a.spec->rss_ops) + " ops)";
  }
  return p;
}

// --- end-to-end metrics ------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// A window's one-second slices, pooled as measured and scaled to
/// reference speed (Slice::speed).
struct Pooled {
  double wall_s = 0, wall_ref_s = 0;
  double cpu_s = 0, cpu_ref_s = 0;
  std::uint64_t ops = 0;
  Samples latency_ms, latency_ref_ms;
};

Pooled pool(const Window& w) {
  Pooled p;
  for (const Slice& s : w.rec.slices()) {
    p.wall_s += s.wall_s;
    p.wall_ref_s += s.wall_s * s.speed;
    p.cpu_s += s.cpu_s;
    p.cpu_ref_s += s.cpu_s * s.speed;
    p.ops += s.ops;
    p.latency_ms.merge(s.latency_ms);
    p.latency_ref_ms.merge(s.latency_ms, s.speed);
  }
  return p;
}

/// The per-window end-to-end metrics under their generic names. With
/// `at_reference`, what CPU speed sets is scaled to reference speed: CPU
/// per op always, latencies and op rate unless protocol timers pace the op.
std::vector<Metric> window_metrics(const WorkloadSpec& spec, const Window& w,
                                   bool at_reference) {
  const Pooled p = pool(w);
  const bool timer = spec.pacing == Pacing::kTimer;
  const bool scale = at_reference && !timer;
  const auto how = [](bool scaled) {
    return std::string(scaled ? "at reference speed" : "as measured");
  };
  const Samples& lat = timer ? w.latency_ms
                       : scale ? p.latency_ref_ms
                               : p.latency_ms;
  const double cpu = at_reference ? p.cpu_ref_s : p.cpu_s;
  const double wall = scale ? p.wall_ref_s : p.wall_s;
  return {
      {"op_p50_ms", lat.pct(50), "ms", lat.size(), "p50, " + how(scale)},
      {"op_tail_ms", lat.pct(kTailPct), "ms", lat.size(), "p90, " + how(scale)},
      {"op_cpu_us", ratio(cpu * 1e6, static_cast<double>(p.ops)), "us",
       p.ops, "process CPU per op, " + how(at_reference)},
      {"ops_per_s", ratio(static_cast<double>(p.ops), wall), "1/s", p.ops,
       "ops per second, " + how(scale)},
  };
}

/// The workload's own names for the values as measured, its own console
/// figures and, for a CPU-paced op, the p99 (see kTailPct).
std::vector<Metric> named_metrics(const WorkloadSpec& spec, const Pass& p) {
  std::vector<Metric> out = window_metrics(spec, p.w, false);
  for (std::size_t i = 0; i < out.size(); ++i) out[i].name = spec.names[i];
  out.insert(out.end(), p.extra.begin(), p.extra.end());
  if (spec.pacing != Pacing::kTimer) {
    const Samples lat = pool(p.w).latency_ms;
    out.push_back({"op_p99_ms", lat.pct(99), "ms", lat.size(),
                   "p99, as measured"});
  }
  out.push_back({"setup_raw_s", median(p.setup_raw_s), "s",
                 p.setup_raw_s.size(), "median set-up, as measured"});
  return out;
}

// --- per-layer metrics ---------------------------------------------------

template <typename F>
std::uint64_t sum_delta(const Counters& b, const Counters& a, F field) {
  std::uint64_t s = 0;
  for (std::size_t i = 0; i < kBrokers; ++i) s += field(a, i) - field(b, i);
  return s;
}

std::string base(double num, double den, const char* what) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%.0f / %.0f %s", num, den, what);
  return buf;
}

/// Median per-flip share of [set_state, delivery] covered by handler,
/// task, timer, wire and queue-wait spans (trace-chain).
Metric span_coverage(const Pass& p) {
  std::vector<std::pair<std::int64_t, std::int64_t>> reqs = p.w.requests;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> cover(
      reqs.size());
  std::int64_t horizon = INT64_MAX;  // spans past the cap were dropped
  if (p.dropped_spans > 0 && !p.spans.empty()) {
    horizon = 0;
    for (const Span& s : p.spans) horizon = std::max(horizon, s.start_ns);
  }
  for (const Span& s : p.spans) {
    if (s.kind == SpanKind::kFilter) continue;  // nested in a handler
    // First request ending after the span starts.
    auto it = std::lower_bound(
        reqs.begin(), reqs.end(), s.start_ns,
        [](const auto& r, std::int64_t t) { return r.second < t; });
    for (; it != reqs.end() && it->first < s.end_ns; ++it) {
      const std::int64_t lo = std::max(s.start_ns, it->first);
      const std::int64_t hi = std::min(s.end_ns, it->second);
      if (hi > lo) cover[it - reqs.begin()].emplace_back(lo, hi);
    }
  }
  std::vector<double> shares;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i].second > horizon) break;
    auto& iv = cover[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, reach = reqs[i].first;
    for (const auto& [lo, hi] : iv) {
      if (hi <= reach) continue;
      covered += hi - std::max(lo, reach);
      reach = hi;
    }
    const std::int64_t len = reqs[i].second - reqs[i].first;
    if (len > 0) shares.push_back(static_cast<double>(covered) / len);
  }
  return {"trace.span_coverage", median(shares), "ratio", shares.size(),
          "median share of each flip's latency covered by spans"};
}

std::vector<double> crypto_probe_us(std::size_t size) {
  // The paper's reference crypto at the workload's mean frame size.
  et::Rng rng(0xc0ffee);
  const et::crypto::RsaKeyPair keys = et::crypto::rsa_generate(rng, kKeyBits);
  const et::crypto::SecretKey aes = et::crypto::SecretKey::generate(
      rng, et::crypto::SymmetricAlg::kAes192Cbc);
  const et::Bytes msg = rng.next_bytes(std::max<std::size_t>(size, 1));
  const et::Bytes sig = keys.private_key.sign(msg);
  const et::Bytes sealed = aes.encrypt(msg, rng);
  const auto time_us = [](int n, const auto& fn) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < n; ++i) fn();
    return static_cast<double>(now_ns() - t0) / 1e3 / n;
  };
  volatile std::size_t sink = 0;
  return {
      time_us(100, [&] { sink = sink + keys.private_key.sign(msg).size(); }),
      time_us(500, [&] { sink = sink + keys.public_key.verify(msg, sig); }),
      time_us(2000, [&] { sink = sink + aes.encrypt(msg, rng).size(); }),
      time_us(2000, [&] { sink = sink + aes.decrypt(sealed).size(); }),
      time_us(2000,
              [&] { sink = sink + et::crypto::Sha256::digest(msg).size(); }),
  };
}

/// Per-layer metrics of the traced pass. `json` collects the ones every
/// workload defines; `console` the ones only some workloads exercise.
void layer_metrics(const Pass& p, std::vector<Metric>& json,
                   std::vector<Metric>& console) {
  const ProbeSnapshot& s = *p.probe;
  const Window& w = p.w;
  const double ops = static_cast<double>(w.ops);
  const Roles& r = p.roles;

  NodeStats brokers, hops, senders;
  for (std::size_t b = 0; b < kBrokers; ++b) {
    brokers += s.node(p.broker_nodes[b]);
    if (b > 0) hops += s.node(p.broker_nodes[b]);
  }
  for (const NodeId n : r.senders) senders += s.node(n);
  const NodeStats& b0 = s.node(p.broker_nodes[0]);
  const NodeStats& recv = s.node(r.receiver);
  const Acc publish = r.bench_publishes ? senders.task_ext : senders.task_self;

  const auto d = [&](auto field) {
    return static_cast<double>(sum_delta(p.before, p.after, field));
  };
  const double materialized = d([](const Counters& c, std::size_t i) {
    return c.broker[i].materialized;
  });
  const double forwarded =
      d([](const Counters& c, std::size_t i) { return c.broker[i].forwarded; });
  const double hits = d([](const Counters& c, std::size_t i) {
    return c.cache[i].hits + c.cache[i].negative_hits;
  });
  const double lookups = d([](const Counters& c, std::size_t i) {
    const auto& x = c.cache[i];
    return x.hits + x.negative_hits + x.misses + x.expired;
  });
  const double batched = d(
      [](const Counters& c, std::size_t i) { return c.pipeline[i].batched; });
  const double drains = d(
      [](const Counters& c, std::size_t i) { return c.pipeline[i].drains; });
  const double entries = static_cast<double>(p.after.emitter.digest_entries -
                                              p.before.emitter.digest_entries);
  const double digests =
      static_cast<double>(p.after.emitter.digests_published -
                          p.before.emitter.digests_published);
  const double urgent = static_cast<double>(p.after.emitter.traces_published -
                                            p.before.emitter.traces_published);
  const double appends = static_cast<double>(p.after.ledger_records -
                                             p.before.ledger_records);
  const double wal =
      static_cast<double>(p.after.wal_bytes - p.before.wal_bytes);
  const double frame_size = ratio(static_cast<double>(s.bytes),
                                  static_cast<double>(s.frames));
  const std::vector<double> c = crypto_probe_us(
      static_cast<std::size_t>(frame_size));

  json = {
      {"transport.wire_us", s.wire.mean(), "us", s.wire.n,
       "send() -> receiving handler start"},
      {"transport.frames_per_op", ratio(s.frames, ops), "count", w.ops,
       base(s.frames, ops, "frames/ops")},
      {"transport.bytes_per_op", ratio(s.bytes, ops), "B", w.ops,
       base(s.bytes, ops, "bytes/ops")},
      {"transport.loop_busy", ratio(s.busy_us, s.wall_us), "ratio", 0,
       base(s.busy_us, s.wall_us, "us busy/us wall")},
      {"transport.task_wait_us", s.task_wait.mean(), "us", s.task_wait.n,
       "task due -> start"},
      {"pubsub.filter_us", brokers.filter.mean(), "us", brokers.filter.n,
       "filter call, all brokers"},
      {"pubsub.hop_us", ratio(hops.handler.sum - hops.filter.sum,
                              static_cast<double>(hops.handler.n)),
       "us", hops.handler.n, "broker-1/2 handler minus filter, per frame"},
      {"pubsub.copies_per_hop", ratio(materialized, forwarded), "ratio", 0,
       base(materialized, forwarded, "materialized/forwarded")},
      {"pubsub.publish_us", publish.mean(), "us", publish.n,
       "client task of Client::publish"},
      {"tracing.host_us", b0.handler.mean(), "us", b0.handler.n,
       "broker-0 handler per inbound frame"},
      {"tracing.deliver_us", recv.handler.mean(), "us", recv.handler.n,
       "receiving client handler per frame"},
      {"tracing.cache_hit_ratio", ratio(hits, lookups), "ratio", 0,
       base(hits, lookups, "hits/lookups")},
      {"tracing.batch_size", ratio(batched, drains), "count", 0,
       base(batched, drains, "batched/drains")},
      {"tracing.entries_per_digest", ratio(entries, digests), "count", 0,
       base(entries, digests, "entries/digests")},
      {"tracing.urgent_per_flap", ratio(urgent, w.attempted), "count", 0,
       base(urgent, w.attempted, "per-entity traces/ops started")},
      {"crypto.sign_us", c[0], "us", 100, "RSA-1024 SHA-1 sign"},
      {"crypto.verify_us", c[1], "us", 500, "RSA-1024 SHA-1 verify"},
      {"crypto.encrypt_us", c[2], "us", 2000, "AES-192-CBC encrypt"},
      {"crypto.decrypt_us", c[3], "us", 2000, "AES-192-CBC decrypt"},
      {"crypto.sha256_us", c[4], "us", 2000, "SHA-256"},
      {"crypto.keygen_ms", mean(p.keygen_ms), "ms", p.keygen_ms.size(),
       "bench rsa_generate during set-up"},
      {"persist.appends_per_op", ratio(appends, ops), "count", w.ops,
       base(appends, ops, "ledger records/ops")},
      {"persist.wal_bytes_per_op", ratio(wal, ops), "B", w.ops,
       base(wal, ops, "WAL bytes/ops")},
      {"common.timers_armed", ratio(p.after.wheel.armed_now,
                                    p.after.wheel.pending),
       "ratio", 0,
       base(p.after.wheel.armed_now, p.after.wheel.pending,
            "armed/pending at broker-0")},
  };
  for (Metric& m : json) {
    if (m.name.rfind("crypto.", 0) == 0 && m.name != "crypto.keygen_ms") {
      m.note += " of " + std::to_string(static_cast<int>(frame_size)) + " B";
    }
  }

  const NodeStats& tdn = p.setup_probe->node(static_cast<NodeId>(p.tdn_node));
  console = {
      {"tracing.report_us",
       r.bench_publishes ? 0 : senders.task_ext.mean(), "us",
       r.bench_publishes ? 0 : senders.task_ext.n,
       "sender task for the bench's set_state/set_responsive call"},
      {"tracing.verify_wait_us", brokers.verify_wait.mean(), "us",
       brokers.verify_wait.n, "filter defer -> drain start"},
      {"tracing.verify_us",
       ratio(brokers.drain.sum, static_cast<double>(brokers.verify_wait.n)),
       "us", brokers.verify_wait.n, "drain task time per deferred message"},
      {"tracing.ping_us", b0.timer.mean(), "us", b0.timer.n,
       "broker-0 timer task (ping wheel)"},
      {"discovery.start_tracing_ms", mean(p.log.start_tracing_ms), "ms",
       p.log.start_tracing_ms.size(), "start_tracing -> ready"},
      {"discovery.register_ms", mean(p.log.register_ms), "ms",
       p.log.register_ms.size(), "register_entities -> ready"},
      {"discovery.track_ms", mean(p.log.track_ms), "ms", p.log.track_ms.size(),
       "track -> ready"},
      {"discovery.tdn_us", tdn.handler.mean(), "us", tdn.handler.n,
       "TDN handler during set-up"},
  };
}

// --- output ---------------------------------------------------------------

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void print_metric(const char* section, const Metric& m) {
  std::printf("%-8s %-28s %14s %-6s n=%-8llu %s\n", section, m.name.c_str(),
              number(m.value).c_str(), m.unit.c_str(),
              static_cast<unsigned long long>(m.n), m.note.c_str());
}

void print_result(bool correct, const Window& w,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(w.attempted),
              static_cast<unsigned long long>(w.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), number(metrics[i].value).c_str(),
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

bool report_gates(const Window& w) {
  for (const std::string& v : w.violations) {
    std::printf("GATE FAILED: %s\n", v.c_str());
  }
  std::printf("ops attempted=%llu failed=%llu completed=%llu\n",
              static_cast<unsigned long long>(w.attempted),
              static_cast<unsigned long long>(w.failed),
              static_cast<unsigned long long>(w.ops));
  return w.violations.empty() && w.failed == 0;
}

int run(const Args& a) {
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              a.spec->name.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);
  if (!a.trace) {
    Pass p = run_pass(a, false, kSetups);
    std::vector<Metric> e2e = {
        {"setup_s", median(p.setup_s), "s", p.setup_s.size(),
         "median of the set-ups in this run, at reference speed"},
        {"peak_rss_mb", p.peak_rss_mb, "MB", 1, p.rss_note},
    };
    for (const Metric& m : window_metrics(*a.spec, p.w, true)) {
      e2e.push_back(m);
    }
    for (const Metric& m : named_metrics(*a.spec, p)) print_metric("e2e", m);
    for (const Metric& m : e2e) print_metric("metric", m);
    const bool ok = report_gates(p.w);
    print_result(p.w.violations.empty(), p.w, e2e);
    return ok ? 0 : 1;
  }

  Pass plain = run_pass(a, false, 1);
  Pass traced = run_pass(a, true, 1);
  std::vector<Metric> json, console;
  layer_metrics(traced, json, console);
  const auto with_setup = [&](const Pass& p) {
    std::vector<Metric> m = {
        {"setup_s", p.setup_s.front(), "s", 1,
         "one set-up, at reference speed"},
        {"peak_rss_mb", p.peak_rss_mb, "MB", 1, p.rss_note}};
    for (const Metric& x : window_metrics(*a.spec, p.w, true)) m.push_back(x);
    return m;
  };
  const std::vector<Metric> off = with_setup(plain);
  const std::vector<Metric> on = with_setup(traced);
  for (std::size_t i = 0; i < off.size(); ++i) {
    print_metric("e2e-off", off[i]);
    print_metric("e2e-on", on[i]);
    Metric overhead{off[i].name + ".overhead", ratio(on[i].value, off[i].value) - 1,
                    "ratio", on[i].n, "traced / untraced - 1"};
    print_metric("overhead", overhead);
  }
  for (const Metric& m : console) print_metric("layer", m);
  for (const Metric& m : json) print_metric("layer", m);

  Window& w = traced.w;
  w.attempted += plain.w.attempted;
  w.failed += plain.w.failed;
  for (const std::string& v : plain.w.violations) w.violations.push_back(v);
  if (!w.requests.empty()) {
    const Metric coverage = span_coverage(traced);
    print_metric("layer", coverage);
    if (coverage.value < 0.9) {
      w.violations.push_back("spans cover only " + number(coverage.value) +
                             " of the median request latency (< 0.9)");
    }
  }
  const bool ok = report_gates(w);
  print_result(w.violations.empty(), w, json);
  return ok ? 0 : 1;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a.spec = find_workload(v);
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && a.seconds > 0 && a.spec != nullptr;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    if (!perfbench::parse(argc, argv, args)) {
      std::string names;
      for (const perfbench::WorkloadSpec& w : perfbench::workloads()) {
        names += (names.empty() ? "" : "|") + w.name;
      }
      std::fprintf(stderr,
                   "usage: perfbench --workload <%s> --seed N --seconds S "
                   "--trace 0|1 --work-dir DIR\n",
                   names.c_str());
      return 2;
    }
    et::set_log_level(et::LogLevel::kOff);
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
