// E11 — sharded subscription table.
//
// Two views of the scaling change (DESIGN.md §9):
//   1. Table microbench: the sharded snapshot table vs the previous
//      std::map implementation (reproduced below as LegacyMapTable),
//      single-threaded match cost across pattern counts and two
//      workloads. "exact" is the paper's trace workload — wildcard-free
//      UUID topics — where the sharded table resolves matches by binary
//      search instead of a scan. "wildcard" keeps every pattern on the
//      scan path and guards against a regression on the sharded table's
//      worst case (every pattern under one top-level segment).
//   2. Broker bench: aggregate publish->deliver throughput through one
//      RealTimeNetwork broker carrying heavy wildcard subscription
//      state, matching inline in its node context.
//
// Emits the human-readable tables of the other benches plus one JSON
// object per table/counter set (see PaperTable::print_json) so a
// BENCH_subscription_sharding trajectory can be tracked across PRs.
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/pubsub/broker.h"
#include "src/pubsub/client.h"
#include "src/pubsub/subscription.h"
#include "src/pubsub/topology.h"
#include "src/transport/realtime_network.h"

namespace et::bench {
namespace {

// ---------------------------------------------------------------------------
// Section A: table microbench vs the legacy std::map implementation.

/// The pre-sharding SubscriptionTable, reproduced as the baseline: one
/// std::map over all patterns, every match walks every entry.
class LegacyMapTable {
 public:
  void add(const std::string& pattern, transport::NodeId endpoint) {
    auto [it, inserted] = entries_.try_emplace(normalize_topic(pattern));
    if (inserted) it->second.compiled = TopicPath(it->first);
    it->second.subs.insert(endpoint);
  }

  [[nodiscard]] std::set<transport::NodeId> match(
      const TopicPath& topic) const {
    std::set<transport::NodeId> out;
    for (const auto& [pattern, e] : entries_) {
      if (topic_matches(e.compiled, topic)) {
        out.insert(e.subs.begin(), e.subs.end());
      }
    }
    return out;
  }

 private:
  struct Entry {
    TopicPath compiled;
    std::set<transport::NodeId> subs;
  };
  std::map<std::string, Entry> entries_;
};

/// Trace-like patterns: all under one top-level segment ("Constrained"),
/// which concentrates the whole population in a single shard — the
/// sharded table's worst case, so the comparison is honest. The exact
/// workload subscribes to a specific action per trace topic; the
/// wildcard workload subscribes to all actions under each trace topic,
/// which forces the scan path.
std::vector<std::string> make_patterns(std::size_t count, bool wildcard,
                                       Rng& rng) {
  std::vector<std::string> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back("Constrained/Traces/Broker/Publish-Only/" +
                  Uuid::generate(rng).to_string() +
                  (wildcard ? "/*" : "/AllUpdates"));
  }
  return out;
}

struct MicroResult {
  double sharded_us = 0;  // mean per match
  double legacy_us = 0;
};

MicroResult run_table_micro(std::size_t pattern_count, bool wildcard,
                            PaperTable& table) {
  Rng rng(77);
  const auto patterns = make_patterns(pattern_count, wildcard, rng);
  pubsub::SubscriptionTable sharded;
  LegacyMapTable legacy;
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    const auto endpoint = static_cast<transport::NodeId>(i + 1);
    sharded.add(patterns[i], endpoint);
    legacy.add(patterns[i], endpoint);
  }
  // Probes: alternate a hit (matches exactly one pattern) and a miss
  // (same shape, unknown UUID — walks the same candidate entries).
  std::vector<TopicPath> probes;
  for (std::size_t i = 0; i < 16; ++i) {
    const std::string& pat = patterns[(i * 7919) % patterns.size()];
    probes.emplace_back(
        wildcard ? pat.substr(0, pat.size() - 1) + "AllUpdates" : pat);
    probes.emplace_back("Constrained/Traces/Broker/Publish-Only/" +
                        Uuid::generate(rng).to_string() + "/AllUpdates");
  }

  constexpr std::size_t kRounds = 12;
  const std::size_t per_round =
      std::max<std::size_t>(64, 262144 / pattern_count);
  SystemClock clock;
  std::uint64_t checksum = 0;  // defeats dead-code elimination
  const char* workload = wildcard ? "wildcard" : "exact";
  const std::string suffix = std::string(" (") + workload + ", " +
                             std::to_string(pattern_count) + " pat)";

  RunningStats sharded_stats;
  for (std::size_t r = 0; r < kRounds; ++r) {
    const TimePoint t0 = clock.now();
    for (std::size_t i = 0; i < per_round; ++i) {
      checksum += sharded.match(probes[i % probes.size()]).size();
    }
    const TimePoint t1 = clock.now();
    sharded_stats.add(to_millis(t1 - t0) / static_cast<double>(per_round));
  }
  table.add_row("sharded match / msg" + suffix, sharded_stats);

  RunningStats legacy_stats;
  for (std::size_t r = 0; r < kRounds; ++r) {
    const TimePoint t0 = clock.now();
    for (std::size_t i = 0; i < per_round; ++i) {
      checksum += legacy.match(probes[i % probes.size()]).size();
    }
    const TimePoint t1 = clock.now();
    legacy_stats.add(to_millis(t1 - t0) / static_cast<double>(per_round));
  }
  table.add_row("legacy map match / msg" + suffix, legacy_stats);

  const MicroResult res{sharded_stats.mean() * 1000.0,
                        legacy_stats.mean() * 1000.0};
  std::printf(
      "{\"bench\":\"subscription_sharding\",\"counters\":{"
      "\"workload\":\"%s\",\"patterns\":%zu,"
      "\"sharded_us\":%.3f,\"legacy_us\":%.3f,"
      "\"single_thread_ratio\":%.4f,\"checksum\":%llu}}\n",
      workload, pattern_count, res.sharded_us, res.legacy_us,
      res.legacy_us > 0 ? res.sharded_us / res.legacy_us : 0.0,
      static_cast<unsigned long long>(checksum));
  return res;
}

// ---------------------------------------------------------------------------
// Section B: one RealTimeNetwork broker under heavy subscription state.

constexpr std::size_t kBrokerPatterns = 2048;
constexpr int kPublishers = 4;
constexpr int kPerPublisher = 500;

/// Deep wildcard ballast patterns sharing the published topics' first
/// segment: every one lands in the same candidate shard, stays on the
/// scan path (trailing '*'), and only mismatches near its last segment,
/// so each inbound message pays a full scan and matching dominates.
std::string ballast_pattern(std::size_t i) {
  return "Bench/load/s1/s2/s3/s4/s5/s6/s7/s8/p" + std::to_string(i) + "/*";
}

void run_broker_throughput(PaperTable& table) {
  transport::RealTimeNetwork net(2024);
  pubsub::Topology topo(net);
  pubsub::Broker& broker = topo.add_broker({.name = "b0"});
  const transport::LinkParams link = transport::LinkParams::ideal_profile();

  // The sink holds the one matching subscription; the ballast client
  // holds the scan weight.
  pubsub::Client sink(net, "sink");
  std::atomic<bool> sink_ok{false};
  sink.connect(broker.node(), link,
               [&](const Status& s) { sink_ok = s.is_ok(); });
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<bool> subscribed{false};
  sink.subscribe(
      "Bench/#", [&](const pubsub::Message&) { delivered.fetch_add(1); },
      [&](const Status& s) { subscribed = s.is_ok(); });

  pubsub::Client ballast(net, "ballast");
  std::atomic<bool> ballast_ok{false};
  ballast.connect(broker.node(), link,
                  [&](const Status& s) { ballast_ok = s.is_ok(); });
  std::atomic<std::size_t> acked{0};
  for (std::size_t i = 0; i < kBrokerPatterns; ++i) {
    ballast.subscribe(
        ballast_pattern(i), [](const pubsub::Message&) {},
        [&](const Status& s) {
          if (s.is_ok()) acked.fetch_add(1);
        });
  }

  std::vector<std::unique_ptr<pubsub::Client>> pubs;
  std::atomic<int> connected{0};
  for (int p = 0; p < kPublishers; ++p) {
    pubs.push_back(std::make_unique<pubsub::Client>(
        net, "pub" + std::to_string(p)));
    pubs.back()->connect(broker.node(), link, [&](const Status& s) {
      if (s.is_ok()) connected.fetch_add(1);
    });
  }
  for (int i = 0; i < 3000; ++i) {
    if (sink_ok && subscribed && ballast_ok &&
        acked == kBrokerPatterns && connected == kPublishers) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (acked != kBrokerPatterns || connected != kPublishers) std::abort();

  SystemClock clock;
  const TimePoint t0 = clock.now();
  std::vector<std::thread> workers;
  for (int p = 0; p < kPublishers; ++p) {
    workers.emplace_back([&pubs, p] {
      for (int i = 0; i < kPerPublisher; ++i) {
        pubs[p]->publish(
            "Bench/load/s1/s2/s3/s4/s5/s6/s7/s8/msg" + std::to_string(i),
            to_bytes(std::to_string(i)));
      }
    });
  }
  for (auto& t : workers) t.join();
  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kPublishers) * kPerPublisher;
  while (delivered.load() < kTotal) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (to_millis(clock.now() - t0) > 120000.0) std::abort();
  }
  const TimePoint t1 = clock.now();
  net.stop();

  const double elapsed_ms = to_millis(t1 - t0);
  const double msgs_per_sec = 1000.0 * static_cast<double>(kTotal) /
                              elapsed_ms;
  RunningStats per_msg;  // single aggregate sample, paper-table format
  per_msg.add(elapsed_ms / static_cast<double>(kTotal));
  table.add_row("per-message latency", per_msg);
  std::printf(
      "{\"bench\":\"subscription_sharding\",\"counters\":{"
      "\"patterns\":%zu,\"messages\":%llu,"
      "\"elapsed_ms\":%.2f,\"msgs_per_sec\":%.0f}}\n",
      kBrokerPatterns, static_cast<unsigned long long>(kTotal), elapsed_ms,
      msgs_per_sec);
}

}  // namespace
}  // namespace et::bench

int main() {
  std::printf(
      "E11: Sharded subscription table\n"
      "Units: milliseconds.\n");
  {
    et::bench::PaperTable table(
        "Single-threaded match cost, sharded vs legacy std::map");
    for (const std::size_t n : {64u, 256u, 1024u, 4096u}) {
      et::bench::run_table_micro(n, /*wildcard=*/false, table);
    }
    for (const std::size_t n : {64u, 256u, 1024u, 4096u}) {
      et::bench::run_table_micro(n, /*wildcard=*/true, table);
    }
    table.print();
    table.print_json("subscription_sharding");
  }
  {
    et::bench::PaperTable table(
        "Broker publish->deliver throughput, 2048 ballast patterns");
    et::bench::run_broker_throughput(table);
    table.print();
    table.print_json("subscription_sharding");
  }
  return 0;
}
