// Bench-side instrumentation for the traced run.
//
// `Probe` is a NetworkBackend decorator: every component of a traced
// deployment is built on it instead of on the SocketNetwork underneath, so
// the bench can time each layer from the outside without touching src/:
//
//   * every node packet handler, posted task and timer task becomes a span
//     (name = kind, node, start, end, and the span that caused it);
//   * every send() is paired FIFO per directed link with the handler call
//     it causes, giving a wire span from send() to handler start;
//   * wrap_filter() times a broker's inbound message filter and remembers
//     when it deferred a trace, so the verification drain that later picks
//     the trace up yields the queue wait.
//
// Spans are kept in memory (capped) and written out when the run ends;
// per-node accumulators are kept for the whole window regardless of the
// cap. The untraced run never constructs a Probe, so instrumentation
// costs nothing there.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/pubsub/broker.h"
#include "src/transport/network.h"

namespace perfbench {

using et::transport::NodeId;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Running sum and count of one quantity.
struct Acc {
  double sum = 0;
  std::uint64_t n = 0;
  void add(double v) {
    sum += v;
    ++n;
  }
  [[nodiscard]] double mean() const { return n == 0 ? 0.0 : sum / n; }
  Acc& operator+=(const Acc& o) {
    sum += o.sum;
    n += o.n;
    return *this;
  }
};

enum class SpanKind : std::uint8_t {
  kHandler,  // node packet handler
  kTask,     // posted task
  kTimer,    // scheduled task
  kFilter,   // broker inbound filter (nested in a handler)
  kWire,     // send() -> start of the receiving handler
  kWait,     // task posted/due -> task start
};

const char* span_kind_name(SpanKind k);

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // span that caused this one; 0 = bench thread
  std::uint32_t request = 0;
  NodeId node = 0;
  SpanKind kind = SpanKind::kHandler;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-node accumulators, all in microseconds.
struct NodeStats {
  Acc handler;     // packet handler time
  Acc task_self;   // tasks the node posted into its own context
  Acc task_ext;    // tasks posted from another thread (the bench's calls)
  Acc timer;       // scheduled task time
  Acc filter;      // inbound filter time (brokers)
  Acc drain;       // verification drain tasks (brokers)
  Acc verify_wait; // filter defer -> drain start (brokers)
  std::uint64_t frames_out = 0;
  std::uint64_t bytes_out = 0;

  NodeStats& operator+=(const NodeStats& o);
};

/// One consistent copy of the window's accumulators.
struct ProbeSnapshot {
  std::vector<NodeStats> nodes;  // indexed by NodeId
  Acc wire;                      // send -> handler start
  Acc task_wait;                 // post/due -> task start
  double busy_us = 0;            // handler + task + timer time
  double wall_us = 0;            // window length
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;

  [[nodiscard]] const NodeStats& node(NodeId id) const;
};

class Probe final : public et::transport::NetworkBackend {
 public:
  explicit Probe(et::transport::NetworkBackend& inner);

  NodeId add_node(std::string name,
                  et::transport::PacketHandler handler) override;
  void link(NodeId a, NodeId b,
            const et::transport::LinkParams& params) override;
  void unlink(NodeId a, NodeId b) override;
  void detach(NodeId node) override;
  using NetworkBackend::send;
  et::Status send(NodeId from, NodeId to,
                  et::transport::SharedPayload payload) override;
  void post(NodeId node, et::transport::Task task) override;
  et::transport::TimerId schedule(NodeId node, et::Duration delay,
                                  et::transport::Task task) override;
  void cancel(et::transport::TimerId id) override;
  [[nodiscard]] et::TimePoint now() const override { return inner_.now(); }
  [[nodiscard]] bool concurrent_dispatch() const override {
    return inner_.concurrent_dispatch();
  }
  [[nodiscard]] bool linked(NodeId a, NodeId b) const override {
    return inner_.linked(a, b);
  }
  [[nodiscard]] std::string node_name(NodeId id) const override {
    return inner_.node_name(id);
  }

  /// Times `inner` and records its deferrals. Install into
  /// Broker::Options after install_trace_filter filled it in.
  et::pubsub::MessageFilter wrap_filter(et::pubsub::MessageFilter inner);

  /// Marks `node` as a broker: tasks posted to it are verification drains.
  void mark_broker(NodeId node);

  /// Request id stamped on spans that start while it is set (0 = none).
  void set_request(std::uint32_t id) { request_.store(id); }

  /// Zeroes the accumulators and starts a new window.
  void reset_window();
  /// Copies the accumulators of the current window.
  [[nodiscard]] ProbeSnapshot snapshot() const;

  /// Spans recorded so far (at most kMaxSpans) and how many were dropped.
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::uint64_t dropped_spans() const;
  /// Writes the spans as CSV (id,parent,request,node,kind,start_ns,end_ns).
  bool write_spans(const std::string& path) const;

  static constexpr std::size_t kMaxSpans = 400000;

 private:
  struct Sent {
    std::int64_t at_ns;
    std::uint32_t span;
  };

  void on_packet(NodeId self, NodeId from, et::BytesView payload,
                 const et::transport::PacketHandler& handler);
  et::transport::Task wrap_task(NodeId node, SpanKind kind,
                                std::int64_t due_ns, et::transport::Task task);
  void record(const Span& s);  // caller holds mu_
  NodeStats& stats(NodeId node);  // caller holds mu_

  et::transport::NetworkBackend& inner_;
  std::atomic<std::uint32_t> next_span_{1};
  std::atomic<std::uint32_t> request_{0};

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::deque<Sent>> in_flight_;
  std::unordered_map<NodeId, std::deque<std::int64_t>> deferred_;
  std::vector<bool> is_broker_;
  std::vector<NodeStats> nodes_;
  Acc wire_;
  Acc task_wait_;
  double busy_us_ = 0;
  std::uint64_t frames_ = 0;
  std::uint64_t bytes_ = 0;
  std::int64_t window_start_ns_ = 0;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

}  // namespace perfbench
