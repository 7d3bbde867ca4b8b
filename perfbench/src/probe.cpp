#include "perfbench/src/probe.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "src/transport/fault_injector.h"

namespace perfbench {
namespace {

// The node and span running on this thread (none on the bench thread).
thread_local NodeId t_node = et::transport::kInvalidNode;
thread_local std::uint32_t t_span = 0;

std::uint64_t link_key(NodeId from, NodeId to) {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Sets the thread's current node/span for the duration of a callback.
class Scope {
 public:
  Scope(NodeId node, std::uint32_t span)
      : node_(t_node), span_(t_span) {
    t_node = node;
    t_span = span;
  }
  ~Scope() {
    t_node = node_;
    t_span = span_;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  NodeId node_;
  std::uint32_t span_;
};

}  // namespace

const char* span_kind_name(SpanKind k) {
  switch (k) {
    case SpanKind::kHandler: return "handler";
    case SpanKind::kTask: return "task";
    case SpanKind::kTimer: return "timer";
    case SpanKind::kFilter: return "filter";
    case SpanKind::kWire: return "wire";
    case SpanKind::kWait: return "wait";
  }
  return "?";
}

NodeStats& NodeStats::operator+=(const NodeStats& o) {
  handler += o.handler;
  task_self += o.task_self;
  task_ext += o.task_ext;
  timer += o.timer;
  filter += o.filter;
  drain += o.drain;
  verify_wait += o.verify_wait;
  frames_out += o.frames_out;
  bytes_out += o.bytes_out;
  return *this;
}

const NodeStats& ProbeSnapshot::node(NodeId id) const {
  static const NodeStats kEmpty;
  return id < nodes.size() ? nodes[id] : kEmpty;
}

Probe::Probe(et::transport::NetworkBackend& inner) : inner_(inner) {
  // Share the inner backend's fault plan (non-owning alias).
  faults_ = std::shared_ptr<et::transport::FaultInjector>(
      std::shared_ptr<et::transport::FaultInjector>{}, &inner.faults());
  window_start_ns_ = now_ns();
  spans_.reserve(kMaxSpans);
}

NodeId Probe::add_node(std::string name,
                       et::transport::PacketHandler handler) {
  auto self = std::make_shared<NodeId>(et::transport::kInvalidNode);
  const NodeId id = inner_.add_node(
      std::move(name),
      [this, self, handler = std::move(handler)](NodeId from,
                                                 et::BytesView payload) {
        on_packet(*self, from, payload, handler);
      });
  *self = id;
  return id;
}

void Probe::link(NodeId a, NodeId b, const et::transport::LinkParams& params) {
  inner_.link(a, b, params);
}

void Probe::unlink(NodeId a, NodeId b) { inner_.unlink(a, b); }

void Probe::detach(NodeId node) { inner_.detach(node); }

et::Status Probe::send(NodeId from, NodeId to,
                       et::transport::SharedPayload payload) {
  const std::size_t size = payload ? payload->size() : 0;
  const std::int64_t at = now_ns();
  // Queue the send before it can be delivered: the loop may run the
  // receiving handler before inner_.send() returns.
  {
    std::lock_guard lock(mu_);
    in_flight_[link_key(from, to)].push_back({at, t_span});
  }
  const et::Status s = inner_.send(from, to, std::move(payload));
  std::lock_guard lock(mu_);
  if (!s.is_ok()) {
    auto& q = in_flight_[link_key(from, to)];
    if (!q.empty()) q.pop_back();
    return s;
  }
  NodeStats& st = stats(from);
  ++st.frames_out;
  st.bytes_out += size;
  ++frames_;
  bytes_ += size;
  return s;
}

void Probe::on_packet(NodeId self, NodeId from, et::BytesView payload,
                      const et::transport::PacketHandler& handler) {
  const std::uint32_t id = next_span_.fetch_add(1);
  const std::int64_t start = now_ns();
  std::uint32_t parent = 0;
  {
    std::lock_guard lock(mu_);
    auto& q = in_flight_[link_key(from, self)];
    if (!q.empty()) {
      const Sent sent = q.front();
      q.pop_front();
      const std::uint32_t wire = next_span_.fetch_add(1);
      record({wire, sent.span, request_.load(), self, SpanKind::kWire,
              sent.at_ns, start});
      wire_.add(us(start - sent.at_ns));
      parent = wire;
    }
  }
  {
    Scope scope(self, id);
    handler(from, payload);
  }
  const std::int64_t end = now_ns();
  std::lock_guard lock(mu_);
  record({id, parent, request_.load(), self, SpanKind::kHandler, start, end});
  stats(self).handler.add(us(end - start));
  busy_us_ += us(end - start);
}

et::transport::Task Probe::wrap_task(NodeId node, SpanKind kind,
                                     std::int64_t due_ns,
                                     et::transport::Task task) {
  const std::uint32_t cause = t_span;
  const bool from_self = t_node == node;
  return [this, node, kind, due_ns, cause, from_self,
          task = std::move(task)] {
    const std::uint32_t id = next_span_.fetch_add(1);
    const std::int64_t start = now_ns();
    bool drain = false;
    {
      std::lock_guard lock(mu_);
      const std::uint32_t wait = next_span_.fetch_add(1);
      record({wait, cause, request_.load(), node, SpanKind::kWait,
              std::min(due_ns, start), start});
      task_wait_.add(us(std::max<std::int64_t>(0, start - due_ns)));
      drain = kind == SpanKind::kTask && node < is_broker_.size() &&
              is_broker_[node];
      if (drain) {
        // The drain takes every trace the filter deferred so far.
        auto& q = deferred_[node];
        NodeStats& st = stats(node);
        for (const std::int64_t at : q) st.verify_wait.add(us(start - at));
        q.clear();
      }
    }
    {
      Scope scope(node, id);
      task();
    }
    const std::int64_t end = now_ns();
    std::lock_guard lock(mu_);
    record({id, cause, request_.load(), node, kind, start, end});
    NodeStats& st = stats(node);
    const double took = us(end - start);
    if (kind == SpanKind::kTimer) {
      st.timer.add(took);
    } else if (drain) {
      st.drain.add(took);
    } else if (from_self) {
      st.task_self.add(took);
    } else {
      st.task_ext.add(took);
    }
    busy_us_ += took;
  };
}

void Probe::post(NodeId node, et::transport::Task task) {
  inner_.post(node, wrap_task(node, SpanKind::kTask, now_ns(),
                              std::move(task)));
}

et::transport::TimerId Probe::schedule(NodeId node, et::Duration delay,
                                       et::transport::Task task) {
  const std::int64_t due = now_ns() + delay * 1000;  // Duration is in us
  return inner_.schedule(
      node, delay, wrap_task(node, SpanKind::kTimer, due, std::move(task)));
}

void Probe::cancel(et::transport::TimerId id) { inner_.cancel(id); }

et::pubsub::MessageFilter Probe::wrap_filter(et::pubsub::MessageFilter inner) {
  return [this, inner = std::move(inner)](et::pubsub::Broker& self,
                                          const et::pubsub::MessageView& msg,
                                          NodeId from) {
    const std::uint32_t id = next_span_.fetch_add(1);
    const std::int64_t start = now_ns();
    et::pubsub::FilterVerdict v = inner(self, msg, from);
    const std::int64_t end = now_ns();
    std::lock_guard lock(mu_);
    record({id, t_span, request_.load(), self.node(), SpanKind::kFilter,
            start, end});
    stats(self.node()).filter.add(us(end - start));
    if (v.deferred()) deferred_[self.node()].push_back(end);
    return v;
  };
}

void Probe::mark_broker(NodeId node) {
  std::lock_guard lock(mu_);
  if (is_broker_.size() <= node) is_broker_.resize(node + 1, false);
  is_broker_[node] = true;
}

void Probe::reset_window() {
  std::lock_guard lock(mu_);
  for (NodeStats& n : nodes_) n = NodeStats{};
  wire_ = {};
  task_wait_ = {};
  busy_us_ = 0;
  frames_ = 0;
  bytes_ = 0;
  window_start_ns_ = now_ns();
}

ProbeSnapshot Probe::snapshot() const {
  std::lock_guard lock(mu_);
  ProbeSnapshot s;
  s.nodes = nodes_;
  s.wire = wire_;
  s.task_wait = task_wait_;
  s.busy_us = busy_us_;
  s.wall_us = us(now_ns() - window_start_ns_);
  s.frames = frames_;
  s.bytes = bytes_;
  return s;
}

std::vector<Span> Probe::spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

std::uint64_t Probe::dropped_spans() const {
  std::lock_guard lock(mu_);
  return dropped_;
}

bool Probe::write_spans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,request,node,kind,start_ns,end_ns\n");
  std::lock_guard lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f, "%u,%u,%u,%s,%s,%lld,%lld\n", s.id, s.parent, s.request,
                 inner_.node_name(s.node).c_str(), span_kind_name(s.kind),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

void Probe::record(const Span& s) {
  if (spans_.size() < kMaxSpans) {
    spans_.push_back(s);
  } else {
    ++dropped_;
  }
}

NodeStats& Probe::stats(NodeId node) {
  if (nodes_.size() <= node) nodes_.resize(node + 1);
  return nodes_[node];
}

}  // namespace perfbench
