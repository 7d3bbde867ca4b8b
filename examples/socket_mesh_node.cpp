// One process of a multi-process pub/sub overlay over real TCP sockets.
//
// Each invocation runs a single Broker on its own SocketNetwork, bound to
// a fixed loopback port. Peers are named on the command line: with an
// address the process dials out; without one it waits for that peer to
// dial in. Interest propagation, constrained-topic enforcement and the
// misbehaviour ladder all run exactly as they do on the simulated
// backends — the broker cannot tell the transports apart.
//
// A 3-process chain (see README "Multi-process topology"):
//
//   ./socket_mesh_node b1 --port 7001 --peer b0 --peer b2
//   ./socket_mesh_node b2 --port 7002 --peer b1=127.0.0.1:7001 --subscribe 'demo/#'
//   ./socket_mesh_node b0 --port 7003 --peer b1=127.0.0.1:7001 --publish demo/ticks
//
// b0's publications cross two real TCP links to reach b2's subscriber.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/common/bytes.h"
#include "src/pubsub/broker.h"
#include "src/transport/socket_network.h"

namespace {

using namespace et;

struct PeerSpec {
  std::string name;
  std::string host;  // empty: passive, the peer dials us
  std::uint16_t port = 0;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <name> --port <p> [--peer name[=host:port]]...\n"
               "          [--subscribe <pattern>] [--publish <topic>]\n"
               "          [--count <n>] [--interval-ms <ms>]\n",
               argv0);
  std::exit(2);
}

PeerSpec parse_peer(const std::string& arg) {
  PeerSpec p;
  const auto eq = arg.find('=');
  if (eq == std::string::npos) {
    p.name = arg;  // passive: peer dials us
    return p;
  }
  p.name = arg.substr(0, eq);
  const std::string addr = arg.substr(eq + 1);
  const auto colon = addr.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "peer address must be host:port, got %s\n",
                 addr.c_str());
    std::exit(2);
  }
  p.host = addr.substr(0, colon);
  p.port = static_cast<std::uint16_t>(std::stoi(addr.substr(colon + 1)));
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);  // line-buffered even when piped
  if (argc < 2) usage(argv[0]);
  const std::string name = argv[1];
  std::uint16_t port = 0;
  std::vector<PeerSpec> peers;
  std::string subscribe_pattern;
  std::string publish_topic;
  int count = 10;
  int interval_ms = 500;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (++i >= argc) usage(argv[0]);
      return argv[i];
    };
    if (arg == "--port") {
      port = static_cast<std::uint16_t>(std::stoi(next()));
    } else if (arg == "--peer") {
      peers.push_back(parse_peer(next()));
    } else if (arg == "--subscribe") {
      subscribe_pattern = next();
    } else if (arg == "--publish") {
      publish_topic = next();
    } else if (arg == "--count") {
      count = std::stoi(next());
    } else if (arg == "--interval-ms") {
      interval_ms = std::stoi(next());
    } else {
      usage(argv[0]);
    }
  }
  if (port == 0) usage(argv[0]);

  transport::SocketNetwork net(/*seed=*/port, port);
  std::printf("[%s] listening on 127.0.0.1:%u\n", name.c_str(),
              net.listen_port());

  pubsub::Broker::Options opts;
  opts.name = name;
  pubsub::Broker broker(net, std::move(opts));
  transport::LinkParams wire;  // the modelled delay on top of real TCP
  wire.base_latency = 200 * kMicrosecond;
  wire.jitter_stddev = 0;
  // The socket loop is already running: every broker mutation from main
  // is posted into the broker's node context.
  for (const PeerSpec& p : peers) {
    const transport::NodeId peer =
        p.host.empty() ? net.add_remote(p.name)
                       : net.add_remote(p.name, p.host, p.port);
    net.link(broker.node(), peer, wire);
    net.post(broker.node(), [&broker, peer] { broker.peer(peer); });
    // Announce ourselves even before we have traffic, so the passive side
    // can flush interest it parked for us (see SocketNetwork::connect_peer).
    if (!p.host.empty()) net.connect_peer(broker.node(), peer);
    std::printf("[%s] peer %s (%s)\n", name.c_str(), p.name.c_str(),
                p.host.empty() ? "passive, will dial us" : "dialing");
  }

  if (!subscribe_pattern.empty()) {
    net.post(broker.node(), [&broker, &name, &subscribe_pattern] {
      broker.subscribe_local(
          subscribe_pattern, [&name](const pubsub::Message& m) {
            std::printf("[%s] %s <- %s: %s\n", name.c_str(), m.topic.c_str(),
                        m.publisher.c_str(), et::to_string(m.payload).c_str());
            std::fflush(stdout);
          });
    });
  }

  if (!publish_topic.empty()) {
    // Give interest propagation a moment to cross the mesh, then publish
    // `count` messages from the broker's node context.
    std::this_thread::sleep_for(std::chrono::seconds(1));
    for (int i = 0; i < count; ++i) {
      net.post(broker.node(), [&broker, &publish_topic, i] {
        pubsub::Message m;
        m.topic = publish_topic;
        m.payload = et::to_bytes("tick-" + std::to_string(i));
        broker.publish_from_broker(std::move(m));
      });
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    net.drain(100 * kMillisecond);
    const pubsub::BrokerStats s = broker.stats();
    std::printf("[%s] published=%llu forwarded=%llu view_forwards=%llu "
                "materialized=%llu\n",
                name.c_str(), static_cast<unsigned long long>(s.published),
                static_cast<unsigned long long>(s.forwarded),
                static_cast<unsigned long long>(s.view_forwards),
                static_cast<unsigned long long>(s.materialized));
    net.stop();
    return 0;
  }

  // Relay / subscriber processes serve until killed.
  std::printf("[%s] serving (Ctrl-C to exit)\n", name.c_str());
  for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
}
