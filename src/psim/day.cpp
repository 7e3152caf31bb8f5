#include "psim/day.hpp"

#include <algorithm>
#include <cinttypes>
#include <memory>
#include <utility>
#include <vector>

#include "psim/sharded_day.hpp"

namespace hpop::psim {

namespace {

constexpr std::uint16_t kReqPort = 7100;
constexpr std::uint16_t kRespPort = 7200;
constexpr std::size_t kReqWire = 64;
constexpr std::size_t kChunkBytes = 1200;

class UdpDay final : public ShardedDay {
 public:
  explicit UdpDay(const DayConfig& c) : ShardedDay(c), rx(homes.size()) {
    for (std::size_t h = 0; h < topo.homes.size(); ++h) {
      topo.homes[h]->set_transport_handler(
          [this, h](net::PooledPacket pkt, net::Interface&) {
            if (pkt->udp.dst_port != kRespPort) return;
            ++rx[h].pkts;
            rx[h].bytes += pkt->payload_len;
          });
    }
    topo.origins[0]->set_transport_handler(
        [this](net::PooledPacket pkt, net::Interface&) {
          if (pkt->udp.dst_port != kReqPort) return;
          serve_request(*pkt);
        });
  }

  DayResult finish() {
    DayResult r;
    run(r);
    r.requests = requests();
    for (const HomeRx& hr : rx) {
      r.rx_pkts += hr.pkts;
      r.rx_bytes += hr.bytes;
    }
    r.chunks = origin_chunks;
    std::string body;
    appendf(body,
            "requests=%" PRIu64 " served=%" PRIu64 " chunks=%" PRIu64
            " rx_pkts=%" PRIu64 " rx_bytes=%" PRIu64 "\n",
            r.requests, origin_requests, r.chunks, r.rx_pkts, r.rx_bytes);
    r.report = report("psim-day", r, body, pop_hash([this](std::size_t h) {
                        return std::pair(rx[h].pkts, rx[h].bytes);
                      }));
    return r;
  }

 private:
  void fire_request(std::size_t h,
                    std::shared_ptr<RequestInfo> request) override {
    net::Host* home = topo.homes[h];
    net::PooledPacket q = home->packet_pool().acquire();
    q->src = topo.home_address(h);
    q->dst = topo.origins[0]->address();
    q->proto = net::Proto::kUdp;
    q->udp.src_port = kReqPort;
    q->udp.dst_port = kReqPort;
    q->payload_len = kReqWire;
    q->messages.push_back({kReqWire, std::move(request)});
    home->send_packet(std::move(q));
  }

  void serve_request(const net::Packet& req) {
    if (req.messages.empty()) return;
    const auto* info =
        static_cast<const RequestInfo*>(req.messages[0].message.get());
    ++origin_requests;
    net::Host* origin = topo.origins[0];
    std::uint64_t remaining = info->bytes;
    while (remaining > 0) {
      const std::size_t chunk =
          std::min<std::uint64_t>(remaining, kChunkBytes);
      net::PooledPacket q = origin->packet_pool().acquire();
      q->src = origin->address();
      q->dst = req.src;
      q->proto = net::Proto::kUdp;
      q->udp.src_port = kRespPort;
      q->udp.dst_port = kRespPort;
      q->payload_len = chunk;
      origin->send_packet(std::move(q));
      ++origin_chunks;
      remaining -= chunk;
    }
  }

  /// Response traffic a home received (written by the home's shard).
  struct HomeRx {
    std::uint64_t pkts = 0;
    std::uint64_t bytes = 0;
  };
  std::vector<HomeRx> rx;
  // Written by the core shard only.
  std::uint64_t origin_requests = 0;
  std::uint64_t origin_chunks = 0;
};

}  // namespace

DayResult run_day(const DayConfig& cfg) { return UdpDay(cfg).finish(); }

}  // namespace hpop::psim
