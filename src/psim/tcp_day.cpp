#include "psim/tcp_day.hpp"

#include <cinttypes>
#include <memory>
#include <utility>
#include <vector>

#include "psim/sharded_day.hpp"
#include "transport/mux.hpp"

namespace hpop::psim {

namespace {

constexpr std::uint16_t kTcpPort = 80;
/// Every Nth home fetches over MPTCP with one extra subflow.
constexpr std::size_t kMptcpEvery = 16;

class TcpDay final : public ShardedDay {
 public:
  explicit TcpDay(const DayConfig& c) : ShardedDay(c), tcp(homes.size()) {
    home_muxes.resize(topo.homes.size());
    for (std::size_t h = 0; h < topo.homes.size(); ++h) {
      home_muxes[h] = std::make_unique<transport::TransportMux>(*topo.homes[h]);
    }
    origin_mux = std::make_unique<transport::TransportMux>(*topo.origins[0]);
    transport::TcpOptions lopts;
    lopts.mp_capable = true;  // accepts both MPTCP sessions and plain TCP
    auto listener = origin_mux->tcp_listen(kTcpPort, lopts);
    const auto accept = [this](const auto& conn) {  // TCP or MPTCP
      conn->set_on_message([this, c = conn.get()](net::PayloadPtr msg) {
        serve(c, *static_cast<const RequestInfo*>(msg.get()));
      });
    };
    listener->set_on_accept(accept);
    listener->set_on_accept_mptcp(accept);
  }

  TcpDayResult finish() {
    TcpDayResult r;
    run(r);
    r.conns = requests();
    for (const HomeTcp& ht : tcp) {
      r.completed += ht.completed;
      r.failed += ht.failed;
      r.rx_bytes += ht.rx_bytes;
      r.retransmits += ht.retransmits;
      r.timeouts += ht.timeouts;
      r.mptcp_sessions += ht.mptcp_sessions;
    }
    r.origin_served = origin_served;
    r.origin_tx_bytes = origin_tx_bytes;
    std::string body;
    appendf(body,
            "conns=%" PRIu64 " completed=%" PRIu64 " failed=%" PRIu64
            " mptcp=%" PRIu64 " rx_bytes=%" PRIu64 "\n",
            r.conns, r.completed, r.failed, r.mptcp_sessions, r.rx_bytes);
    appendf(body, "origin served=%" PRIu64 " tx_bytes=%" PRIu64 "\n",
            r.origin_served, r.origin_tx_bytes);
    appendf(body, "tcp retransmits=%" PRIu64 " timeouts=%" PRIu64 "\n",
            r.retransmits, r.timeouts);
    r.report = report("psim-tcp-day", r, body, pop_hash([this](std::size_t h) {
                        return std::pair(tcp[h].completed, tcp[h].rx_bytes);
                      }));
    return r;
  }

 private:
  void fire_request(std::size_t h,
                    std::shared_ptr<RequestInfo> request) override {
    HomeTcp& ht = tcp[h];
    transport::TransportMux& mux = *home_muxes[h];
    const net::Endpoint origin{topo.origins[0]->address(), kTcpPort};
    if (h % kMptcpEvery == 0) {
      auto conn = mux.mptcp_connect(origin);
      transport::MptcpConnection* c = conn.get();
      ++ht.mptcp_sessions;
      conn->set_on_established([c, request] {
        c->add_subflow({});
        c->send(request);
        c->close();
      });
      conn->set_on_bytes([this, h](std::size_t n) { tcp[h].rx_bytes += n; });
      auto done = [this, h, c] {
        std::uint64_t rexmit = 0;
        std::uint64_t tmo = 0;
        for (const auto& sf : c->subflows()) {
          rexmit += sf.conn->retransmits();
          tmo += sf.conn->timeouts();
        }
        account_close(h, c->last_error(), rexmit, tmo);
      };
      conn->set_on_closed(done);
      conn->set_on_reset(done);
    } else {
      auto conn = mux.tcp_connect(origin);
      transport::TcpConnection* c = conn.get();
      conn->set_on_established([c, request] {
        c->send(request);
        c->close();
      });
      conn->set_on_bytes([this, h](std::size_t n) { tcp[h].rx_bytes += n; });
      conn->set_on_closed([this, h, c] {
        account_close(h, c->last_error(), c->retransmits(), c->timeouts());
      });
    }
  }

  void account_close(std::size_t h, const char* error, std::uint64_t rexmit,
                     std::uint64_t tmo) {
    HomeTcp& ht = tcp[h];
    ht.retransmits += rexmit;
    ht.timeouts += tmo;
    if (error == nullptr) {
      ++ht.completed;
    } else {
      ++ht.failed;
    }
  }

  template <typename Conn>
  void serve(Conn* c, const RequestInfo& info) {
    ++origin_served;
    origin_tx_bytes += info.bytes;
    c->send_bytes(info.bytes);
    c->close();
  }

  /// A home's transfers (written by the home's shard).
  struct HomeTcp {
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t rx_bytes = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t mptcp_sessions = 0;
  };
  std::vector<HomeTcp> tcp;
  // Written by the core shard only.
  std::uint64_t origin_served = 0;
  std::uint64_t origin_tx_bytes = 0;
  // Last, so destroyed first: see ShardedDay.
  std::vector<std::unique_ptr<transport::TransportMux>> home_muxes;
  std::unique_ptr<transport::TransportMux> origin_mux;
};

}  // namespace

TcpDayResult run_tcp_day(const TcpDayConfig& cfg) {
  return TcpDay(cfg).finish();
}

}  // namespace hpop::psim
