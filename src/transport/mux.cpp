#include "transport/mux.hpp"

#include <stdexcept>

#include "util/logging.hpp"

namespace hpop::transport {

TransportMux::TransportMux(net::Host& host) : host_(host) {
  host_.set_transport_handler(
      [this](net::PooledPacket pkt, net::Interface& in) {
        dispatch(std::move(pkt), in);
      });
}

TransportMux::~TransportMux() {
  host_.set_transport_handler(nullptr);
  // Finish every endpoint still live, without callbacks: the owner tearing
  // down the mux (a crashed host) has usually destroyed the application
  // already. Each unregisters itself, so the maps are moved out first.
  for (const auto& session : std::exchange(sessions_, {})) {
    session->finish("transport destroyed", /*notify=*/false);
  }
  for (const auto& [key, conn] : std::exchange(connections_, {})) {
    conn->finish("transport destroyed", /*notify=*/false);
  }
  for (const auto& [port, listener] : listeners_) {  // can never accept again
    listener->on_accept_ = nullptr;
    listener->on_accept_mptcp_ = nullptr;
  }
}

net::IpAddr TransportMux::default_source() const { return host_.address(); }

void TransportMux::dispatch(net::PooledPacket pkt, net::Interface& in) {
  (void)in;
  switch (pkt->proto) {
    case net::Proto::kTcp:
      handle_tcp(std::move(pkt));
      break;
    case net::Proto::kUdp:
      handle_udp(std::move(pkt));
      break;
  }
}

// --- UDP ---

std::shared_ptr<UdpSocket> TransportMux::udp_open(std::uint16_t port) {
  if (port == 0) {
    do {
      port = host_.allocate_port();
    } while (udp_.count(port) > 0);
  } else if (udp_.count(port) > 0) {
    throw std::invalid_argument("UDP port in use: " + std::to_string(port));
  }
  auto socket = std::make_shared<UdpSocket>(*this, port);
  udp_[port] = socket;
  return socket;
}

void TransportMux::udp_unregister(std::uint16_t port) { udp_.erase(port); }

void TransportMux::handle_udp(net::PooledPacket pkt) {
  const auto it = udp_.find(pkt->udp.dst_port);
  if (it == udp_.end()) {
    HPOP_LOG(kTrace, "mux") << host_.name() << ": UDP to closed port "
                            << pkt->udp.dst_port;
    return;
  }
  it->second->on_packet(*pkt);
}

// --- TCP ---

std::shared_ptr<TcpListener> TransportMux::tcp_listen(std::uint16_t port,
                                                      TcpOptions opts) {
  if (listeners_.count(port) > 0) {
    throw std::invalid_argument("TCP port in use: " + std::to_string(port));
  }
  auto listener = std::make_shared<TcpListener>(port, opts);
  listeners_[port] = listener;
  return listener;
}

std::shared_ptr<TcpConnection> TransportMux::tcp_connect(net::Endpoint remote,
                                                         TcpOptions opts) {
  const net::IpAddr src = opts.bind_ip.value_or(host_.address());
  net::Endpoint local{src, opts.local_port.value_or(host_.allocate_port())};
  while (connections_.count({local, remote}) > 0) {
    local.port = host_.allocate_port();
  }
  auto conn =
      std::make_shared<TcpConnection>(*this, local, remote, opts, false);
  connections_[{local, remote}] = conn;
  conn->start_active_open();
  return conn;
}

void TransportMux::tcp_unregister(const net::Endpoint& local,
                                  const net::Endpoint& remote) {
  connections_.erase({local, remote});
}

std::shared_ptr<TcpConnection> TransportMux::create_passive(
    const net::Packet& syn, TcpOptions opts) {
  opts.mp_capable = false;  // MPTCP signalling is the session's, not ours
  opts.join_token.reset();
  opts.bind_ip = syn.dst;
  const net::Endpoint local = syn.dst_endpoint();
  const net::Endpoint remote = syn.src_endpoint();
  auto conn = std::make_shared<TcpConnection>(*this, local, remote, opts,
                                              /*passive=*/true);
  connections_[{local, remote}] = conn;
  return conn;
}

void TransportMux::send_rst_for(const net::Packet& pkt) {
  if (pkt.tcp.rst) return;
  net::PooledPacket rst = make_packet();
  rst->src = pkt.dst;
  rst->dst = pkt.src;
  rst->proto = net::Proto::kTcp;
  rst->tcp.src_port = pkt.tcp.dst_port;
  rst->tcp.dst_port = pkt.tcp.src_port;
  rst->tcp.rst = true;
  rst->tcp.ack = pkt.tcp.seq + pkt.payload_len;
  send_packet(std::move(rst));
}

void TransportMux::handle_tcp(net::PooledPacket pooled) {
  const net::Packet& pkt = *pooled;
  const auto key = std::make_pair(pkt.dst_endpoint(), pkt.src_endpoint());
  const auto it = connections_.find(key);
  if (it != connections_.end()) {
    // Keep the connection alive across the callback even if it
    // unregisters itself.
    const auto conn = it->second;
    conn->on_packet(pkt);
    return;
  }

  if (!(pkt.tcp.syn && !pkt.tcp.ack_flag)) {
    send_rst_for(pkt);
    return;
  }

  // Additional MPTCP subflow joining an existing session.
  if (pkt.tcp.mp_join) {
    const auto mit = mptcp_.find(*pkt.tcp.mp_join);
    if (mit == mptcp_.end()) {
      send_rst_for(pkt);
      return;
    }
    MptcpConnection* session = mit->second;
    auto conn = create_passive(pkt, session->opts_.subflow);
    conn->on_.internal_established =
        [session_wp = session->weak_from_this(), c = conn.get()] {
          if (const auto s = session_wp.lock()) {
            s->attach_subflow(c->shared_from_this());
          }
        };
    conn->on_packet(pkt);
    return;
  }

  const auto lit = listeners_.find(pkt.tcp.dst_port);
  if (lit == listeners_.end()) {
    send_rst_for(pkt);
    return;
  }
  const auto listener = lit->second;
  const bool mptcp_session =
      listener->options().mp_capable && pkt.tcp.mp_capable.has_value();
  auto conn = create_passive(pkt, listener->options());

  if (mptcp_session) {
    auto session = std::make_shared<MptcpConnection>(
        *this, *pkt.tcp.mp_capable,
        MptcpOptions{listener->options(), SchedulerKind::kMinRtt});
    mptcp_register(session);
    session->set_remote(pkt.src_endpoint());
    conn->on_.internal_established = [listener, session, c = conn.get()] {
      session->attach_subflow(c->shared_from_this());
      if (listener->on_accept_mptcp_) listener->on_accept_mptcp_(session);
    };
  } else {
    conn->on_.internal_established = [listener, c = conn.get()] {
      if (listener->on_accept_) listener->on_accept_(c->shared_from_this());
    };
  }
  conn->on_packet(pkt);
}

// --- MPTCP ---

std::shared_ptr<MptcpConnection> TransportMux::mptcp_connect(
    net::Endpoint remote, MptcpOptions opts) {
  const std::uint64_t token = fresh_token();
  auto session = std::make_shared<MptcpConnection>(*this, token, opts);
  mptcp_register(session);
  session->set_remote(remote);
  TcpOptions sub = opts.subflow;
  sub.mp_capable = true;
  sub.mptcp_token = token;
  auto first = tcp_connect(remote, sub);
  session->attach_subflow(first);
  return session;
}

void TransportMux::mptcp_register(std::shared_ptr<MptcpConnection> session) {
  mptcp_[session->token()] = session.get();
  sessions_.push_back(std::move(session));
}

void TransportMux::mptcp_unregister(const MptcpConnection& session) {
  mptcp_.erase(session.token());
  std::erase_if(sessions_, [&](const auto& s) { return s.get() == &session; });
}

}  // namespace hpop::transport
