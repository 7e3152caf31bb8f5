#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "http/message.hpp"
#include "overload/admission.hpp"
#include "transport/mux.hpp"

namespace hpop::http {

class HttpServer;

/// Handed to request handlers; supports deferred (asynchronous) responses —
/// e.g. a NoCDN peer that must first fetch from the origin, or an attic
/// whose disk model adds latency. Responses are delivered to the client in
/// request order even when handlers complete out of order (HTTP/1.1
/// pipelining semantics).
class ResponseWriter {
 public:
  void respond(Response response);
  bool responded() const { return done_; }
  /// The connection's remote endpoint (for logging/auth decisions).
  net::Endpoint peer() const { return peer_; }

 private:
  friend class HttpServer;
  struct Slot;
  std::shared_ptr<Slot> slot_;
  net::Endpoint peer_;
  bool done_ = false;
};

using RequestHandler =
    std::function<void(const Request&, ResponseWriter&)>;

/// Asynchronous HTTP/1.1 server over simulated TCP, with prefix routing and
/// name-based virtual hosting (one Apache-style peer process serving many
/// NoCDN content providers, §IV-B).
class HttpServer {
 public:
  HttpServer(transport::TransportMux& mux, std::uint16_t port,
             transport::TcpOptions opts = {});
  ~HttpServer();

  /// Routes `method` + longest matching path prefix to `handler` on the
  /// default virtual host.
  void route(Method method, const std::string& path_prefix,
             RequestHandler handler);
  /// Same, on a named virtual host (matched against the Host header).
  void vhost_route(const std::string& host, Method method,
                   const std::string& path_prefix, RequestHandler handler);
  /// Fallback when no route matches (default: 404).
  void set_default_handler(RequestHandler handler);

  /// Maps a request to its admission class; default (nullptr) treats
  /// everything as owner traffic.
  using Classifier = std::function<overload::Class(const Request&)>;
  /// Plugs in admission control: every request is classified and submitted
  /// before its handler runs; shed requests get 429 (rate-policed) or
  /// 503 (queue overflow/deadline) with a Retry-After header instead of
  /// queueing forever. The controller must outlive the server.
  void set_admission(overload::AdmissionController* admission,
                     Classifier classifier = nullptr);

  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t responses = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t shed = 0;         // refused by admission control
    std::uint64_t parse_errors = 0; // malformed raw-wire requests (400)
  };
  const Stats& stats() const { return stats_; }
  std::uint16_t port() const { return listener_->port(); }

 private:
  struct RouteEntry {
    Method method;
    std::string prefix;
    RequestHandler handler;
  };
  struct Connection;

  void on_accept(std::shared_ptr<transport::TcpConnection> conn);
  void on_request(const std::shared_ptr<Connection>& state,
                  const Request& request);
  void run_handler(const Request& request,
                   const std::shared_ptr<ResponseWriter>& writer);
  const RequestHandler* find_handler(const Request& request) const;
  void flush(const std::shared_ptr<Connection>& state);

  transport::TransportMux& mux_;
  std::shared_ptr<transport::TcpListener> listener_;
  std::unordered_map<std::string, std::vector<RouteEntry>> vhosts_;
  RequestHandler default_handler_;
  overload::AdmissionController* admission_ = nullptr;
  Classifier classifier_;
  Stats stats_;
  std::vector<std::shared_ptr<Connection>> connections_;
};

}  // namespace hpop::http
