#pragma once

#include <cstdint>

#include "psim/day.hpp"

namespace hpop::psim {

/// The TCP day runs on the same config as the UDP day.
using TcpDayConfig = DayConfig;

/// The sharded metro day over real transport: every request is a TCP
/// connection to the origin, and every 16th home fetches over MPTCP with
/// one extra subflow (a function of the home index alone, so identical
/// across worker counts). Every piece of endpoint state — cwnd, SACK
/// scoreboard, RTO timers, reassembly maps — lives in the connection
/// objects of a TransportMux bound to the home's shard, so nothing but
/// fully-serialized packets ever crosses a shard boundary. The
/// conservative-lookahead barrier bounds those packets by the pop-uplink
/// delay exactly as in the UDP day, which is why the report stays
/// byte-identical for any worker count. The chaos faults land
/// mid-transfer, so recovery exercises RTO backoff and SACK
/// retransmission across the sharded run.
struct TcpDayResult : DayStats {
  std::uint64_t conns = 0;      // connections initiated by homes
  std::uint64_t completed = 0;  // closed cleanly with the full response
  std::uint64_t failed = 0;     // reset / timed out
  std::uint64_t mptcp_sessions = 0;
  std::uint64_t rx_bytes = 0;  // contiguous stream bytes received by homes
  std::uint64_t origin_served = 0;    // requests answered by the origin
  std::uint64_t origin_tx_bytes = 0;  // response bytes queued by the origin
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
};

TcpDayResult run_tcp_day(const TcpDayConfig& cfg);

}  // namespace hpop::psim
