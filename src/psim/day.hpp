#pragma once

#include <cstdint>
#include <string>

#include "util/time.hpp"

namespace hpop::psim {

/// A sharded metro day: build_metro + plan_shards + Engine, driven by
/// per-home Poisson arrivals shaped by the residential diurnal curve and
/// flash crowds over a 2000-object Zipf(0.9) catalog. A DSLAM in PoP 1's
/// shard crashes for [30%, 40%) of the day and the homes of a DSLAM in PoP
/// 2's shard are cut off for [45%, 60%) (skipped when the topology has
/// fewer than 3 PoPs). The transport is the entry point's: run_day answers
/// each request with a train of raw UDP chunks, run_tcp_day (tcp_day.hpp)
/// with a TCP or MPTCP transfer.
struct DayConfig {
  std::size_t homes = 10'000;
  std::size_t workers = 1;
  std::uint64_t seed = 42;
  /// Compressed day length (diurnal shape scaled into it).
  util::Duration day = 20 * util::kSecond;
  /// Requests/sec per home at diurnal multiplier 1.0.
  double base_rate_per_home = 0.05;
  std::size_t flash_crowds = 2;
  std::size_t ring_slots = 4'096;
};

/// What every sharded day reports, whatever its transport.
struct DayStats {
  /// Deterministic multi-line report: byte-identical for a fixed (config
  /// minus workers) across any worker count.
  std::string report;
  double wall_s = 0;

  std::uint64_t events = 0;
  std::uint64_t epochs = 0;
  std::uint64_t crossings = 0;
  std::uint64_t spilled = 0;
  std::uint64_t chaos_crashes = 0;
  std::uint64_t chaos_restarts = 0;
  std::uint64_t partition_drops = 0;
  std::uint64_t partition_heals = 0;  // not in the report
};

/// The UDP day: every home's request is one datagram to the origin, which
/// answers with a train of 1200-byte chunks. Transport stays packet-level
/// on purpose: the origin keeps no per-request state.
struct DayResult : DayStats {
  std::uint64_t requests = 0;
  std::uint64_t chunks = 0;  // response packets sent by origins
  std::uint64_t rx_pkts = 0;
  std::uint64_t rx_bytes = 0;
};

DayResult run_day(const DayConfig& cfg);

}  // namespace hpop::psim
