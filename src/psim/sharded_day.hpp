#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "metro/partition.hpp"
#include "metro/topology.hpp"
#include "metro/workload.hpp"
#include "net/network.hpp"
#include "psim/day.hpp"
#include "psim/engine.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace hpop::psim {

/// What a request asks for. It rides the request (a UDP datagram or the
/// TCP stream) as its immutable message payload, so the origin learns what
/// to send back without any out-of-band state.
struct RequestInfo : net::Payload {
  std::uint32_t home = 0;
  std::uint32_t rank = 0;
  std::uint64_t bytes = 0;
  RequestInfo(std::uint32_t h, std::uint32_t r, std::uint64_t b)
      : home(h), rank(r), bytes(b) {}
  std::size_t wire_size() const override { return 16; }
};

/// The substrate both sharded days run on: the metro and its ShardPlan,
/// the Engine with every link bound to the shard that services it, every
/// home and origin re-homed into its shard, the diurnal workload with one
/// RNG stream per home, and the scripted chaos. A transport derives from
/// it, supplies fire_request(), and keeps its own per-home counters, each
/// written only by the home's shard.
///
/// Declaration order is destruction order reversed, and it matters twice:
/// `eng` precedes `net`, so it is destroyed after it (when the day ends
/// mid-traffic, link queues still hold pooled packets whose pools live in
/// the shard simulators, and releasing a packet needs its pool); and a
/// transport's muxes, declared last in the derived class, are destroyed
/// first of all (~TransportMux finishes every connection, which cancels
/// RTO/delayed-ack timers on shard simulators that must still be alive,
/// and leaves the connection objects inert before anything that might
/// still reference them is torn down).
class ShardedDay {
 public:
  ShardedDay(const ShardedDay&) = delete;
  ShardedDay& operator=(const ShardedDay&) = delete;

 protected:
  explicit ShardedDay(const DayConfig& cfg);
  virtual ~ShardedDay() = default;

  /// Sends home h's request. Runs on h's shard at the arrival time; the
  /// substrate counts the request and schedules h's next arrival after it.
  virtual void fire_request(std::size_t h,
                            std::shared_ptr<RequestInfo> request) = 0;

  /// Wires the chaos, schedules every home's first arrival and runs the
  /// engine to the horizon. Fills every field of `r` but the report.
  void run(DayStats& r);

  /// Requests fired over the day, all homes.
  std::uint64_t requests() const;

  /// FNV-1a over per-PoP sums of two per-home counters, (a, b) =
  /// counters(h): catches any reordering that shifts traffic between
  /// subtrees without changing the global totals.
  template <typename Counters>
  std::uint64_t pop_hash(Counters counters) const {
    std::vector<std::uint64_t> a(topo.pops.size(), 0);
    std::vector<std::uint64_t> b(topo.pops.size(), 0);
    for (std::size_t h = 0; h < homes.size(); ++h) {
      const std::size_t p = topo.pop_of_home(h);
      const auto [ha, hb] = counters(h);
      a[p] += ha;
      b[p] += hb;
    }
    util::Fnv fnv;
    for (std::size_t p = 0; p < a.size(); ++p) {
      fnv.mix(a[p]);
      fnv.mix(b[p]);
    }
    return fnv.h;
  }

  /// The report: the `kind` header and topology lines, then `body` (the
  /// transport's own lines), then the per-PoP hash, chaos and engine lines.
  std::string report(const char* kind, const DayStats& r,
                     const std::string& body, std::uint64_t pop_hash) const;

  struct HomeState {
    util::Rng rng{0};
    std::uint64_t requests = 0;
  };

  const DayConfig& cfg;
  sim::Simulator build_sim;
  util::Rng rng;
  std::unique_ptr<Engine> eng;
  net::Network net;
  metro::MetroTopology topo;
  metro::ShardPlan plan;
  std::unique_ptr<metro::WorkloadModel> model;
  std::vector<HomeState> homes;
  std::vector<std::unique_ptr<fault::ChaosController>> chaos;

 private:
  void schedule_arrival(std::size_t h, util::TimePoint after);
};

/// Appends printf-formatted text to `out`.
void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

}  // namespace hpop::psim
