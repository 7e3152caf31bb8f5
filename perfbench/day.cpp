// One round of one benchmark workload, printed as one JSON line.
//
//   perfbench_day        --workload W --seed N [--reference]
//   perfbench_day_traced --workload W --seed N [--spans PATH]
//
// Workloads (all inputs derive from --seed; the program receives only the
// generated configuration):
//   nocdn_day   serial MetroDriver day: 2048 homes, 60 s residential day,
//               one PoP flash crowd at the evening peak, attic record sync,
//               a 4-shard R=2 directory taking a shard crash and a later,
//               disjoint partition. No uplink outage.
//   udp_day_1w  psim::run_day, 10k homes, 1 engine worker.
//   tcp_day_1w  psim::run_tcp_day, 10k homes, 1 engine worker.
//
// --reference runs udp_day_1w on 2 workers and prints its report, run time
// and CPU split, so the runner can check the report against the 1-worker
// one byte for byte and report what the 2-worker barrier costs.
//
// perfbench_day_traced is the same program linked with the counting
// allocator. It records spans (name, start, end, parent) around every call
// into the program, keeps them in memory and writes them to --spans at the
// end, and adds the per-layer counts ("layers") to the line.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alloc_probe.hpp"
#include "fault/fault.hpp"
#include "hpop/dir_cluster.hpp"
#include "metro/driver.hpp"
#include "metro/topology.hpp"
#include "metro/workload.hpp"
#include "net/network.hpp"
#include "net/pool.hpp"
#include "psim/day.hpp"
#include "psim/tcp_day.hpp"
#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"

namespace {

using namespace hpop;
using Clock = std::chrono::steady_clock;
using util::kSecond;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         1e-6 * static_cast<double>(tv.tv_usec);
}

double cpu_s(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return tv_s(ru.ru_utime) + tv_s(ru.ru_stime);
}

// --- Spans ----------------------------------------------------------------

/// In-memory span recorder. Off, it records nothing; on, it reserves its
/// storage up front so that no span allocates inside a timed window.
class Spans {
 public:
  explicit Spans(bool on) : on_(on), t0_(Clock::now()) {
    if (on_) {
      spans_.reserve(512);
      stack_.reserve(16);
    }
  }

  int open(const char* name) {
    if (!on_ || spans_.size() == spans_.capacity()) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, since(t0_), 0.0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = since(t0_);
    stack_.pop_back();
  }

  /// Wall seconds of every span called `name`, in recording order.
  std::vector<double> durations(const char* name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (std::strcmp(s.name, name) == 0) out.push_back(s.end - s.start);
    }
    return out;
  }

  bool write(const std::string& path) const {
    if (!on_ || path.empty()) return true;
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                   "\"end_s\": %.9f, \"parent\": %d}\n",
                   i, s.name, s.start, s.end, s.parent);
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    int parent;
  };
  bool on_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class SpanScope {
 public:
  SpanScope(Spans& spans, const char* name)
      : spans_(spans), id_(spans.open(name)) {}
  ~SpanScope() { spans_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans& spans_;
  int id_;
};

// --- Round result -----------------------------------------------------------

struct Round {
  std::string report;  // deterministic: equal for equal seeds
  double setup_s = 0;
  double run_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Operations that did not complete but are not failures: dropped by an
  /// injected fault, or still in flight at the horizon.
  std::vector<std::pair<std::string, std::uint64_t>> excused;
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<std::pair<std::string, double>> layers;

  void check(const char* name, bool ok) { checks.emplace_back(name, ok); }
  void layer(const char* name, double v) { layers.emplace_back(name, v); }
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// Counter totals read straight from the thread's registry. Cheap (no
/// snapshot copy), so untraced rounds use it for their checks.
std::uint64_t counter(const char* name) {
  return telemetry::registry().counter(name)->value();
}

/// Heap bytes one metro topology costs, per home, plus its build time:
/// a separate build_metro call with the psim days' parameters (the days
/// build theirs inside run_day, where no one can time it from outside).
void probe_metro_build(Round& r, Spans& spans, std::size_t homes,
                       std::uint64_t seed) {
  SpanScope span(spans, "metro.build_metro(probe)");
  sim::Simulator sim;
  net::Network net{sim, util::Rng(seed)};
  metro::MetroParams mp;
  mp.homes = homes;
  mp.origins = 1;
  util::Rng rng(seed);
  const std::int64_t live0 = perfbench::live_bytes();
  const Clock::time_point t0 = Clock::now();
  metro::MetroTopology topo = metro::build_metro(net, mp, rng);
  r.layer("metro.build_s", since(t0));
  r.layer("metro.bytes_per_home",
          static_cast<double>(perfbench::live_bytes() - live0) /
              static_cast<double>(homes));
}

// --- nocdn_day ----------------------------------------------------------

constexpr std::size_t kNocdnHomes = 2048;
constexpr util::Duration kNocdnDay = 60 * kSecond;
constexpr util::Duration kNocdnTail = 15 * kSecond;  // > one usage upload
constexpr util::Duration kSlice = 1 * kSecond;
constexpr double kNocdnRate = 0.05;  // page loads / s / home at curve 1.0
constexpr std::size_t kDirShards = 4;

/// ∫ curve.at(t) dt over [a, b) in seconds, trapezoid at 1 ms steps (the
/// curve is piecewise linear between hour points, so the error is far
/// below the Poisson band it feeds).
double curve_integral(const metro::DiurnalCurve& curve, util::TimePoint a,
                      util::TimePoint b) {
  constexpr util::Duration kStep = util::kMillisecond;
  double sum = 0;
  for (util::TimePoint t = a; t < b; t += kStep) {
    const util::TimePoint e = std::min(b, t + kStep);
    sum += 0.5 * (curve.at(t) + curve.at(e)) * util::to_seconds(e - t);
  }
  return sum;
}

/// Everything the day owns, in construction order; teardown() destroys it
/// in reverse so the teardown time can be measured.
struct NocdnWorld {
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<metro::MetroTopology> topo;
  std::unique_ptr<metro::MetroDriver> driver;
  std::unique_ptr<fault::ChaosController> chaos;

  void teardown() {
    chaos.reset();
    driver.reset();
    topo.reset();
    net.reset();
    sim.reset();
  }
};

Round nocdn_day(std::uint64_t seed, bool trace, Spans& spans) {
  Round r;
  util::Rng inputs(seed);
  telemetry::Snapshot before;
  if (trace) before = telemetry::registry().snapshot();
  const std::int64_t live0 = perfbench::live_bytes();
  const std::uint64_t ledger0 = counter("nocdn.ledger.records_accepted");
  const std::uint64_t peer0 = counter("nocdn.peer.requests");

  SpanScope day_span(spans, "nocdn_day");
  NocdnWorld w;
  metro::EventPlan plan;
  std::size_t crash_shard = 0;
  std::size_t cut_shard = 0;
  util::TimePoint crash_at = 0;
  util::TimePoint cut_at = 0;
  constexpr util::Duration kCrashFor = 6 * kSecond;
  constexpr util::Duration kCutFor = 8 * kSecond;

  Clock::time_point t0 = Clock::now();
  {
    SpanScope setup(spans, "setup");
    w.sim = std::make_unique<sim::Simulator>();
    w.net = std::make_unique<net::Network>(*w.sim, inputs.fork());
    metro::MetroParams params;
    params.homes = kNocdnHomes;
    params.access_rate_jitter = 0.1;
    util::Rng topo_rng = inputs.fork();
    {
      SpanScope s(spans, "metro.build_metro");
      const std::int64_t b0 = perfbench::live_bytes();
      const Clock::time_point tb = Clock::now();
      w.topo = std::make_unique<metro::MetroTopology>(
          metro::build_metro(*w.net, params, topo_rng));
      r.layer("metro.build_s", since(tb));
      r.layer("metro.bytes_per_home",
              static_cast<double>(perfbench::live_bytes() - b0) /
                  static_cast<double>(kNocdnHomes));
    }

    // One flash crowd with a fixed shape (a whole PoP at 6x for 8% of the
    // day, at the evening peak); the seed picks the PoP, the hot object and
    // the exact start. A drawn shape would swing the day's load by a third
    // from seed to seed and bury every other effect.
    metro::ZipfCatalog catalog(512, 0.9);
    metro::EventSpec crowd;
    crowd.kind = metro::EventSpec::Kind::kFlashCrowd;
    crowd.scope = metro::EventSpec::Scope::kPop;
    crowd.target = inputs.uniform_index(w.topo->pops.size());
    crowd.start = util::seconds(inputs.uniform(0.74, 0.78) *
                                util::to_seconds(kNocdnDay));
    crowd.duration = kNocdnDay * 8 / 100;
    crowd.intensity = 6.0;
    crowd.hot_object = catalog.draw(inputs);
    plan.events.push_back(crowd);

    metro::MetroDriverConfig dc;
    dc.active_homes = kNocdnHomes;
    dc.peers = 16;
    dc.attic_pairs = 4;
    dc.attic_interval = 5 * kSecond;
    dc.horizon = kNocdnDay;
    dc.dir_shards = kDirShards;
    dc.dir_replication = 2;
    dc.dir_lease = 10 * kSecond;
    dc.dir_anti_entropy = 2 * kSecond;
    dc.dir_registered_homes = 400;
    dc.dir_silent_homes = 32;
    dc.dir_silent_lease_s = 3;
    dc.dir_warmup = 5 * kSecond;
    {
      SpanScope s(spans, "metro.MetroDriver");
      w.driver = std::make_unique<metro::MetroDriver>(
          *w.topo,
          metro::WorkloadModel(metro::DiurnalCurve::residential(kNocdnDay),
                               catalog, plan, kNocdnRate),
          dc, inputs.fork());
    }
    {
      SpanScope s(spans, "metro.MetroDriver::start");
      const Clock::time_point ts = Clock::now();
      w.driver->start();
      r.layer("nocdn.start_s", since(ts));
    }

    // Crash one shard, then partition another from the whole metro, in
    // disjoint windows: R=2 always leaves each household a live replica.
    SpanScope s(spans, "fault.ChaosController");
    w.chaos = std::make_unique<fault::ChaosController>(*w.sim, inputs.fork());
    core::DirectoryCluster* cluster = w.driver->directory();
    cluster->register_with_chaos(*w.chaos);
    crash_shard = inputs.uniform_index(kDirShards);
    cut_shard = (crash_shard + 1 + inputs.uniform_index(kDirShards - 1)) %
                kDirShards;
    crash_at = util::seconds(inputs.uniform(15.0, 20.0));
    cut_at = util::seconds(inputs.uniform(32.0, 38.0));
    w.chaos->crash_at(cluster->host(crash_shard).name(), crash_at, kCrashFor);
    w.chaos->partition_at({&cluster->host(cut_shard)}, {}, cut_at, kCutFor);
  }
  r.setup_s = since(t0);

  const std::uint64_t events0 = w.sim->events_executed();
  const std::uint64_t allocs0 = perfbench::alloc_count();
  t0 = Clock::now();
  {
    SpanScope run(spans, "run");
    for (util::TimePoint t = kSlice; t <= kNocdnDay + kNocdnTail;
         t += kSlice) {
      SpanScope slice(spans, "sim.run_until");
      w.sim->run_until(t);
    }
  }
  r.run_s = since(t0);
  const std::uint64_t events = w.sim->events_executed() - events0;
  const std::uint64_t allocs = perfbench::alloc_count() - allocs0;

  // --- Results and checks (outside both timed windows) ---
  metro::MetroDriver& d = *w.driver;
  const metro::MetroDriver::Stats& st = d.stats();
  const core::DirectoryCluster& cluster = *d.directory();
  const fault::ChaosController::Stats& cs = w.chaos->stats();
  const std::size_t active = d.config().active_homes;

  // Expected arrivals from the rate the model is configured with,
  // integrated here: every active home at base * curve, plus the crowd's
  // extra (intensity - 1) on the active homes under its PoP.
  const metro::DiurnalCurve curve = metro::DiurnalCurve::residential(kNocdnDay);
  double lambda =
      kNocdnRate * static_cast<double>(active) *
      curve_integral(curve, 0, kNocdnDay);
  for (const metro::EventSpec& e : plan.events) {
    const std::size_t per_pop = w.topo->params.homes_per_dslam *
                                w.topo->params.dslams_per_pop;
    const std::size_t first = e.target * per_pop;
    const std::size_t last = std::min(active, first + per_pop);
    const std::size_t covered = last > first ? last - first : 0;
    lambda += kNocdnRate * (e.intensity - 1.0) * static_cast<double>(covered) *
              curve_integral(curve, e.start,
                             std::min(kNocdnDay, e.start + e.duration));
  }
  const double band = 5.0 * std::sqrt(lambda) + 1.0;

  std::size_t acked = 0;
  std::size_t resolved = 0;
  const auto& regs = d.dir_registrations();
  for (std::size_t i = 0; i < d.dir_renewing(); ++i) {
    if (!regs[i]->acked()) continue;
    ++acked;
    if (cluster.resolves(regs[i]->household())) ++resolved;
  }
  const std::uint64_t ledger =
      counter("nocdn.ledger.records_accepted") - ledger0;
  const std::uint64_t peer_served = counter("nocdn.peer.requests") - peer0;

  r.check("loads_ok_plus_failed_eq_arrivals",
          st.loads_ok + st.loads_failed == st.arrivals);
  r.check("arrivals_in_poisson_band",
          std::fabs(static_cast<double>(st.arrivals) - lambda) <= band);
  r.check("ledger_records_eq_peer_served", ledger > 0 && ledger == peer_served);
  r.check("no_stale_directory_answer",
          st.dir_silent_probes > 0 && st.dir_stale_served == 0);
  r.check("acked_registrations_resolve", acked > 0 && resolved == acked);
  r.check("attic_gets_eq_puts",
          st.attic_puts > 0 && st.attic_gets == st.attic_puts);
  r.check("chaos_fired", cs.crashes == 1 && cs.restarts == 1 &&
                             cs.partitions == 1 && cs.partition_heals == 1);

  const std::uint64_t attic_ops =
      st.attic_puts + st.attic_gets + st.attic_failures;
  r.attempted = st.arrivals + attic_ops + st.dir_lookups;
  r.failed = st.loads_failed + st.attic_failures + st.dir_failed + st.dir_busy;
  r.excused = {{"loads_in_flight", st.arrivals - st.loads_ok - st.loads_failed},
               {"partition_drops", cs.partition_drops}};

  char line[512];
  std::snprintf(
      line, sizeof line,
      "%s\nchaos crash_shard=%zu at_ms=%" PRId64 " cut_shard=%zu at_ms=%" PRId64
      " restarts=%" PRIu64 " heals=%" PRIu64 " cut_drops=%" PRIu64
      "\nexpected_arrivals=%.1f ledger=%" PRIu64 " peer_served=%" PRIu64
      " acked=%zu resolved=%zu events=%" PRIu64 "\n",
      d.report().c_str(), crash_shard, crash_at / util::kMillisecond,
      cut_shard, cut_at / util::kMillisecond, cs.restarts, cs.partition_heals,
      cs.partition_drops, lambda, ledger, peer_served, acked, resolved,
      events);
  r.report = line;

  if (trace) {
    const telemetry::Snapshot dl = telemetry::MetricsRegistry::delta(
        before, telemetry::registry().snapshot());
    r.layer("nocdn.page_loads",
            static_cast<double>(st.loads_ok + st.loads_failed));
    r.layer("nocdn.peer_requests", dl.value("nocdn.peer.requests"));
    r.layer("nocdn.ledger_records", dl.value("nocdn.ledger.records_accepted"));
    r.layer("http.cache_hits", dl.value("cache.hits"));
    r.layer("http.cache_misses", dl.value("cache.misses"));
    r.layer("hpop.dir_lookups",
            static_cast<double>(d.dir_client_totals().lookups));
    r.layer("durable.wal_appends", dl.value("durable.wal.appends"));
    r.layer("durable.fsyncs", dl.value("durable.device.fsyncs"));
    r.layer("transport.tcp_connections", dl.value("tcp.connections"));
    r.layer("transport.retransmits", dl.value("tcp.retransmits"));
    r.layer("transport.timeouts", dl.value("tcp.timeouts"));
    r.layer("net.link_tx_pkts", dl.value("link.tx_pkts"));
    r.layer("net.queue_drops", dl.value("link.queue_drops"));
    r.layer("net.pool_recycled",
            static_cast<double>(
                net::PacketPool::of(*w.sim).stats().recycled));
    r.layer("sim.events", static_cast<double>(events));
    r.layer("sim.allocs_per_event",
            static_cast<double>(allocs) / static_cast<double>(events));
    std::vector<double> slices = spans.durations("sim.run_until");
    slices.resize(static_cast<std::size_t>(kNocdnDay / kSlice));  // day only
    r.layer("sim.slice_max_s", *std::max_element(slices.begin(), slices.end()));
    r.layer("sim.slice_min_s", *std::min_element(slices.begin(), slices.end()));
  }

  t0 = Clock::now();
  {
    SpanScope s(spans, "teardown");
    w.teardown();
  }
  r.setup_s += since(t0);
  if (trace) {
    r.layer("transport.retained_mb",
            static_cast<double>(perfbench::live_bytes() - live0) / 1e6);
  }
  return r;
}

// --- psim days ------------------------------------------------------------

constexpr std::size_t kPsimHomes = 10'000;
constexpr util::Duration kPsimDay = 60 * kSecond;
constexpr double kPsimRate = 0.05;  // requests / s / home at curve 1.0
// run_day draws each crowd's scope by coin flip (one DSLAM or a whole PoP)
// and its intensity from 4-12, which moves the day's event count by about
// 8% from seed to seed; the config cannot fix the shape. The psim days
// therefore run without crowds, and nocdn_day carries one of fixed shape.
constexpr std::size_t kPsimCrowds = 0;

/// Upper limit on the operations a psim day may leave unserved or in
/// flight without a fault in the program. The days' own fault schedule
/// (DayConfig::chaos, TcpDayConfig::chaos) crashes one DSLAM for
/// [0.30, 0.40) of the day and cuts another DSLAM's homes off for
/// [0.45, 0.60); requests those homes make meanwhile may be lost, and so
/// may requests any home makes within `tail` of the horizon. The limit is
/// 5 sigma (+1) above the Poisson mean of those requests, integrated here
/// from DiurnalCurve::at at the configured base rate.
double excused_limit(util::Duration day, util::Duration tail) {
  const metro::MetroParams mp;
  const metro::DiurnalCurve curve = metro::DiurnalCurve::residential(day);
  const double faulted =
      curve_integral(curve, day * 3 / 10, day * 4 / 10) +
      curve_integral(curve, day * 45 / 100, day * 60 / 100);
  const double lambda =
      kPsimRate * static_cast<double>(mp.homes_per_dslam) * faulted +
      kPsimRate * static_cast<double>(kPsimHomes) *
          curve_integral(curve, day - tail, day);
  return lambda + 5.0 * std::sqrt(lambda) + 1.0;
}

/// Round-trip time from a home to the origin over the metro's tiers.
util::Duration metro_rtt() {
  const metro::MetroParams mp;
  return 2 * (mp.access.delay + mp.dslam_uplink.delay + mp.pop_uplink.delay +
              mp.origin_path.delay);
}

/// Times one run_day/run_tcp_day call. setup_s is the call's wall time
/// minus the run time the call reports; main/worker CPU split the call's
/// process CPU by thread.
struct CallTimer {
  Clock::time_point t0 = Clock::now();
  double thread0 = cpu_s(RUSAGE_THREAD);
  double proc0 = cpu_s(RUSAGE_SELF);
  double main_cpu_s = 0;
  double worker_cpu_s = 0;

  void finish(Round& r, double reported_run_s) {
    const double call_s = since(t0);
    const double thread_s = cpu_s(RUSAGE_THREAD) - thread0;
    const double proc_s = cpu_s(RUSAGE_SELF) - proc0;
    r.run_s = reported_run_s;
    r.setup_s = call_s - reported_run_s;
    // The calling thread builds and tears down the day on its own, CPU
    // bound, so its CPU beyond that wall time is barrier and drain work.
    main_cpu_s = std::max(0.0, thread_s - r.setup_s);
    // The two clocks are read a moment apart: never below 0.
    worker_cpu_s = std::max(0.0, proc_s - thread_s);
  }
};

std::uint64_t report_field(const std::string& report, const char* key) {
  const std::size_t at = report.find(key);
  if (at == std::string::npos) return UINT64_MAX;
  return std::strtoull(report.c_str() + at + std::strlen(key), nullptr, 10);
}

void psim_layers(Round& r, const CallTimer& timer, std::uint64_t events,
                 std::uint64_t epochs, std::uint64_t crossings,
                 std::uint64_t allocs) {
  r.layer("psim.main_cpu_s", timer.main_cpu_s);
  r.layer("psim.worker_cpu_s", timer.worker_cpu_s);
  r.layer("sim.events", static_cast<double>(events));
  r.layer("sim.allocs_per_event",
          static_cast<double>(allocs) / static_cast<double>(events));
  r.layer("psim.epochs", static_cast<double>(epochs));
  r.layer("psim.events_per_epoch",
          static_cast<double>(events) / static_cast<double>(epochs));
  r.layer("psim.crossings", static_cast<double>(crossings));
}

psim::DayConfig udp_config(std::uint64_t seed, std::size_t workers) {
  psim::DayConfig cfg;
  cfg.homes = kPsimHomes;
  cfg.workers = workers;
  cfg.seed = seed;
  cfg.day = kPsimDay;
  cfg.base_rate_per_home = kPsimRate;
  cfg.flash_crowds = kPsimCrowds;
  return cfg;
}

Round udp_day(std::uint64_t seed, bool trace, Spans& spans) {
  Round r;
  telemetry::Snapshot before;
  if (trace) before = telemetry::registry().snapshot();
  const std::int64_t live0 = perfbench::live_bytes();
  const std::uint64_t allocs0 = perfbench::alloc_count();
  psim::DayResult d;
  CallTimer timer;
  {
    SpanScope s(spans, "psim.run_day");
    d = psim::run_day(udp_config(seed, 1));
    timer.finish(r, d.wall_s);
  }
  const std::uint64_t allocs = perfbench::alloc_count() - allocs0;
  const std::int64_t retained = perfbench::live_bytes() - live0;
  const std::uint64_t served = report_field(d.report, "served=");
  r.report = d.report;
  r.check("served_le_requests", served <= d.requests);
  r.check("rx_bytes_le_chunks_x_1200", d.rx_bytes <= d.chunks * 1200);
  r.check("chaos_fired", d.chaos_crashes >= 1 && d.chaos_restarts >= 1 &&
                             d.partition_drops >= 1);
  r.check("traffic_flowed", d.requests > 0 && d.rx_bytes > 0);
  const std::uint64_t unserved = d.requests - std::min(served, d.requests);
  // A request is lost to a fault or still on its way (one RTT covers the
  // one-way trip with room for queueing) at the horizon.
  r.check("unserved_within_fault_limit",
          static_cast<double>(unserved) <= excused_limit(kPsimDay, metro_rtt()));
  r.attempted = d.requests;
  r.failed = 0;  // the UDP day has no failure counter: nothing retries
  r.excused = {{"requests_unserved", unserved},
               {"partition_drops", d.partition_drops}};
  if (trace) {
    // One worker runs every shard on the calling thread, so the link
    // counters land in this thread's registry.
    const telemetry::Snapshot dl = telemetry::MetricsRegistry::delta(
        before, telemetry::registry().snapshot());
    psim_layers(r, timer, d.events, d.epochs, d.crossings, allocs);
    r.layer("net.rx_pkts", static_cast<double>(d.rx_pkts));
    r.layer("net.link_tx_pkts", dl.value("link.tx_pkts"));
    r.layer("net.queue_drops", dl.value("link.queue_drops"));
    r.layer("transport.retained_mb", static_cast<double>(retained) / 1e6);
    probe_metro_build(r, spans, kPsimHomes, seed);
  }
  return r;
}

Round tcp_day(std::uint64_t seed, bool trace, Spans& spans) {
  Round r;
  telemetry::Snapshot before;
  if (trace) before = telemetry::registry().snapshot();
  const std::int64_t live0 = perfbench::live_bytes();
  const std::uint64_t allocs0 = perfbench::alloc_count();
  psim::TcpDayConfig cfg;
  cfg.homes = kPsimHomes;
  cfg.workers = 1;
  cfg.seed = seed;
  cfg.day = kPsimDay;
  cfg.base_rate_per_home = kPsimRate;
  cfg.flash_crowds = kPsimCrowds;
  psim::TcpDayResult d;
  CallTimer timer;
  {
    SpanScope s(spans, "psim.run_tcp_day");
    d = psim::run_tcp_day(cfg);
    timer.finish(r, d.wall_s);
  }
  const std::uint64_t allocs = perfbench::alloc_count() - allocs0;
  const std::int64_t retained = perfbench::live_bytes() - live0;
  r.report = d.report;
  r.check("completed_plus_failed_le_conns", d.completed + d.failed <= d.conns);
  r.check("rx_bytes_le_origin_tx_bytes", d.rx_bytes <= d.origin_tx_bytes);
  r.check("chaos_fired", d.chaos_crashes >= 1 && d.chaos_restarts >= 1 &&
                             d.partition_drops >= 1);
  r.check("loss_recovery_fired", d.retransmits + d.timeouts > 0);
  r.check("traffic_flowed", d.completed > 0 && d.rx_bytes > 0);
  const std::uint64_t in_flight =
      d.conns - std::min(d.conns, d.completed + d.failed);
  // The largest object (100 KiB, 70 segments) takes about 6 RTTs on an
  // idle path from IW10: handshake, request, three slow-start rounds, FIN.
  // Ten RTTs leave room for the MPTCP join.
  r.check("in_flight_within_fault_limit",
          static_cast<double>(in_flight) <=
              excused_limit(kPsimDay, 10 * metro_rtt()));
  r.attempted = d.conns;
  r.failed = d.failed;
  r.excused = {{"conns_in_flight", in_flight},
               {"partition_drops", d.partition_drops}};
  if (trace) {
    // One worker runs every shard on the calling thread, so the link
    // counters land in this thread's registry.
    const telemetry::Snapshot dl = telemetry::MetricsRegistry::delta(
        before, telemetry::registry().snapshot());
    psim_layers(r, timer, d.events, d.epochs, d.crossings, allocs);
    r.layer("transport.tcp_connections", static_cast<double>(d.conns));
    r.layer("transport.retransmits", static_cast<double>(d.retransmits));
    r.layer("transport.timeouts", static_cast<double>(d.timeouts));
    r.layer("net.link_tx_pkts", dl.value("link.tx_pkts"));
    r.layer("net.queue_drops", dl.value("link.queue_drops"));
    r.layer("transport.retained_mb", static_cast<double>(retained) / 1e6);
    probe_metro_build(r, spans, kPsimHomes, seed);
  }
  return r;
}

void print_round(const std::string& workload, std::uint64_t seed,
                 const Round& r, bool trace) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"setup_s\": %.9f, \"run_s\": %.9f, \"cpu_s\": %.6f, "
              "\"peak_rss_mb\": %.3f, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"excused\": {",
              workload.c_str(), seed, r.setup_s, r.run_s,
              tv_s(ru.ru_utime) + tv_s(ru.ru_stime),
              static_cast<double>(ru.ru_maxrss) / 1024.0, r.attempted,
              r.failed);
  for (std::size_t i = 0; i < r.excused.size(); ++i) {
    std::printf("%s\"%s\": %" PRIu64, i ? ", " : "", r.excused[i].first.c_str(),
                r.excused[i].second);
  }
  std::printf("}, \"checks\": {");
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    std::printf("%s\"%s\": %s", i ? ", " : "", r.checks[i].first.c_str(),
                r.checks[i].second ? "true" : "false");
  }
  std::printf("}, \"layers\": {");
  for (std::size_t i = 0; trace && i < r.layers.size(); ++i) {
    std::printf("%s\"%s\": %.9g", i ? ", " : "", r.layers[i].first.c_str(),
                r.layers[i].second);
  }
  std::printf("}, \"report\": \"%s\"}\n", json_escape(r.report).c_str());
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload nocdn_day|udp_day_1w|tcp_day_1w "
               "--seed N [--spans PATH] [--reference]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string spans_path;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool reference = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (a == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (a == "--spans" && i + 1 < argc) {
      spans_path = argv[++i];
    } else if (a == "--reference") {
      reference = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_seed) return usage(argv[0]);
  const bool trace = perfbench::alloc_counted();

  if (reference) {
    if (workload != "udp_day_1w") return usage(argv[0]);
    Round r;
    CallTimer timer;
    const psim::DayResult d = psim::run_day(udp_config(seed, 2));
    timer.finish(r, d.wall_s);
    std::printf("{\"run_s\": %.9f, \"epochs\": %" PRIu64
                ", \"main_cpu_s\": %.6f, \"worker_cpu_s\": %.6f, "
                "\"report\": \"%s\"}\n",
                r.run_s, d.epochs, timer.main_cpu_s, timer.worker_cpu_s,
                json_escape(d.report).c_str());
    return 0;
  }

  Spans spans(trace);
  Round r;
  if (workload == "nocdn_day") {
    r = nocdn_day(seed, trace, spans);
  } else if (workload == "udp_day_1w") {
    r = udp_day(seed, trace, spans);
  } else if (workload == "tcp_day_1w") {
    r = tcp_day(seed, trace, spans);
  } else {
    return usage(argv[0]);
  }
  if (!spans.write(spans_path)) {
    std::fprintf(stderr, "cannot write spans to %s\n", spans_path.c_str());
    return 1;
  }
  print_round(workload, seed, r, trace);
  return 0;
}
