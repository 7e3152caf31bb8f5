#include "psim/sharded_day.hpp"

#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace hpop::psim {

namespace {

constexpr std::size_t kCatalogObjects = 2'000;
constexpr double kZipfSkew = 0.9;

}  // namespace

void appendf(std::string& out, const char* fmt, ...) {
  char line[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(line, sizeof line, fmt, args);
  va_end(args);
  out += line;
}

ShardedDay::ShardedDay(const DayConfig& c)
    : cfg(c), rng(c.seed), net(build_sim, rng.fork()) {
  metro::MetroParams mp;
  mp.homes = cfg.homes;
  mp.origins = 1;
  util::Rng topo_rng = rng.fork();
  topo = metro::build_metro(net, mp, topo_rng);
  plan = metro::plan_shards(topo);

  Engine::Config ec;
  ec.workers = cfg.workers;
  ec.ring_slots = cfg.ring_slots;
  ec.lookahead = plan.lookahead;
  eng = std::make_unique<Engine>(ec);
  for (std::size_t p = 0; p < plan.partitions; ++p) eng->add_partition();

  for (std::size_t h = 0; h < topo.homes.size(); ++h) {
    eng->bind_local(topo.access_links[h], plan.of_home(topo, h));
  }
  for (std::size_t d = 0; d < topo.dslams.size(); ++d) {
    eng->bind_local(topo.dslam_uplinks[d], plan.of_dslam(topo, d));
  }
  const std::size_t core_p = plan.core_partition;
  for (std::size_t p = 0; p < topo.pops.size(); ++p) {
    net::Link* up = topo.pop_uplinks[p];
    eng->bind_boundary(up, 0, p, core_p);  // pop -> core
    eng->bind_boundary(up, 1, core_p, p);  // core -> pop
  }
  for (net::Link* ol : topo.origin_links) eng->bind_local(ol, core_p);

  // Re-home the endpoints into their shards before any transport state
  // exists: a host's timers and packets (and those of a TransportMux over
  // it, which resolves them dynamically) then belong to the owning shard.
  for (std::size_t h = 0; h < topo.homes.size(); ++h) {
    topo.homes[h]->bind_shard(eng->sim(plan.of_home(topo, h)));
  }
  topo.origins[0]->bind_shard(eng->sim(core_p));

  metro::DiurnalCurve curve = metro::DiurnalCurve::residential(cfg.day);
  metro::ZipfCatalog catalog(kCatalogObjects, kZipfSkew);
  util::Rng plan_rng = rng.fork();
  metro::EventPlan eplan = metro::EventPlan::generate(
      topo, catalog, cfg.day, cfg.flash_crowds, /*outages=*/0, plan_rng);
  model = std::make_unique<metro::WorkloadModel>(curve, catalog, eplan,
                                                 cfg.base_rate_per_home);

  homes.resize(topo.homes.size());
  for (std::size_t h = 0; h < homes.size(); ++h) {
    homes[h].rng = util::Rng(cfg.seed ^ (0x9E3779B97F4A7C15ull *
                                         static_cast<std::uint64_t>(h + 1)));
  }
}

void ShardedDay::schedule_arrival(std::size_t h, util::TimePoint after) {
  const util::TimePoint t =
      model->next_arrival(topo, h, after, homes[h].rng);
  if (t >= cfg.day) return;
  sim::Simulator& sim = topo.homes[h]->simulator();
  sim.schedule_at(t, [this, h, &sim] {
    HomeState& hs = homes[h];
    const std::size_t rank = model->draw_object(topo, h, sim.now(), hs.rng);
    fire_request(h, std::make_shared<RequestInfo>(
                        static_cast<std::uint32_t>(h),
                        static_cast<std::uint32_t>(rank),
                        model->catalog().bytes_of(rank)));
    ++hs.requests;
    schedule_arrival(h, sim.now());
  });
}

void ShardedDay::run(DayStats& r) {
  // Chaos, routed to the owning shard: each controller schedules on its
  // shard's simulator, so the fault fires on the worker that owns the
  // targeted subtree. Boundary links are never touched (see Engine).
  if (topo.pops.size() >= 3) {
    const std::size_t d1 = 1 * topo.params.dslams_per_pop;  // in PoP 1
    auto c1 = std::make_unique<fault::ChaosController>(eng->sim(1),
                                                       rng.fork());
    c1->register_node(topo.dslams[d1]->name(), topo.dslams[d1]);
    c1->crash_at(topo.dslams[d1]->name(), cfg.day * 3 / 10, cfg.day / 10);
    chaos.push_back(std::move(c1));

    const std::size_t d2 = 2 * topo.params.dslams_per_pop;  // in PoP 2
    auto c2 = std::make_unique<fault::ChaosController>(eng->sim(2),
                                                       rng.fork());
    const auto [first, last] = topo.homes_of_dslam(d2);
    std::vector<net::Node*> cut_homes;
    for (std::size_t h = first; h < last; ++h) {
      cut_homes.push_back(topo.homes[h]);
    }
    c2->partition_at(std::move(cut_homes), {}, cfg.day * 45 / 100,
                     cfg.day * 15 / 100);
    chaos.push_back(std::move(c2));
  }

  for (std::size_t h = 0; h < homes.size(); ++h) schedule_arrival(h, 0);

  const auto wall0 = std::chrono::steady_clock::now();
  eng->run_until(cfg.day);
  const auto wall1 = std::chrono::steady_clock::now();

  r.wall_s = std::chrono::duration<double>(wall1 - wall0).count();
  r.events = eng->events_executed();
  r.epochs = eng->stats().epochs;
  r.crossings = eng->stats().crossings;
  r.spilled = eng->stats().spilled;
  for (const auto& c : chaos) {
    r.chaos_crashes += c->stats().crashes;
    r.chaos_restarts += c->stats().restarts;
    r.partition_drops += c->stats().partition_drops;
    r.partition_heals += c->stats().partition_heals;
  }
}

std::uint64_t ShardedDay::requests() const {
  std::uint64_t n = 0;
  for (const HomeState& hs : homes) n += hs.requests;
  return n;
}

std::string ShardedDay::report(const char* kind, const DayStats& r,
                               const std::string& body,
                               std::uint64_t pop_hash) const {
  util::Fnv shard_hash;
  for (std::uint64_t f : plan.fingerprints) shard_hash.mix(f);

  std::string out;
  appendf(out,
          "%s homes=%zu pops=%zu partitions=%zu day_ms=%" PRId64
          " seed=%" PRIu64 "\n",
          kind, topo.homes.size(), topo.pops.size(), plan.partitions,
          cfg.day / util::kMillisecond, cfg.seed);
  appendf(out,
          "topology fp=%016" PRIx64 " shards fp=%016" PRIx64
          " lookahead_us=%" PRId64 "\n",
          topo.fingerprint(), shard_hash.h,
          plan.lookahead / util::kMicrosecond);
  out += body;
  appendf(out, "per-pop hash=%016" PRIx64 "\n", pop_hash);
  appendf(out,
          "chaos crashes=%" PRIu64 " restarts=%" PRIu64
          " partition_drops=%" PRIu64 "\n",
          r.chaos_crashes, r.chaos_restarts, r.partition_drops);
  appendf(out,
          "events=%" PRIu64 " epochs=%" PRIu64 " crossings=%" PRIu64
          " spilled=%" PRIu64 "\n",
          r.events, r.epochs, r.crossings, r.spilled);
  return out;
}

}  // namespace hpop::psim
