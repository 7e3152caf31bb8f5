#include "metro/partition.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "util/hash.hpp"

namespace hpop::metro {

namespace {

void hash_link_params(util::Fnv& fnv, const net::Link* link) {
  const net::LinkParams& lp = link->params();
  fnv.mix_double(lp.rate);
  fnv.mix(static_cast<std::uint64_t>(lp.delay));
  fnv.mix_double(lp.loss);
  fnv.mix(lp.queue_bytes);
}

}  // namespace

ShardPlan plan_shards(const MetroTopology& topo) {
  const std::size_t pops = topo.pops.size();
  assert(pops > 0 && "plan_shards needs a built metro");
  ShardPlan plan;
  plan.partitions = pops + 1;
  plan.core_partition = pops;

  plan.lookahead = std::numeric_limits<util::Duration>::max();
  for (const net::Link* up : topo.pop_uplinks) {
    plan.lookahead = std::min(plan.lookahead, up->params().delay);
  }

  plan.fingerprints.resize(plan.partitions);
  for (std::size_t p = 0; p < pops; ++p) {
    util::Fnv fnv;
    fnv.mix(p);
    const auto [first, last] = topo.homes_of_pop(p);
    fnv.mix(first);
    fnv.mix(last);
    for (std::size_t hh = first; hh < last; ++hh) {
      const std::uint32_t addr = topo.home_address(hh).value;
      fnv.mix_bytes(&addr, sizeof addr);  // the address's 4 bytes, not 8
    }
    hash_link_params(fnv, topo.pop_uplinks[p]);
    plan.fingerprints[p] = fnv.h;
  }
  util::Fnv fnv;
  fnv.mix(plan.core_partition);
  fnv.mix(topo.origins.size());
  for (const net::Link* ol : topo.origin_links) hash_link_params(fnv, ol);
  plan.fingerprints[plan.core_partition] = fnv.h;
  return plan;
}

}  // namespace hpop::metro
