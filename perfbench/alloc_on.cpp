#include "bench/alloc_hook.hpp"

#include "alloc_probe.hpp"

namespace perfbench {

bool alloc_counted() { return true; }
std::uint64_t alloc_count() { return hpop::benchhook::alloc_count(); }
std::int64_t live_bytes() { return hpop::benchhook::live_bytes(); }

}  // namespace perfbench
