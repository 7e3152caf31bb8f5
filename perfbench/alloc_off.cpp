#include "alloc_probe.hpp"

namespace perfbench {

bool alloc_counted() { return false; }
std::uint64_t alloc_count() { return 0; }
std::int64_t live_bytes() { return 0; }

}  // namespace perfbench
