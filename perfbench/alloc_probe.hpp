// What day.cpp reads from the allocator. alloc_on.cpp backs it with
// the counting operator new of bench/alloc_hook.hpp; alloc_off.cpp leaves
// the allocator alone and reports that nothing is counted.
#pragma once

#include <cstdint>

namespace perfbench {

bool alloc_counted();
std::uint64_t alloc_count();
std::int64_t live_bytes();

}  // namespace perfbench
