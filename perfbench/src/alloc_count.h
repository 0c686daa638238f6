// Allocation counting for the benchmark binary only: this translation unit
// replaces the global operator new/delete with malloc/free wrappers that
// count allocations while counting is switched on. Counting is off by
// default and stays off during timed serving; the single-threaded replay
// switches it on around RouteFirst/RouteLater loops to produce
// core.allocs_per_route_*.
#pragma once

#include <cstdint>

namespace perfbench {

/// Zeroes the counter and starts counting allocations (all threads).
void StartAllocCounting();

/// Stops counting and returns the allocations made since the last start.
std::uint64_t StopAllocCounting();

}  // namespace perfbench
