#pragma once
// Host identification for the BENCH_*.json writers.  Benchmarks are only
// meaningful on the machine that produced them, so every record names
// where it came from.

#include <string>

namespace slim::support {

/// The machine's hostname ("unknown" when the platform call fails).
std::string hostName();

/// Hardware thread count (>= 1).
int hardwareThreads();

}  // namespace slim::support
