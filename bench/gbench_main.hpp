#pragma once
// Shared main() body for the Google Benchmark microsuites: BENCHMARK_MAIN
// plus the host's SIMD level in the JSON "context" block, from which
// `tools/bench_compare.py convert` fills the record's host.simd.

#include <benchmark/benchmark.h>

#include "linalg/simd.hpp"

namespace slim::bench {

inline int runMicrobenchmarks(int argc, char** argv) {
  benchmark::AddCustomContext(
      "simd", linalg::simdLevelName(linalg::detectSimdLevel()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace slim::bench
