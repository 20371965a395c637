#pragma once
// The stable BENCH_*.json schema: the per-PR performance/accuracy
// trajectory format.  Every producer — the validation harness, the CI
// bench-record job (via tools/bench_compare.py, which converts Google
// Benchmark output to the same shape) — emits this one schema so
// trajectories from different sources are directly comparable:
//
//   {
//     "schema": "slimcodeml-bench-v1",
//     "host": {"name": "...", "hardwareThreads": N, "simd": "avx2"},
//     "benchmarks": {
//       "<name>": {"real_time_ns": 123.0, "items_per_second": 456.0}
//     }
//   }
//
// real_time_ns is wall-clock per iteration of whatever the benchmark's unit
// of work is; items_per_second is the benchmark's own throughput counter
// (0 when it has none).  tools/bench_compare.py consumes two of these files
// and fails on regressions beyond a tolerance.

#include <span>
#include <string>

namespace slim::support {

struct BenchEntry {
  std::string name;
  double realTimeNs = 0;
  double itemsPerSecond = 0;
};

/// The schema document as a string (entries in the given order).
std::string benchJson(std::span<const BenchEntry> entries);

/// Write the schema document atomically (temp+fsync+rename).
void writeBenchFile(const std::string& path,
                    std::span<const BenchEntry> entries);

}  // namespace slim::support
