#!/usr/bin/env python3
"""Convert and compare slimcodeml-bench-v1 benchmark records.

Two subcommands, stdlib only (CI runs this on a bare python3):

  convert OUT.json IN1.json [IN2.json ...]
      Merge Google Benchmark --benchmark_format=json outputs (and/or
      existing slimcodeml-bench-v1 files) into one slimcodeml-bench-v1
      record.  Aggregate rows (_mean/_median/_stddev/_cv) are skipped;
      repetition rows of one benchmark are collapsed to their minimum
      real_time (the standard guard against scheduling noise).

  compare BASELINE.json NEW.json [--tolerance 0.15]
      Fail (exit 1) when any benchmark present in both files regressed by
      more than --tolerance.  On one host the gate reads each row as a ratio
      to a reference measured in the same record: the geometric mean real
      time of the naive-table rows (BM_Gemm/*/0, BM_GemmNT/*/0,
      BM_Syrk/*/0), CodeML's loop nests, which no engine change alters.
      That cancels the host-wide speed drift between two runs; records
      without the reference rows gate on real_time itself.  When the two
      records were measured on different hosts the comparison is advisory:
      every delta is printed but the exit code is 0 — absolute times from
      different machines are not comparable, only same-host trajectories
      are.

Schema (produced by src/support/bench_record.cpp and by convert):
  {"schema": "slimcodeml-bench-v1",
   "host": {"name": ..., "hardwareThreads": ..., "simd": ...},
   "benchmarks": {name: {"real_time_ns": ..., "items_per_second": ...}}}
"""

import argparse
import json
import math
import platform
import sys

SCHEMA = "slimcodeml-bench-v1"
REFERENCE_PREFIXES = ("BM_Gemm/", "BM_GemmNT/", "BM_Syrk/")


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def to_ns(value, unit):
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    return float(value) * scale.get(unit, 1.0)


def convert_one(doc, merged):
    """Fold one parsed JSON document into merged {name: entry}."""
    if doc.get("schema") == SCHEMA:
        for name, entry in doc.get("benchmarks", {}).items():
            merged[name] = dict(entry)
        return doc.get("host")
    # Google Benchmark format.
    for row in doc.get("benchmarks", []):
        if row.get("run_type") == "aggregate":
            continue
        name = row.get("run_name") or row["name"]
        ns = to_ns(row["real_time"], row.get("time_unit", "ns"))
        entry = merged.get(name)
        if entry is None or ns < entry["real_time_ns"]:
            merged[name] = {
                "real_time_ns": ns,
                "items_per_second": float(row.get("items_per_second", 0.0)),
            }
    # The microsuites add the host's detected SIMD level to the context
    # (bench/gbench_main.hpp); other Google Benchmark binaries leave it out.
    ctx = doc.get("context", {})
    if ctx:
        return {
            "name": ctx.get("host_name", platform.node() or "unknown"),
            "hardwareThreads": int(ctx.get("num_cpus", 0)),
            "simd": ctx.get("simd", "unknown"),
        }
    return None


def cmd_convert(args):
    merged = {}
    host = None
    for path in args.inputs:
        host = convert_one(load(path), merged) or host
    if host is None:
        host = {"name": platform.node() or "unknown",
                "hardwareThreads": 0, "simd": "unknown"}
    out = {"schema": SCHEMA, "host": host,
           "benchmarks": dict(sorted(merged.items()))}
    with open(args.output, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print(f"wrote {args.output}: {len(merged)} benchmarks "
          f"(host {host['name']})")
    return 0


def reference_ns(doc):
    """Geometric mean real time of the record's naive-table rows, or None."""
    times = [float(entry["real_time_ns"])
             for name, entry in doc["benchmarks"].items()
             if name.startswith(REFERENCE_PREFIXES) and name.endswith("/0")
             and float(entry["real_time_ns"]) > 0]
    if not times:
        return None
    return math.exp(sum(math.log(t) for t in times) / len(times))


def cmd_compare(args):
    base = load(args.baseline)
    new = load(args.new)
    for doc, path in ((base, args.baseline), (new, args.new)):
        if doc.get("schema") != SCHEMA:
            print(f"error: {path} is not a {SCHEMA} record", file=sys.stderr)
            return 2

    base_host = base.get("host", {}).get("name", "?")
    new_host = new.get("host", {}).get("name", "?")
    same_host = base_host == new_host
    if not same_host:
        print(f"note: baseline host '{base_host}' != new host '{new_host}' "
              f"-- advisory comparison only, regressions will NOT fail")

    shared = sorted(set(base["benchmarks"]) & set(new["benchmarks"]))
    if not shared:
        print("error: no shared benchmark names to compare", file=sys.stderr)
        return 2

    base_ref, new_ref = reference_ns(base), reference_ns(new)
    by_ratio = same_host and base_ref is not None and new_ref is not None
    if by_ratio:
        print(f"gate: ratio to the naive-table reference, {base_ref:.1f} ns "
              f"-> {new_ref:.1f} ns ({new_ref / base_ref - 1.0:+.1%})")

    regressions = []
    width = max(len(n) for n in shared)
    for name in shared:
        b = float(base["benchmarks"][name]["real_time_ns"])
        n = float(new["benchmarks"][name]["real_time_ns"])
        if b <= 0:
            continue
        delta = n / b - 1.0
        line = f"{name:<{width}}  {b:14.1f} ns -> {n:14.1f} ns {delta:+7.1%}"
        if by_ratio:
            delta = (n / new_ref) / (b / base_ref) - 1.0
            line += f"  ratio {delta:+7.1%}"
        flag = ""
        if delta > args.tolerance:
            flag = " REGRESSION" if same_host else " (regressed)"
            regressions.append((name, delta))
        print(line + flag)

    only_base = sorted(set(base["benchmarks"]) - set(new["benchmarks"]))
    for name in only_base:
        print(f"{name:<{width}}  missing from new record (not compared)")

    if regressions and same_host:
        print(f"\nFAIL: {len(regressions)} benchmark(s) regressed more than "
              f"{args.tolerance:.0%}:")
        for name, delta in regressions:
            print(f"  {name}: {delta:+.1%}")
        return 1
    print(f"\nOK: {len(shared)} benchmarks compared, tolerance "
          f"{args.tolerance:.0%}"
          + ("" if same_host else " (cross-host, advisory)"))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    conv = sub.add_parser("convert", help="merge gbench/bench JSON files")
    conv.add_argument("output")
    conv.add_argument("inputs", nargs="+")
    conv.set_defaults(func=cmd_convert)

    comp = sub.add_parser("compare", help="compare two bench records")
    comp.add_argument("baseline")
    comp.add_argument("new")
    comp.add_argument("--tolerance", type=float, default=0.15,
                      help="max allowed real_time regression (default 0.15)")
    comp.set_defaults(func=cmd_compare)

    args = parser.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
