#!/usr/bin/env python3
"""slim_lint: SlimCodeML's repo-specific invariant checks.

Enforces the handful of invariants no off-the-shelf tool knows about,
because they are *this* repo's correctness contracts (see
docs/static-analysis.md):

  hex-doubles          Persisted doubles must round-trip bit-exactly through
                       hexDouble ("%a").  Serializer functions (serialize*/
                       persist*/snapshot*/writeDoubles/writeJson*/toJson*)
                       must not format doubles with printf "%f"/"%e" or
                       std::to_string — both are lossy, and a lossy
                       checkpoint silently breaks bit-identical resume.
  atomic-writes        Every file write in src/ must go through
                       support::writeFileAtomic (temp + fsync + rename).  A
                       raw std::ofstream outside support/atomic_file.cpp can
                       leave a truncated checkpoint/report after SIGKILL.
  keyed-errors         The hostile-input parsers (ctl config, checkpoint,
                       serve protocol, tuning profile) must throw keyed
                       ConfigError/ProtocolError/JsonError, never bare
                       std::runtime_error — callers (daemon submit,
                       --resume, the fuzz harnesses) key on the type.
  determinism          No rand()/srand()/std::random_device/time(NULL) in
                       src/ (all randomness is seeded PRNG state), and no
                       range-for over unordered containers: iteration order
                       would leak the hash function into reductions and
                       reports that must be bit-stable across
                       platforms/runs.
  isa-flags            ISA-specific code stays quarantined: <immintrin.h> /
                       <x86intrin.h> only in the two runtime-dispatched
                       kernel TUs, and -mavx* / -march compile flags only on
                       those TUs' source properties in CMakeLists.txt.
                       Anything else risks an illegal instruction on the
                       oldest supported host.
  include-cycles       The quoted-include graph over src/ headers must be a
                       DAG.  A cycle (even one hidden behind include guards)
                       means the layering is broken: whichever header is
                       parsed first sees an incomplete view of the other,
                       and whether that compiles depends on include order in
                       unrelated TUs.  Each cycle is reported once, at the
                       lexicographically smallest participating header.
  kernel-choice        One place chooses the engine's arithmetic.  In src/,
                       linalg::Flavor and the kernel-table accessors
                       (simdKernels(, naiveKernels(, *KernelTable() appear
                       only in linalg/, backend/ (whose
                       resolveComputeBackend maps flavor, `backend =` and
                       `simd =` to one table) and lik/options.hpp (the
                       presets).  Every other function takes the resolved
                       table as a parameter.

Waivers: a finding is suppressed when the offending line, or the line
directly above it, carries

    // slim-lint: allow(<rule>)

with a comment explaining why the invariant holds anyway.

Usage: tools/lint/slim_lint.py [--root DIR] [--rules]
Exit status: 0 clean, 1 findings, 2 usage/internal error.
Stdlib only; no third-party dependencies.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

SERIALIZER_NAME = re.compile(
    r"serialize\w*|persist\w*|snapshot\w*|writeDoubles|writeJson\w*|"
    r"writeReport\w*|toJson\w*"
)

# Parser TUs whose error taxonomy is contractual (see keyed-errors above).
KEYED_ERROR_FILES = {
    os.path.join("src", "core", "config.cpp"),
    os.path.join("src", "core", "checkpoint.cpp"),
    os.path.join("src", "core", "tuning_profile.cpp"),
    os.path.join("src", "serve", "protocol.cpp"),
    os.path.join("src", "support", "json_parse.cpp"),
}

ISA_ALLOWED_FILES = {
    os.path.join("src", "linalg", "kernels_avx2.cpp"),
    os.path.join("src", "linalg", "kernels_avx512.cpp"),
}

# Where the kernel choice may be made (see kernel-choice above).
KERNEL_CHOICE_DIRS = (
    os.path.join("src", "linalg") + os.sep,
    os.path.join("src", "backend") + os.sep,
)
KERNEL_CHOICE_FILES = {os.path.join("src", "lik", "options.hpp")}

WAIVER = re.compile(r"//\s*slim-lint:\s*allow\(([a-z-]+)\)")


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def sanitize(text: str) -> str:
    """Blank out comments, string and char literals, preserving line
    structure and length, so structural scans (brace matching, identifier
    searches) never match inside them.  Raw lines keep the original text for
    rules that must look *inside* literals (printf formats) and for waiver
    comments."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(quote)
            elif c == "\n":  # unterminated (raw string etc.): bail to code
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def waived(raw_lines: list[str], line_no: int, rule: str) -> bool:
    """line_no is 1-based.  The waiver may sit on the line itself or the one
    directly above."""
    for ln in (line_no, line_no - 1):
        if 1 <= ln <= len(raw_lines):
            m = WAIVER.search(raw_lines[ln - 1])
            if m and m.group(1) == rule:
                return True
    return False


def line_of(offset: int, text: str) -> int:
    return text.count("\n", 0, offset) + 1


def serializer_bodies(clean: str):
    """Yield (start_line, end_line, name) for function bodies whose name
    matches SERIALIZER_NAME, via brace matching on sanitized text."""
    for m in re.finditer(r"\b(\w+)\s*\(", clean):
        if not SERIALIZER_NAME.fullmatch(m.group(1)):
            continue
        # Find the parameter list's closing paren, then require a '{' before
        # the next ';' (otherwise it is a declaration or a call).
        depth, j = 0, m.end() - 1
        while j < len(clean):
            if clean[j] == "(":
                depth += 1
            elif clean[j] == ")":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        if j >= len(clean):
            continue
        k = j + 1
        while k < len(clean) and clean[k] not in "{;":
            k += 1
        if k >= len(clean) or clean[k] != "{":
            continue
        depth = 0
        end = k
        while end < len(clean):
            if clean[end] == "{":
                depth += 1
            elif clean[end] == "}":
                depth -= 1
                if depth == 0:
                    break
            end += 1
        yield line_of(k, clean), line_of(end, clean), m.group(1)


PRINTF_FLOAT = re.compile(r"%[-+ #0-9.*]*[hlLqjzt]*[feE]")
TO_STRING = re.compile(r"\bto_string\s*\(")
OFSTREAM = re.compile(r"\bstd\s*::\s*ofstream\b|\bofstream\s+\w+\s*\(")
RUNTIME_ERROR = re.compile(r"\bstd\s*::\s*runtime_error\b")
RANDOMNESS = re.compile(
    r"\b(?:std\s*::\s*)?(?:rand|srand)\s*\(|\bstd\s*::\s*random_device\b|"
    r"\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
)
UNORDERED_DECL = re.compile(
    r"unordered_(?:map|set)\s*<[^;{}]{0,400}?>\s+(\w+)", re.S
)
RANGE_FOR = re.compile(r"\bfor\s*\([^;()]*?:\s*(?:[\w.\->]*[.\->])?(\w+)\s*\)")
ISA_INCLUDE = re.compile(r'#\s*include\s*[<"](?:immintrin|x86intrin)\.h[>"]')
KERNEL_CHOICE = re.compile(
    r"\bFlavor\b|\b(?:simdKernels|naiveKernels|\w*KernelTable)\s*\(")
CMAKE_ISA_FLAG = re.compile(r"-m(?:avx|sse|fma)\w*|-march=")


def check_file(relpath: str, text: str, findings: list[Finding]) -> None:
    raw_lines = text.splitlines()
    clean = sanitize(text)
    clean_lines = clean.splitlines()

    def add(line_no: int, rule: str, message: str) -> None:
        if not waived(raw_lines, line_no, rule):
            findings.append(Finding(relpath, line_no, rule, message))

    # --- hex-doubles: inside serializer bodies only -------------------------
    for start, end, name in serializer_bodies(clean):
        for ln in range(start, min(end, len(raw_lines)) + 1):
            raw = raw_lines[ln - 1]
            if PRINTF_FLOAT.search(raw) and "%a" not in raw:
                add(ln, "hex-doubles",
                    f"printf float conversion in serializer '{name}' — "
                    "persisted doubles must go through hexDouble (\"%a\")")
            if ln <= len(clean_lines) and TO_STRING.search(clean_lines[ln - 1]):
                add(ln, "hex-doubles",
                    f"std::to_string in serializer '{name}' — lossy for "
                    "doubles; use hexDouble, or stream integers directly")

    # --- atomic-writes ------------------------------------------------------
    if relpath != os.path.join("src", "support", "atomic_file.cpp"):
        for ln, cl in enumerate(clean_lines, 1):
            if OFSTREAM.search(cl):
                add(ln, "atomic-writes",
                    "raw std::ofstream — write through "
                    "support::writeFileAtomic so SIGKILL can never leave a "
                    "truncated file")

    # --- keyed-errors -------------------------------------------------------
    if relpath in KEYED_ERROR_FILES:
        for ln, cl in enumerate(clean_lines, 1):
            if RUNTIME_ERROR.search(cl):
                add(ln, "keyed-errors",
                    "bare std::runtime_error in a parser TU — throw the "
                    "keyed ConfigError/ProtocolError/JsonError instead")

    # --- determinism --------------------------------------------------------
    for ln, cl in enumerate(clean_lines, 1):
        if RANDOMNESS.search(cl):
            add(ln, "determinism",
                "rand()/time()/random_device — results must be "
                "bit-reproducible; use seeded PRNG state plumbed through "
                "the config")
    unordered_names = {m.group(1) for m in UNORDERED_DECL.finditer(clean)}
    if unordered_names:
        for ln, cl in enumerate(clean_lines, 1):
            m = RANGE_FOR.search(cl)
            if m and m.group(1) in unordered_names:
                add(ln, "determinism",
                    f"range-for over unordered container '{m.group(1)}' — "
                    "iteration order is hash-dependent; iterate a sorted "
                    "view or waive if provably order-independent")

    # --- kernel-choice ------------------------------------------------------
    if (not relpath.startswith(KERNEL_CHOICE_DIRS)
            and relpath not in KERNEL_CHOICE_FILES):
        for ln, cl in enumerate(clean_lines, 1):
            m = KERNEL_CHOICE.search(cl)
            if m:
                add(ln, "kernel-choice",
                    f"'{m.group(0).rstrip('( ')}' outside linalg/, backend/ "
                    "and lik/options.hpp — take the table "
                    "backend::resolveComputeBackend chose as a parameter")

    # --- isa-flags ----------------------------------------------------------
    if relpath not in ISA_ALLOWED_FILES:
        for ln, raw in enumerate(raw_lines, 1):
            if ISA_INCLUDE.search(raw):
                add(ln, "isa-flags",
                    "ISA intrinsics header outside the dispatched kernel "
                    "TUs (src/linalg/kernels_avx{2,512}.cpp)")


QUOTED_INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')


def check_include_cycles(root: str, findings: list[Finding]) -> None:
    """Build the quoted-include graph over src/ headers and report each
    back-edge cycle the DFS finds (at least one per strongly connected
    component, so a cyclic graph always fails; rerun after breaking a cycle
    to surface any that shared an edge with it).
    Quoted includes are repo-root-relative, resolved
    against src/ (the project's sole include directory).  Includes of files
    that do not exist under src/ (generated headers, system headers spelled
    with quotes) are ignored — a missing node cannot participate in a
    cycle."""
    src = os.path.join(root, "src")
    graph: dict[str, list[tuple[str, int]]] = {}
    for dirpath, _dirnames, filenames in os.walk(src):
        for fn in sorted(filenames):
            if not fn.endswith((".hpp", ".h")):
                continue
            path = os.path.join(dirpath, fn)
            node = os.path.relpath(path, src).replace(os.sep, "/")
            edges = []
            with open(path, encoding="utf-8", errors="replace") as f:
                for ln, line in enumerate(f, 1):
                    m = QUOTED_INCLUDE.match(line)
                    if not m:
                        continue
                    target = m.group(1)
                    if os.path.isfile(os.path.join(src, target)):
                        edges.append((target, ln))
            graph[node] = edges

    # Iterative DFS with colors; on hitting a grey node, unwind the stack to
    # recover the cycle.  Deduplicate by the cycle's canonical rotation so
    # each loop is reported exactly once regardless of entry point.
    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in graph}
    seen_cycles: set[tuple[str, ...]] = set()

    def dfs(start: str) -> None:
        stack: list[tuple[str, int]] = [(start, 0)]
        path: list[str] = [start]
        color[start] = GREY
        while stack:
            node, idx = stack[-1]
            edges = graph.get(node, [])
            if idx < len(edges):
                stack[-1] = (node, idx + 1)
                target, _ln = edges[idx]
                if color.get(target, BLACK) == GREY:
                    cycle = path[path.index(target):]
                    smallest = min(range(len(cycle)), key=lambda i: cycle[i])
                    canon = tuple(cycle[smallest:] + cycle[:smallest])
                    if canon not in seen_cycles:
                        seen_cycles.add(canon)
                        head, succ = canon[0], canon[1 % len(canon)]
                        line = next((l for t, l in graph[head] if t == succ),
                                    1)
                        findings.append(Finding(
                            os.path.join("src", *head.split("/")), line,
                            "include-cycles",
                            "header include cycle: "
                            + " -> ".join(canon + (canon[0],))))
                elif color.get(target, BLACK) == WHITE:
                    color[target] = GREY
                    stack.append((target, 0))
                    path.append(target)
            else:
                color[node] = BLACK
                stack.pop()
                path.pop()

    for node in sorted(graph):
        if color[node] == WHITE:
            dfs(node)


def check_cmake(relpath: str, text: str, findings: list[Finding]) -> None:
    """Command-aware scan: an ISA flag is fine inside a compiler probe, a
    SLIM_AVX* option-variable definition, or any command that names the
    kernel TUs; anywhere else it would leak AVX code into TUs that run on
    every host."""
    raw_lines = text.splitlines()
    stripped = "\n".join(l.split("#", 1)[0] for l in raw_lines)
    for m in re.finditer(r"\b(\w+)\s*\(", stripped):
        name = m.group(1)
        depth, j = 0, m.end() - 1
        while j < len(stripped):
            if stripped[j] == "(":
                depth += 1
            elif stripped[j] == ")":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        body = stripped[m.end():j]
        flag = CMAKE_ISA_FLAG.search(body)
        if not flag:
            continue
        if "kernels_avx" in body or name == "check_cxx_compiler_flag":
            continue
        if name in ("set", "list") and re.search(r"\bSLIM_AVX\w*", body):
            continue
        ln = line_of(m.end() + flag.start(), stripped)
        if not waived(raw_lines, ln, "isa-flags"):
            findings.append(Finding(
                relpath, ln, "isa-flags",
                "ISA compile flag not scoped to the kernel TUs — attach it "
                "via set_source_files_properties on kernels_avx*.cpp only"))


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repo root (default: two levels up from this file)")
    ap.add_argument("--rules", action="store_true",
                    help="print the rule documentation and exit")
    args = ap.parse_args(argv)

    if args.rules:
        print(__doc__)
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    src = os.path.join(root, "src")
    if not os.path.isdir(src):
        print(f"slim_lint: no src/ under '{root}'", file=sys.stderr)
        return 2

    findings: list[Finding] = []
    for dirpath, _dirnames, filenames in os.walk(src):
        for fn in sorted(filenames):
            if not fn.endswith((".hpp", ".cpp", ".h", ".cc")):
                continue
            path = os.path.join(dirpath, fn)
            rel = os.path.relpath(path, root)
            with open(path, encoding="utf-8", errors="replace") as f:
                check_file(rel, f.read(), findings)
    check_include_cycles(root, findings)
    cmake = os.path.join(root, "CMakeLists.txt")
    if os.path.isfile(cmake):
        with open(cmake, encoding="utf-8", errors="replace") as f:
            check_cmake("CMakeLists.txt", f.read(), findings)

    for f in sorted(findings, key=lambda f: (f.path, f.line)):
        print(f)
    if findings:
        print(f"slim_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
