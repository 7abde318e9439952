#!/usr/bin/env python3
"""Project linter for mcio: rules clang-tidy cannot express.

Run from the repository root (CI runs it in the static-analysis job):

    python3 tools/lint.py [paths...]

Rules, scoped to src/ and tests/ (see DESIGN.md §8 for the rationale):

  raw-assert          `assert(...)` is compiled out in release builds; the
                      simulator is a correctness oracle, so invariants must
                      use MCIO_CHECK* (always on, throws util::Error).
  std-rand            `std::rand`/`srand` is hidden global state and breaks
                      bit-for-bit reproducibility; draw from util::Rng.
  time-seeded-rng     an RNG seeded from the wall clock or random_device
                      produces unreplayable runs; randomized tests must
                      seed from an explicit constant or testing::test_seed()
                      (override with MCIO_TEST_SEED) so any failure replays.
  untagged-narrowing  a `.size()` (size_t) value bound to an `int` without
                      an explicit static_cast silently truncates at scale;
                      tag the narrowing with static_cast<int>(...).
  unobserved-park     a blocking `park()` (or its continuation form
                      `try_park()`) outside the scheduler itself must
                      tell the verification observer what it waits on
                      (on_wait_begin/on_wait_end) so a deadlock report can
                      name the missing message. New engine touch points
                      follow the same observer-hook pattern.
  banned-include      `#include <ctime>` / `#include <random>` /
                      `std::chrono::system_clock` inside the deterministic
                      dirs src/{sim,io,mpi,core,pfs} — host time and RNG
                      must not be reachable from simulated code paths.

Scope-aware mutable-static detection moved to mcio-analyze (the deep
pass; DESIGN.md §13) — lint.py stays the fast regex pre-commit path.
Suppressions: `// lint:allow <rule>`; lines suppressed for mcio-analyze
with `// mcio-analyze: allow(<rule>) -- <justification>` are honored for
the same rule name, so one annotation serves both tools.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

SRC_EXTENSIONS = {".h", ".cc"}

# raw assert( — but not static_assert, and not inside identifiers.
RE_ASSERT = re.compile(r"(?<![\w_])assert\s*\(")
RE_STATIC_ASSERT = re.compile(r"static_assert\s*\(")
RE_RAND = re.compile(r"(?<![\w_])(?:std::)?s?rand\s*\(")
# An RNG engine constructed/seeded with a nondeterministic source on the
# same statement: std::mt19937 g(time(0)), util::Rng(random_device{}()),
# rng.seed(chrono::...), etc.
RE_RNG_ENGINE = re.compile(
    r"(?:mt19937(?:_64)?|default_random_engine|minstd_rand0?|"
    r"ranlux\d+\w*|knuth_b|util::Rng|Rng)\b[^;]*[({]"
)
RE_NONDET_SEED = re.compile(
    r"random_device|(?<![\w_])time\s*\(|::time\b|chrono\s*::|clock\s*\(")
RE_SEED_CALL = re.compile(r"\.seed\s*\(")
# `int x = ....size()` / `int x(....size())` with no cast tag.
RE_INT_FROM_SIZE = re.compile(
    r"(?<![\w_])(?:int|std::int32_t|int32_t)\s+\w+\s*[({=][^;]*\.size\(\)"
)
RE_SIZE_CAST = re.compile(r"static_cast<[^>]+>\s*\([^;]*\.size\(\)")
RE_PARK = re.compile(r"(?<![\w_.])(?:\w+\.)?(?:try_)?park\s*\(\s*\)")
RE_WAIT_HOOK = re.compile(r"on_wait_begin\s*\(")
# Banned includes/uses in the deterministic dirs (the fast subset of
# mcio-analyze's wall-clock/raw-random rules).
RE_BANNED_INCLUDE = re.compile(r"#\s*include\s*<(ctime|random)>")
RE_SYSTEM_CLOCK = re.compile(r"std\s*::\s*chrono\s*::\s*system_clock")

# How far above a park() the wait hook must appear (lines).
PARK_HOOK_WINDOW = 20

LINT_OFF = "lint:allow"  # `// lint:allow <rule>` suppresses one line


def strip_comments_and_strings(line: str) -> str:
    """Removes // comments and string/char literal contents (coarse but
    sufficient: rule patterns never span lines)."""
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    line = re.sub(r"'(?:[^'\\]|\\.)*'", "''", line)
    return line.split("//", 1)[0]


def lint_file(path: Path) -> list[tuple[Path, int, str, str]]:
    findings = []
    raw_lines = path.read_text(encoding="utf-8").splitlines()
    lines = [strip_comments_and_strings(l) for l in raw_lines]
    posix = path.as_posix()
    in_sim = "src/sim/" in posix
    deterministic_dir = any(
        d in posix for d in ("src/sim/", "src/io/", "src/mpi/",
                             "src/core/", "src/pfs/"))

    def allow(i: int, rule: str) -> bool:
        line = raw_lines[i]
        if LINT_OFF in line and rule in line:
            return True
        # mcio-analyze suppressions count for the same rule name (on the
        # line or directly above, mirroring the analyzer), so one
        # annotation serves both tools.
        above = raw_lines[i - 1] if i > 0 else ""
        return any("mcio-analyze: allow(" in l and rule in l
                   for l in (line, above))

    for i, line in enumerate(lines):
        n = i + 1
        if RE_ASSERT.search(line) and not RE_STATIC_ASSERT.search(line):
            if not allow(i, "raw-assert"):
                findings.append(
                    (path, n, "raw-assert",
                     "use MCIO_CHECK* instead of assert() — asserts "
                     "vanish in release builds"))
        if RE_RAND.search(line) and not allow(i, "std-rand"):
            findings.append(
                (path, n, "std-rand",
                 "use util::Rng — std::rand is global state and not "
                 "reproducible"))
        if ((RE_RNG_ENGINE.search(line) or RE_SEED_CALL.search(line))
                and RE_NONDET_SEED.search(line)
                and not allow(i, "time-seeded-rng")):
            findings.append(
                (path, n, "time-seeded-rng",
                 "seed RNGs from an explicit constant or "
                 "testing::test_seed() — wall-clock / random_device "
                 "seeds make failures unreplayable"))
        if (RE_INT_FROM_SIZE.search(line)
                and not RE_SIZE_CAST.search(line)
                and not allow(i, "untagged-narrowing")):
            findings.append(
                (path, n, "untagged-narrowing",
                 "tag the size_t -> int narrowing with "
                 "static_cast<int>(...)"))
        if (deterministic_dir
                and (RE_BANNED_INCLUDE.search(line)
                     or RE_SYSTEM_CLOCK.search(line))
                and not allow(i, "banned-include")):
            findings.append(
                (path, n, "banned-include",
                 "<ctime>/<random>/system_clock in a deterministic dir "
                 "— host time and RNG must stay out of "
                 "src/{sim,io,mpi,core,pfs} (DESIGN.md §12); "
                 "mcio-analyze runs the deep version of this rule"))
        if not in_sim and RE_PARK.search(line):
            window = lines[max(0, i - PARK_HOOK_WINDOW):i]
            if (not any(RE_WAIT_HOOK.search(w) for w in window)
                    and not allow(i, "unobserved-park")):
                findings.append(
                    (path, n, "unobserved-park",
                     "blocking park() without a verify observer "
                     "on_wait_begin within the preceding "
                     f"{PARK_HOOK_WINDOW} lines — deadlocks here would "
                     "be undiagnosable (DESIGN.md §8)"))
    return findings


def main(argv: list[str]) -> int:
    roots = [Path(a) for a in argv[1:]] or [Path("src"), Path("tests")]
    files = []
    for root in roots:
        if root.is_file():
            files.append(root)
        else:
            files.extend(p for p in sorted(root.rglob("*"))
                         if p.suffix in SRC_EXTENSIONS
                         and "analyze_fixtures" not in p.parts)
    if not files:
        print("lint.py: no source files found", file=sys.stderr)
        return 2

    findings = []
    for f in files:
        findings.extend(lint_file(f))

    for path, line, rule, msg in findings:
        print(f"{path}:{line}: [{rule}] {msg}")
    if findings:
        print(f"lint.py: {len(findings)} finding(s) in {len(files)} files",
              file=sys.stderr)
        return 1
    print(f"lint.py: clean ({len(files)} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
