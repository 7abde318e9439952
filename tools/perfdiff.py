#!/usr/bin/env python3
"""Golden checker: compares a fresh bench `--json` run with a perf/ snapshot.

    python3 tools/perfdiff.py FRESH.json SNAPSHOT.json

Every simulated field must match the snapshot exactly: bandwidths, message
and byte censuses, aggregator and group counts, degradation counters, and
the whole `audit` block. Points pair up by label. Host fields (wall clock,
peak memory, host CPUs, thread-sweep speedups) cannot match across runs or
hosts; the top-level ones print as fresh/snapshot ratios for information.

A `--threads-sweep` run replays the whole sweep once per thread count, so
its audit block is an exact multiple of a single sweep's: when the fresh
`runs` counter is k times the snapshot's, every audit counter is compared
against k times the snapshot value.

Exit status: 0 when no simulated field differs, 1 otherwise, 2 on bad input.
"""

from __future__ import annotations

import json
import sys

# Host-side measurements and thread-sweep bookkeeping: never compared.
HOST_FIELDS = {
    "wall_s", "peak_rss_bytes", "run_peak_rss_bytes", "task_s", "host_cpus",
    "speedup_vs_1", "threads", "note",
}


def simulated(fields: dict) -> dict:
    return {k: v for k, v in fields.items()
            if k not in HOST_FIELDS and k not in ("points", "audit")}


def diff_fields(where: str, fresh: dict, snap: dict, out: list[str]) -> None:
    for key in sorted(set(fresh) | set(snap)):
        if key not in fresh:
            out.append(f"{where}: {key} missing from the fresh run")
        elif key not in snap:
            out.append(f"{where}: {key} not in the snapshot")
        elif fresh[key] != snap[key]:
            out.append(f"{where}: {key} {fresh[key]!r} != {snap[key]!r}")


def diff_audit(fresh: dict, snap: dict, out: list[str]) -> None:
    scale = 1
    runs, snap_runs = fresh.get("runs", 0), snap.get("runs", 0)
    if snap_runs and runs != snap_runs and runs % snap_runs == 0:
        scale = runs // snap_runs
        print(f"audit: {runs} runs = {scale} x {snap_runs} (thread sweep)")
    diff_fields("audit", fresh,
                {k: v * scale for k, v in snap.items()}, out)


def diff_points(fresh: list, snap: list, out: list[str]) -> None:
    fresh_by = {p["label"]: simulated(p) for p in fresh}
    snap_by = {p["label"]: simulated(p) for p in snap}
    for label in list(snap_by) + [l for l in fresh_by if l not in snap_by]:
        f, s = fresh_by.get(label), snap_by.get(label)
        # Host-only points (thread-sweep rows) carry nothing to compare.
        if f is not None and s is None and set(f) <= {"label"}:
            continue
        if f is None:
            out.append(f"point {label!r} missing from the fresh run")
        elif s is None:
            out.append(f"point {label!r} not in the snapshot")
        else:
            diff_fields(f"point {label!r}", f, s, out)


def host_ratios(fresh: dict, snap: dict) -> None:
    for key in ("wall_s", "run_peak_rss_bytes"):
        if fresh.get(key) and snap.get(key):
            print(f"host {key}: {fresh[key]:.6g} / {snap[key]:.6g} = "
                  f"{fresh[key] / snap[key]:.2f}x (information only)")
    cpus = [p.get("host_cpus") for p in fresh.get("points", [])
            if "host_cpus" in p]
    if cpus:
        print(f"host_cpus (fresh): {cpus[0]}")


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    try:
        with open(argv[1]) as f:
            fresh = json.load(f)
        with open(argv[2]) as f:
            snap = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"perfdiff: {e}", file=sys.stderr)
        return 2
    print(f"perfdiff: {argv[1]} ({fresh.get('bench')}) vs "
          f"{argv[2]} ({snap.get('bench')})")
    out: list[str] = []
    if fresh.get("schema") != snap.get("schema"):
        out.append(f"schema {fresh.get('schema')!r} != "
                   f"{snap.get('schema')!r}")
    diff_audit(fresh.get("audit", {}), snap.get("audit", {}), out)
    diff_points(fresh.get("points", []), snap.get("points", []), out)
    host_ratios(fresh, snap)
    for line in out:
        print("DIFF " + line)
    npoints = len(snap.get("points", []))
    print(f"perfdiff: {len(out)} differing simulated field(s) over "
          f"{npoints} snapshot point(s) and the audit block")
    return 1 if out else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
