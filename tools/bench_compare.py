#!/usr/bin/env python3
"""Compare a bench JSON document against a checked-in snapshot.

Guards the perf trajectory: the nightly CI regenerates each bench's JSON and
diffs it against the snapshot under bench/snapshots/, failing on any metric
that regressed by more than the tolerance (default 10%). Correctness booleans
in the documents (byte-identity gates) must never flip to false, regardless
of tolerance.

Usage:
  tools/bench_compare.py --snapshot bench/snapshots/BENCH_decide_throughput.json \
      --current /tmp/current.json [--tolerance 0.10]

Exit status: 0 = no regression, 1 = regression (or flipped gate), 2 = usage /
input error. Stdlib only; no third-party dependencies.
"""

import argparse
import json
import sys

# Per-bench comparison plan: which array to walk, how to key its entries,
# and which metrics to compare in which direction. "higher" metrics fail
# when current < snapshot * (1 - tol); "lower" metrics fail when
# current > snapshot * (1 + tol).
PLANS = {
    "decide_throughput": {
        "series": [
            {
                "path": "series",
                "key": "config",
                "metrics": [
                    ("decisions_per_sec", "higher"),
                    ("stage_scorings_per_sec", "higher"),
                ],
            }
        ],
        "gates": ["exact_mode_reports_identical"],
    },
    "ab_harness": {
        "series": [
            {
                "path": "series",
                "key": "threads",
                "metrics": [("seconds", "lower")],
                "gates": ["paired_identical_to_serial"],
            }
        ],
        "gates": ["arm_reports_identical_to_standalone"],
    },
    "scenario_sweep": {
        "series": [
            {
                "path": "series",
                "key": "scenario",
                "metrics": [
                    ("cost", "lower"),
                    ("canary_cost", "lower"),
                    ("cache_hit_rate", "higher"),
                    ("exec_r2", "higher"),
                ],
                "gates": ["deterministic"],
            }
        ],
        "gates": ["all_deterministic"],
    },
    "fleet_scale": {
        "series": [
            {
                "path": "series",
                "key": "threads",
                "metrics": [("seconds", "lower")],
                "gates": ["identical_to_serial"],
            },
            {
                "path": "process_series",
                "key": "processes",
                "metrics": [("decide_seconds", "lower"), ("merge_seconds", "lower")],
                "gates": ["identical_to_sequential"],
            },
        ],
        "gates": [],
    },
}


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def index_series(doc, path, key):
    out = {}
    for entry in doc.get(path, []):
        if key in entry:
            out[entry[key]] = entry
    return out


def compare(snapshot, current, tolerance):
    """Returns (regressions, notes): failure strings and informational lines."""
    bench = snapshot.get("bench")
    if bench != current.get("bench"):
        return ([f"bench kind mismatch: snapshot={bench!r} current={current.get('bench')!r}"], [])
    plan = PLANS.get(bench)
    if plan is None:
        return ([f"no comparison plan for bench kind {bench!r}"], [])

    regressions, notes = [], []

    for gate in plan["gates"]:
        if snapshot.get(gate) and not current.get(gate):
            regressions.append(f"correctness gate '{gate}' flipped to false")

    for spec in plan["series"]:
        snap_rows = index_series(snapshot, spec["path"], spec["key"])
        cur_rows = index_series(current, spec["path"], spec["key"])
        for key, snap_row in snap_rows.items():
            cur_row = cur_rows.get(key)
            label = f"{spec['path']}[{spec['key']}={key}]"
            if cur_row is None:
                regressions.append(f"{label}: missing from current run")
                continue
            for gate in spec.get("gates", []):
                if snap_row.get(gate) and not cur_row.get(gate):
                    regressions.append(f"{label}: gate '{gate}' flipped to false")
            for metric, direction in spec["metrics"]:
                if metric not in snap_row:
                    continue
                base, now = snap_row[metric], cur_row.get(metric)
                if now is None:
                    regressions.append(f"{label}: metric '{metric}' missing")
                    continue
                if base == 0:
                    continue
                change = (now - base) / base
                line = f"{label} {metric}: {base:.6g} -> {now:.6g} ({change:+.1%})"
                bad = (direction == "higher" and now < base * (1.0 - tolerance)) or (
                    direction == "lower" and now > base * (1.0 + tolerance)
                )
                if bad:
                    regressions.append(line + f"  [> {tolerance:.0%} regression]")
                else:
                    notes.append(line)
    return regressions, notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--snapshot", required=True, help="checked-in baseline JSON")
    ap.add_argument("--current", required=True, help="freshly generated bench JSON")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="allowed fractional regression per metric (default 0.10)",
    )
    args = ap.parse_args()
    if not 0.0 <= args.tolerance < 1.0:
        print("bench_compare: --tolerance must be in [0, 1)", file=sys.stderr)
        return 2

    regressions, notes = compare(load(args.snapshot), load(args.current), args.tolerance)
    for line in notes:
        print(f"  ok   {line}")
    for line in regressions:
        print(f"  FAIL {line}")
    if regressions:
        print(
            f"bench_compare: {len(regressions)} regression(s) vs {args.snapshot} "
            f"(tolerance {args.tolerance:.0%})"
        )
        return 1
    print(f"bench_compare: no regression vs {args.snapshot} (tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
