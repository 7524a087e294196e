#!/usr/bin/env python3
"""Schema gate for the fleet telemetry artifacts (tools/ambatch).

Validates the two ambatch outputs:

``--events F.jsonl``
    The streaming ``amevents-v1`` log: a header line announcing the
    schema, pass spec and declared job count, then one self-contained
    JSON record per job with the required identity, status, timing and
    counter fields.  A truncated *final* line is tolerated (that is the
    format's crash contract) but counted; truncation anywhere else, or a
    malformed field, fails.

``--aggregate F.json``
    The deterministic ``amagg-v1`` cross-job summary: schema, job counts
    consistent between the status tally and the header, and per-counter
    invariants (min <= mean <= max, histogram population == reporting
    jobs, p50 <= p95 <= p99).  The aggregate must not contain any
    wall-clock field — its determinism contract depends on that.

Either or both may be given; each is validated independently.
``--jobs N`` additionally pins the expected job count.

Exit codes: 0 ok, 1 validation failure, 2 usage/environment.
"""

import argparse
import json
import sys

EVENT_REQUIRED = {
    "index": int,
    "name": str,
    "status": str,
    "wall_ns": int,
    "rollbacks": int,
    "limits_hit": bool,
    "blocks_before": int,
    "blocks_after": int,
    "instrs_before": int,
    "instrs_after": int,
    "phases": dict,
    "counters": dict,
    "remarks": dict,
}
STATUSES = {"ok", "rolled_back", "limits", "error"}


def fail(msg):
    print(f"batch_check: FAIL: {msg}", file=sys.stderr)
    return 1


def check_events(path, expect_jobs):
    with open(path, "rb") as f:
        data = f.read().decode("utf-8", errors="replace")
    lines = data.split("\n")
    unterminated = not data.endswith("\n")
    if data.endswith("\n"):
        lines = lines[:-1]
    if not lines:
        return fail(f"{path}: empty event log")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        return fail(f"{path}: header is not JSON: {e}")
    if header.get("schema") != "amevents-v1":
        return fail(f"{path}: schema is {header.get('schema')!r}, "
                    "expected 'amevents-v1'")
    if not isinstance(header.get("passes"), str) or \
       not isinstance(header.get("jobs"), int):
        return fail(f"{path}: header needs string 'passes' and int 'jobs'")

    seen = 0
    truncated = 0
    for lineno, line in enumerate(lines[1:], start=2):
        is_last = lineno == len(lines)
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            if is_last and unterminated:
                truncated += 1  # the documented crash contract
                continue
            return fail(f"{path}: line {lineno}: malformed record")
        for key, ty in EVENT_REQUIRED.items():
            if not isinstance(rec.get(key), ty):
                return fail(f"{path}: line {lineno}: field {key!r} missing "
                            f"or not {ty.__name__}")
        if rec["status"] not in STATUSES:
            return fail(f"{path}: line {lineno}: unknown status "
                        f"{rec['status']!r}")
        if rec["status"] == "error" and not rec.get("error"):
            return fail(f"{path}: line {lineno}: status 'error' without "
                        "an 'error' field")
        if rec["status"] != "error" and not isinstance(rec.get("hash"), str):
            return fail(f"{path}: line {lineno}: missing program hash")
        for section in ("phases", "counters", "remarks"):
            for k, v in rec[section].items():
                if not isinstance(v, int) or v < 0:
                    return fail(f"{path}: line {lineno}: {section}[{k!r}] "
                                "is not a non-negative integer")
        seen += 1
    if expect_jobs is not None and seen != expect_jobs:
        return fail(f"{path}: {seen} records, expected {expect_jobs}")
    if expect_jobs is None and seen + truncated != header["jobs"]:
        # A complete run must carry every declared record; one may be
        # lost to the tolerated truncation.
        return fail(f"{path}: {seen} records but header declares "
                    f"{header['jobs']}")
    note = f" ({truncated} truncated)" if truncated else ""
    print(f"batch_check: {path}: OK, {seen} events{note}")
    return 0


def check_aggregate(path, expect_jobs):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "amagg-v1":
        return fail(f"{path}: schema is {doc.get('schema')!r}, "
                    "expected 'amagg-v1'")
    jobs = doc.get("jobs")
    if not isinstance(jobs, int) or jobs < 0:
        return fail(f"{path}: 'jobs' missing or negative")
    if expect_jobs is not None and jobs != expect_jobs:
        return fail(f"{path}: jobs={jobs}, expected {expect_jobs}")
    skipped = doc.get("skipped_lines", 0)
    if not isinstance(skipped, int) or skipped < 0:
        return fail(f"{path}: 'skipped_lines' not a non-negative int")
    statuses = doc.get("status", {})
    if sum(statuses.values()) != jobs:
        return fail(f"{path}: status tally {sum(statuses.values())} != "
                    f"jobs {jobs}")
    if any("wall" in k for k in doc):
        return fail(f"{path}: wall-clock field in the deterministic "
                    "aggregate")
    for name, c in doc.get("counters", {}).items():
        for key in ("jobs", "sum", "min", "max", "mean", "p50", "p95",
                    "p99", "hist"):
            if key not in c:
                return fail(f"{path}: counter {name!r} missing {key!r}")
        if c["jobs"] > jobs:
            return fail(f"{path}: counter {name!r} reported by more jobs "
                        "than ran")
        if not (c["min"] <= c["mean"] <= c["max"]):
            return fail(f"{path}: counter {name!r}: min <= mean <= max "
                        f"violated ({c['min']}, {c['mean']}, {c['max']})")
        if not (c["p50"] <= c["p95"] <= c["p99"]):
            return fail(f"{path}: counter {name!r}: percentiles not "
                        "monotone")
        if sum(c["hist"].values()) != c["jobs"]:
            return fail(f"{path}: counter {name!r}: histogram holds "
                        f"{sum(c['hist'].values())} samples for "
                        f"{c['jobs']} jobs")
    print(f"batch_check: {path}: OK, {jobs} jobs, "
          f"{len(doc.get('counters', {}))} counters")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--events")
    ap.add_argument("--aggregate")
    ap.add_argument("--jobs", type=int, default=None,
                    help="expected job count for --events/--aggregate")
    args = ap.parse_args()
    if not (args.events or args.aggregate):
        ap.error("nothing to check: give --events or --aggregate")
    rc = 0
    try:
        if args.events:
            rc |= check_events(args.events, args.jobs)
        if args.aggregate:
            rc |= check_aggregate(args.aggregate, args.jobs)
    except (OSError, json.JSONDecodeError) as e:
        print(f"batch_check: ERROR: {e}", file=sys.stderr)
        return 2
    return rc


if __name__ == "__main__":
    sys.exit(main())
