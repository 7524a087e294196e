#!/usr/bin/env python3
"""One-span check over one amopt run's --stats=json, --trace and --profile.

Every instrumented scope is one AM_SPAN feeding all three sinks, so each
node name N of the profile tree must be a complete ("X") trace event and
have the timer N_ns in the stats registry.

Usage: tools/span_check.py stats.json trace.json profile.json
Exit codes: 0 ok, 1 a sink lacks a span, 2 usage.
"""

import json
import sys


def names(node):
    yield node["name"]
    for child in node.get("children", []):
        yield from names(child)


def main(argv):
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    stats, trace, profile = (json.load(open(p)) for p in argv[1:])
    nodes = set(names(profile["tree"])) - {"root"}
    events = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
    timers = set(stats["registry"]["timers"])
    problems = [f"{n}: no trace event" if n not in events else f"{n}: no timer"
                for n in sorted(nodes)
                if n not in events or n + "_ns" not in timers]
    if not nodes:
        problems.append("empty profile tree")
    for line in problems:
        print("span_check:", line, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
