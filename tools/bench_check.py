#!/usr/bin/env python3
"""Benchmark counter gate.

Runs ``amopt --stats=json`` for every preset
in ``bench/BENCH_baseline.json`` and compares the solver/transform
counters against the committed baseline.  Counters are machine-independent
(they count work items, never time), so any growth beyond the tolerance is
a real algorithmic regression — more solves, more evaluations, more words
touched — and fails the check.  Wall time is recorded per preset for
context but never enforced: CI machines are too noisy for raw wall-clock
gates.  The one wall-clock gate is ``tools/amtrend --gate`` over the
run history that ``ambench --history`` appends.

Usage:
  tools/bench_check.py --amopt build/tools/amopt            # counter check
  tools/bench_check.py --amopt build/tools/amopt --update   # refresh

``--update`` refreshes the preset counters *and* their wall_ns context,
validates the result against the baseline schema before writing, and
preserves unknown top-level sections of the existing baseline (only the
keys this tool owns are rewritten).

Exit codes: 0 ok, 1 regression or preset failure, 2 usage/environment.
"""

import argparse
import json
import os
import subprocess
import sys
import time

# Machine-independent counters gated by the check.  Timers are excluded on
# purpose: they are time.
GATED_COUNTERS = [
    "dfa.solves",
    "dfa.blocks_processed",
    "dfa.words_touched",
    "dfa.transfers_recomputed",
    "am.rounds",
    "am.hoist_rounds",
    "am.eliminated",
    "flush.inits_deleted",
    "flush.inits_sunk",
]

# Regression tolerance: a gated counter may grow by at most this factor
# over the baseline before the check fails.
TOLERANCE = 1.15

# preset name -> amopt arguments (before the input file)
PRESETS = {
    "uniform/running_example": ["examples/programs/running_example.am"],
    "uniform/filter_kernel": ["examples/programs/filter_kernel.am"],
    "uniform/blocked_motion": ["examples/programs/blocked_motion.am"],
    "uniform/matrix_sum": ["examples/programs/matrix_sum.am"],
    "am/irreducible": ["--pass=am", "examples/programs/irreducible.am"],
    "pde/running_example": ["--pass=pde",
                            "examples/programs/running_example.am"],
    "baselines/running_example": ["--passes=lcm,cp,lcm,pde",
                                  "examples/programs/running_example.am"],
}


def run_preset(amopt, args, repo_root):
    """Runs one preset; returns (counters dict, wall_ns)."""
    cmd = [amopt, "--stats=json"] + args
    start = time.monotonic_ns()
    proc = subprocess.run(cmd, cwd=repo_root, capture_output=True, text=True)
    wall_ns = time.monotonic_ns() - start
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    stats = json.loads(proc.stderr)
    counters = stats["registry"]["counters"]
    return {k: counters.get(k, 0) for k in GATED_COUNTERS}, wall_ns


# ---------------------------------------------------------------------------
# Schema validation (pure functions; unit-tested by bench_check_test.py)
# ---------------------------------------------------------------------------

def _is_count(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def validate_baseline(doc):
    """Validates a baseline document (counter presets plus the optional
    history pointer).  Returns a list of problems (empty = valid)."""
    errors = []
    if not isinstance(doc, dict):
        return ["baseline is not a JSON object"]
    tol = doc.get("tolerance")
    if not isinstance(tol, (int, float)) or isinstance(tol, bool) or tol < 1:
        errors.append("tolerance missing or < 1")
    presets = doc.get("presets")
    if not isinstance(presets, dict) or not presets:
        errors.append("presets missing or empty")
    else:
        for name, entry in presets.items():
            if not isinstance(entry, dict):
                errors.append(f"presets[{name}]: not an object")
                continue
            if not _is_count(entry.get("wall_ns")):
                errors.append(f"presets[{name}]: wall_ns missing")
            counters = entry.get("counters")
            if not isinstance(counters, dict):
                errors.append(f"presets[{name}]: counters missing")
            elif not all(_is_count(v) for v in counters.values()):
                errors.append(f"presets[{name}]: non-count counter value")
    if "history" in doc:
        hist = doc["history"]
        if not isinstance(hist, dict):
            errors.append("history: not an object")
        elif (not isinstance(hist.get("file"), str)
              or not hist.get("file")):
            errors.append("history: missing file pointer")
    return errors


def build_baseline_doc(old_doc, results):
    """Builds the refreshed baseline: rewrites the keys this tool owns
    (_comment, tolerance, presets) and preserves every other top-level
    section of the old baseline — in particular the ``history`` pointer
    (where ambench/ambatch --history append and tools/amtrend reads),
    which this tool never owns and must survive every --update."""
    doc = dict(old_doc) if isinstance(old_doc, dict) else {}
    doc["_comment"] = (
        "Machine-independent solver/transform counters per preset; "
        "tools/bench_check.py fails CI when a gated counter grows >15% "
        "over this baseline.  wall_ns is context only (never enforced).  "
        "Regenerate with tools/bench_check.py --amopt <amopt> --update.")
    doc["tolerance"] = TOLERANCE
    doc["presets"] = results
    return doc


# ---------------------------------------------------------------------------
# Counter gate
# ---------------------------------------------------------------------------

def load_json(path, what):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"bench_check: cannot read {what} {path}: {err}",
              file=sys.stderr)
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--amopt", help="path to the amopt binary")
    parser.add_argument("--baseline", default=None,
                        help="baseline file (default: bench/"
                             "BENCH_baseline.json in the repo)")
    parser.add_argument("--update", action="store_true",
                        help="refresh the baseline from this run")
    args = parser.parse_args()

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if args.baseline is None:
        baseline_path = os.path.join(repo_root, "bench/BENCH_baseline.json")
    else:
        baseline_path = os.path.abspath(args.baseline)

    if not args.amopt:
        print("bench_check: --amopt is required for the counter check",
              file=sys.stderr)
        return 2
    amopt = os.path.abspath(args.amopt)
    if not os.path.exists(amopt):
        print(f"bench_check: no such binary: {amopt}", file=sys.stderr)
        return 2

    results = {}
    for name, preset_args in PRESETS.items():
        try:
            counters, wall_ns = run_preset(amopt, preset_args, repo_root)
        except (RuntimeError, json.JSONDecodeError, KeyError) as err:
            print(f"bench_check: preset {name} failed: {err}",
                  file=sys.stderr)
            return 1
        results[name] = {"wall_ns": wall_ns, "counters": counters}

    if args.update:
        old_doc = {}
        if os.path.exists(baseline_path):
            old_doc = load_json(baseline_path, "baseline")
            if old_doc is None:
                return 2
        doc = build_baseline_doc(old_doc, results)
        errors = validate_baseline(doc)
        if errors:
            print("bench_check: refusing to write invalid baseline:",
                  file=sys.stderr)
            for e in errors:
                print(f"  {e}", file=sys.stderr)
            return 2
        with open(baseline_path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"bench_check: baseline written to {baseline_path} "
              f"({len(results)} presets)")
        return 0

    baseline = load_json(baseline_path, "baseline")
    if baseline is None:
        return 2
    errors = validate_baseline(baseline)
    if errors:
        print("bench_check: baseline invalid:", file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        return 2
    tolerance = baseline.get("tolerance", TOLERANCE)

    failures = []
    for name, entry in baseline["presets"].items():
        if name not in results:
            failures.append(f"{name}: preset missing from this run")
            continue
        new = results[name]["counters"]
        for counter, old_value in entry["counters"].items():
            new_value = new.get(counter, 0)
            limit = old_value * tolerance
            marker = ""
            if old_value and new_value > limit:
                failures.append(
                    f"{name}: {counter} regressed {old_value} -> {new_value} "
                    f"(limit {limit:.0f})")
                marker = "  <-- REGRESSION"
            elif old_value == 0 and new_value > 0:
                failures.append(
                    f"{name}: {counter} regressed 0 -> {new_value}")
                marker = "  <-- REGRESSION"
            elif new_value < old_value:
                marker = "  (improved)"
            if marker:
                print(f"  {name}: {counter} {old_value} -> {new_value}"
                      f"{marker}")
        wall = results[name]["wall_ns"]
        print(f"bench_check: {name}: wall {wall / 1e6:.1f} ms "
              f"(baseline {entry['wall_ns'] / 1e6:.1f} ms, not enforced)")

    for name in results:
        if name not in baseline["presets"]:
            print(f"bench_check: note: preset {name} has no baseline entry "
                  f"(run --update)")

    if failures:
        print("bench_check: FAILED:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"bench_check: OK ({len(baseline['presets'])} presets within "
          f"{(tolerance - 1) * 100:.0f}% of baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
