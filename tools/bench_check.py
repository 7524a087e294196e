#!/usr/bin/env python3
"""Benchmark gates: counter regressions and wall-clock trends.

Counter gate (the default): runs ``amopt --stats=json`` for every preset
in ``bench/BENCH_baseline.json`` and compares the solver/transform
counters against the committed baseline.  Counters are machine-independent
(they count work items, never time), so any growth beyond the tolerance is
a real algorithmic regression — more solves, more evaluations, more words
touched — and fails the check.  Wall time is recorded per preset for
context but never enforced there: CI machines are too noisy for raw
wall-clock gates.

Trend gate (``--trend RUN.json``): compares an ``ambench`` run (see
tools/ambench.cpp, schema ambench-v1) against the ``ambench`` section of
the baseline.  Both documents carry a ``calib/spin`` measurement — a fixed
integer spin loop that times the *machine* — so the gate compares
calibration-normalized ratios, which cancels most of the CPU-speed
difference between the recording and checking hosts.  A preset fails only
when its normalized time exceeds ``--factor`` (default 2.0) times the
baseline AND the absolute excess is above a small noise floor; the gate is
a tripwire for order-of-magnitude rot, not a microbenchmark.

Usage:
  tools/bench_check.py --amopt build/tools/amopt             # counter check
  tools/bench_check.py --amopt build/tools/amopt --update \\
      [--run BENCH_run.json | --ambench build/tools/ambench] # refresh
  tools/bench_check.py --trend BENCH_run.json [--factor 2.0] # trend gate
  tools/bench_check.py --validate-run BENCH_run.json         # schema only

``--update`` refreshes the preset counters *and* their wall_ns context,
validates the result against the baseline schema before writing, and
preserves unknown top-level sections of the existing baseline (only the
keys this tool owns are rewritten).  With ``--run`` it also refreshes the
``ambench`` section from an existing run file; with ``--ambench`` it
invokes the given binary (``--quick``) to produce one.

Exit codes: 0 ok, 1 regression or preset failure, 2 usage/environment.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
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

# Trend gate: a calibration-normalized preset may slow down by at most
# this factor, and only slowdowns whose absolute excess tops the noise
# floor count (sub-millisecond presets jitter far more than 2x).
TREND_FACTOR = 2.0
TREND_NOISE_FLOOR_NS = 5_000_000  # 5 ms

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


def validate_run(doc):
    """Validates an ambench-v1 run document.  Returns a list of problems
    (empty = valid)."""
    errors = []
    if not isinstance(doc, dict):
        return ["run document is not a JSON object"]
    if doc.get("schema") != "ambench-v1":
        errors.append(f"schema is {doc.get('schema')!r}, want 'ambench-v1'")
    if not isinstance(doc.get("fingerprint"), dict):
        errors.append("missing fingerprint object")
    calib = doc.get("calibration")
    if not isinstance(calib, dict) or not _is_count(calib.get("spin_ns")):
        errors.append("calibration.spin_ns missing or not a count")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        errors.append("results missing or empty")
        return errors
    for i, entry in enumerate(results):
        where = f"results[{i}]"
        if not isinstance(entry, dict):
            errors.append(f"{where}: not an object")
            continue
        if not isinstance(entry.get("name"), str) or not entry.get("name"):
            errors.append(f"{where}: missing name")
        for key in ("wall_ns", "mad_ns", "kept"):
            if not _is_count(entry.get(key)):
                errors.append(f"{where}: {key} missing or not a count")
        samples = entry.get("samples")
        if (not isinstance(samples, list) or not samples
                or not all(_is_count(s) for s in samples)):
            errors.append(f"{where}: samples missing or malformed")
    return errors


def validate_baseline(doc):
    """Validates a baseline document (counter presets plus the optional
    ambench section).  Returns a list of problems (empty = valid)."""
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
    if "ambench" in doc:
        errors += [f"ambench: {e}" for e in validate_run(doc["ambench"])]
    if "history" in doc:
        hist = doc["history"]
        if not isinstance(hist, dict):
            errors.append("history: not an object")
        elif (not isinstance(hist.get("file"), str)
              or not hist.get("file")):
            errors.append("history: missing file pointer")
    return errors


def build_baseline_doc(old_doc, results, ambench_run=None):
    """Builds the refreshed baseline: rewrites the keys this tool owns
    (_comment, tolerance, presets, and ambench when a run is supplied)
    and preserves every other top-level section of the old baseline —
    in particular the ``history`` pointer (where ambench/ambatch
    --history append and tools/amtrend reads), which this tool never
    owns and must survive every --update."""
    doc = dict(old_doc) if isinstance(old_doc, dict) else {}
    doc["_comment"] = (
        "Machine-independent solver/transform counters per preset; "
        "tools/bench_check.py fails CI when a gated counter grows >15% "
        "over this baseline.  wall_ns is context only (never enforced "
        "directly); the 'ambench' section feeds the calibration-"
        "normalized --trend gate.  Regenerate with tools/bench_check.py "
        "--amopt <amopt> --update [--ambench <ambench>].")
    doc["tolerance"] = TOLERANCE
    doc["presets"] = results
    if ambench_run is not None:
        doc["ambench"] = ambench_run
    return doc


# ---------------------------------------------------------------------------
# Trend gate
# ---------------------------------------------------------------------------

def trend_failures(baseline_run, new_run, factor=TREND_FACTOR,
                   noise_floor_ns=TREND_NOISE_FLOOR_NS):
    """Compares two ambench runs.  Returns (failures, notes): failures is
    a list of regression messages, notes a list of informational lines
    (presets missing on one side, improvements)."""
    failures, notes = [], []
    base_calib = baseline_run["calibration"]["spin_ns"]
    new_calib = new_run["calibration"]["spin_ns"]
    if base_calib == 0 or new_calib == 0:
        return ["calibration spin_ns is zero; cannot normalize"], notes
    base_by_name = {r["name"]: r for r in baseline_run["results"]}
    new_by_name = {r["name"]: r for r in new_run["results"]}
    for name, base in base_by_name.items():
        if name == "calib/spin":
            continue
        new = new_by_name.get(name)
        if new is None:
            notes.append(f"{name}: missing from this run (not compared)")
            continue
        # Normalized time: preset wall clock in units of the machine's own
        # spin time.  The ratio of normalized times is machine-neutral.
        base_norm = base["wall_ns"] / base_calib
        new_norm = new["wall_ns"] / new_calib
        if base_norm == 0:
            notes.append(f"{name}: zero baseline (not compared)")
            continue
        ratio = new_norm / base_norm
        # The absolute excess is judged on the *checking* machine's clock,
        # rescaled from the baseline via the calibration ratio.
        scaled_base_ns = base["wall_ns"] * (new_calib / base_calib)
        excess_ns = new["wall_ns"] - scaled_base_ns
        if ratio > factor and excess_ns > noise_floor_ns:
            failures.append(
                f"{name}: {ratio:.2f}x slower than baseline "
                f"(normalized; limit {factor:.2f}x, "
                f"excess {excess_ns / 1e6:.1f} ms)")
        elif ratio < 1.0:
            notes.append(f"{name}: improved ({ratio:.2f}x)")
        else:
            notes.append(f"{name}: {ratio:.2f}x (within {factor:.2f}x)")
    for name in new_by_name:
        if name != "calib/spin" and name not in base_by_name:
            notes.append(f"{name}: no baseline entry (run --update)")
    return failures, notes


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def load_json(path, what):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"bench_check: cannot read {what} {path}: {err}",
              file=sys.stderr)
        return None


def mode_validate_run(path):
    doc = load_json(path, "run")
    if doc is None:
        return 2
    errors = validate_run(doc)
    if errors:
        print("bench_check: run document invalid:", file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        return 1
    print(f"bench_check: {path} is a valid ambench-v1 run "
          f"({len(doc['results'])} results)")
    return 0


def mode_trend(run_path, baseline_path, factor):
    run = load_json(run_path, "run")
    baseline = load_json(baseline_path, "baseline")
    if run is None or baseline is None:
        return 2
    errors = validate_run(run)
    if errors:
        print("bench_check: run document invalid:", file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        return 2
    base_run = baseline.get("ambench")
    if base_run is None:
        print("bench_check: baseline has no ambench section; regenerate "
              "with --update --ambench <ambench> (trend gate skipped)",
              file=sys.stderr)
        return 2
    errors = validate_run(base_run)
    if errors:
        print("bench_check: baseline ambench section invalid:",
              file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        return 2
    failures, notes = trend_failures(base_run, run, factor)
    for note in notes:
        print(f"bench_check: trend: {note}")
    if failures:
        print("bench_check: TREND FAILED:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"bench_check: trend OK (factor {factor:.2f}x, "
          f"noise floor {TREND_NOISE_FLOOR_NS / 1e6:.0f} ms)")
    return 0


def collect_ambench_run(args, repo_root):
    """Obtains the ambench run for --update: --run file wins, else the
    --ambench binary is invoked, else None (section left untouched)."""
    if args.run:
        return load_json(args.run, "run")
    if not args.ambench:
        return False  # sentinel: nothing requested
    ambench = os.path.abspath(args.ambench)
    if not os.path.exists(ambench):
        print(f"bench_check: no such binary: {ambench}", file=sys.stderr)
        return None
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        tmp_path = tmp.name
    try:
        proc = subprocess.run([ambench, "--quick", f"--out={tmp_path}"],
                              cwd=repo_root, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"bench_check: ambench failed:\n{proc.stderr}",
                  file=sys.stderr)
            return None
        return load_json(tmp_path, "run")
    finally:
        os.unlink(tmp_path)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--amopt", help="path to the amopt binary")
    parser.add_argument("--baseline", default=None,
                        help="baseline file (default: bench/"
                             "BENCH_baseline.json in the repo)")
    parser.add_argument("--update", action="store_true",
                        help="refresh the baseline from this run")
    parser.add_argument("--trend", metavar="RUN.json",
                        help="compare an ambench run against the "
                             "baseline's ambench section")
    parser.add_argument("--factor", type=float, default=TREND_FACTOR,
                        help="trend slowdown limit (default: %(default)s)")
    parser.add_argument("--validate-run", metavar="RUN.json",
                        help="validate an ambench run document and exit")
    parser.add_argument("--run", metavar="RUN.json",
                        help="with --update: take the ambench section "
                             "from this run file")
    parser.add_argument("--ambench",
                        help="with --update: invoke this ambench binary "
                             "to refresh the ambench section")
    args = parser.parse_args()

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if args.baseline is None:
        baseline_path = os.path.join(repo_root, "bench/BENCH_baseline.json")
    else:
        baseline_path = os.path.abspath(args.baseline)

    if args.validate_run:
        return mode_validate_run(args.validate_run)
    if args.trend:
        return mode_trend(args.trend, baseline_path, args.factor)

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
        ambench_run = collect_ambench_run(args, repo_root)
        if ambench_run is None:
            return 2
        doc = build_baseline_doc(
            old_doc, results,
            ambench_run if ambench_run is not False else None)
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
              f"({len(results)} presets"
              + (", ambench refreshed" if ambench_run not in (None, False)
                 else "") + ")")
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
