#!/usr/bin/env python3
"""Compare benchmark JSON against a baseline.

Two modes, for the two kinds of numbers a bench run produces (see
docs/benchmarks.md, "Wall-clock vs modeled cycles"):

Modeled mode (default). Every figure/table binary reports *simulated* time
(cycle-exact manual time), so runs are deterministic across machines and
compilers: any drift beyond the threshold is a real behavioural regression,
not noise. Wall-clock-only files (bench_simcore) are excluded — committing
one into the baseline must never make the modeled gate machine-dependent.

Wall-clock mode (--wallclock). Compares only the wall-clock files
(BENCH_simcore.json), whose real_time is HOST time. The default tolerance is
generous (1.5x) to absorb machine and CI noise; use it to check that an
engine change did not regress events/sec / messages/sec.

Repetitions (--benchmark_repetitions=N, or BENCH_REPETITIONS in
bench/run_all.sh) write N rows per benchmark. Wall-clock mode compares the
fastest repetition's real_time; modeled mode requires every repetition of a
benchmark to report the same numbers, and fails if they disagree.

Usage:
    tools/bench_compare.py BASELINE_DIR NEW_DIR [--threshold 0.25]
    tools/bench_compare.py OLD_DIR NEW_DIR --wallclock [--threshold 0.5]
    tools/bench_compare.py OLD_DIR NEW_DIR --allow-rebaselined BENCH_foo.json

Exits non-zero if any compared benchmark regressed by more than THRESHOLD
(relative time increase), or if a compared baseline file or benchmark
disappeared. New benchmarks (not in the baseline) are reported but do not
fail the gate — commit a refreshed baseline to cover them.

An *intentional* rebaseline (a timing-model change that legitimately moves
a file's numbers) must be declared explicitly: `--allow-rebaselined FILE`
exempts that file from the regression and counter-identity checks but still
requires it to exist with the same benchmark set, and prints what moved.
An allow-listed file that did not actually change is an error — a stale
allow-list must not linger and silently waive a future regression.
"""

import argparse
import fnmatch
import json
import pathlib
import sys

# Files whose real_time is host wall-clock, not simulated time. PATTERNS,
# not exact names: any new wall-clock-only output (a threaded simcore file,
# a future BENCH_simcore_scaling.json, ...) must never leak into the
# modeled gate, where host timing would make the gate machine-dependent.
WALLCLOCK_PATTERNS = ("BENCH_simcore*.json",)


def is_wallclock(path):
    return any(fnmatch.fnmatch(path.name, pat) for pat in WALLCLOCK_PATTERNS)


# Benchmark-entry fields that are host-dependent or structural, not modeled
# outputs. Everything else numeric (real_time plus user counters like
# cap_ops_per_s, parallel_efficiency, requests_per_s) is a modeled metric.
NON_MODELED_FIELDS = {"cpu_time", "iterations", "repetitions", "threads",
                      "repetition_index", "family_index",
                      "per_family_instance_index"}

# Relative tolerance for counter identity in modeled mode: the simulation is
# cycle-deterministic, but derived doubles may differ in the last ulp across
# compilers (FMA contraction), so "identical" means within 1e-9.
COUNTER_RTOL = 1e-9


def load_benchmarks(path):
    """Returns {benchmark name: [{field: value}, ...]}, one dict per
    repetition, for one google-benchmark JSON.

    Every numeric, modeled field is kept: real_time and the user counters.
    """
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    out = {}
    for bench in data.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev of repetitions).
        if bench.get("run_type") == "aggregate":
            continue
        out.setdefault(bench["name"], []).append({
            key: float(value) for key, value in bench.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
            and key not in NON_MODELED_FIELDS
        })
    return out


def one_row_per_benchmark(path, runs, wallclock, failures):
    """Collapses the repetitions of each benchmark into one row.

    Wall-clock: the fastest repetition's real_time (host noise only ever
    adds time). Modeled: the repetitions must agree, since simulated time
    is deterministic; any disagreement is reported as a failure.
    """
    out = {}
    for name, reps in runs.items():
        row = dict(reps[0])
        if wallclock:
            row["real_time"] = min(rep.get("real_time", 0.0) for rep in reps)
        else:
            for index, rep in enumerate(reps[1:], start=1):
                differ = sorted(
                    field for field in set(row) | set(rep)
                    if field not in row or field not in rep
                    or abs(rep[field] - row[field]) > COUNTER_RTOL * max(1.0, abs(row[field])))
                if differ:
                    failures.append(
                        f"{path}: '{name}' repetition {index} disagrees with repetition 0 "
                        f"in {', '.join(differ)}")
        out[name] = row
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline_dir", type=pathlib.Path)
    parser.add_argument("new_dir", type=pathlib.Path)
    parser.add_argument("--threshold", type=float, default=None,
                        help="maximum tolerated relative slowdown "
                             "(default 0.25 modeled, 0.5 wall-clock)")
    parser.add_argument("--wallclock", action="store_true",
                        help="compare the wall-clock files (bench_simcore) "
                             "instead of the modeled figure/table files")
    parser.add_argument("--allow-rebaselined", action="append", default=[],
                        metavar="FILE", dest="allow_rebaselined",
                        help="baseline file (e.g. BENCH_failover.json) whose "
                             "numbers are intentionally rebaselined this run; "
                             "repeatable. Exempt from drift checks, but must "
                             "still exist, keep its benchmark set, and "
                             "actually differ")
    args = parser.parse_args()
    threshold = args.threshold
    if threshold is None:
        threshold = 0.5 if args.wallclock else 0.25

    def in_scope(path):
        return is_wallclock(path) == args.wallclock

    baseline_files = [p for p in sorted(args.baseline_dir.glob("BENCH_*.json"))
                      if in_scope(p)]
    skipped = [p.name for p in sorted(args.baseline_dir.glob("BENCH_*.json"))
               if not in_scope(p)]
    if skipped:
        kind = "modeled" if args.wallclock else "wall-clock"
        print(f"ignoring {len(skipped)} {kind} file(s): {', '.join(skipped)}")
    if not baseline_files:
        print(f"error: no comparable BENCH_*.json files in {args.baseline_dir}",
              file=sys.stderr)
        return 2

    allowed = set(args.allow_rebaselined)
    unknown_allowed = allowed - {p.name for p in baseline_files}
    failures = [f"--allow-rebaselined {name}: no such baseline file"
                for name in sorted(unknown_allowed)]
    compared = 0
    for base_path in baseline_files:
        rebaselined = base_path.name in allowed
        rebaseline_moved = False
        new_path = args.new_dir / base_path.name
        if not new_path.exists():
            failures.append(f"{base_path.name}: missing from {args.new_dir}")
            continue
        base = one_row_per_benchmark(base_path, load_benchmarks(base_path), args.wallclock,
                                     failures)
        new = one_row_per_benchmark(new_path, load_benchmarks(new_path), args.wallclock,
                                    failures)
        for name, base_fields in sorted(base.items()):
            if name not in new:
                # A rebaseline may move numbers, never drop coverage.
                failures.append(f"{base_path.name}: benchmark '{name}' disappeared")
                continue
            compared += 1
            new_fields = new[name]
            base_time = base_fields.get("real_time", 0.0)
            new_time = new_fields.get("real_time", 0.0)
            if base_time > 0:
                ratio = new_time / base_time
                marker = ""
                if ratio > 1.0 + threshold and not rebaselined:
                    marker = "  <-- REGRESSION"
                    failures.append(
                        f"{base_path.name}: '{name}' {base_time:.1f} -> {new_time:.1f} ns "
                        f"({(ratio - 1.0) * 100.0:+.1f}%)")
                if abs(ratio - 1.0) > COUNTER_RTOL:
                    rebaseline_moved = True
                if marker or abs(ratio - 1.0) > 0.01:
                    note = marker if marker else ("  (rebaselined)" if rebaselined else "")
                    print(f"{base_path.name}: {name}: {base_time:.1f} -> {new_time:.1f} ns "
                          f"({(ratio - 1.0) * 100.0:+.1f}%){note}")
            if args.wallclock:
                continue
            # Modeled counters (efficiency percentages, ops/s, ...) must be
            # *identical*, not merely within the time threshold: they are
            # deterministic outputs of the cycle model.
            for field in sorted(set(base_fields) - {"real_time"}):
                if field not in new_fields:
                    failures.append(
                        f"{base_path.name}: '{name}' counter '{field}' disappeared")
                    continue
                b, n = base_fields[field], new_fields[field]
                if abs(n - b) > COUNTER_RTOL * max(1.0, abs(b)):
                    rebaseline_moved = True
                    if not rebaselined:
                        failures.append(
                            f"{base_path.name}: '{name}' counter '{field}' changed: "
                            f"{b!r} -> {n!r}  <-- MODELED DRIFT")
        for name in sorted(set(new) - set(base)):
            rebaseline_moved = True
            print(f"{base_path.name}: new benchmark '{name}' (not gated; refresh the baseline)")
        if rebaselined and not rebaseline_moved:
            failures.append(
                f"--allow-rebaselined {base_path.name}: file is identical to the "
                f"baseline — drop the stale allow-list entry")

    kind = "wall-clock" if args.wallclock else "simulated-time"
    print(f"\ncompared {compared} benchmarks against {len(baseline_files)} baseline files")
    if failures:
        print(f"\n{len(failures)} failure(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"no {kind} regressions beyond {threshold * 100:.0f}% — gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
