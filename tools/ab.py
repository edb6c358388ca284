#!/usr/bin/env python3
"""Same-machine A/B of two prebuilt `faro-benchmark` executables.

Runs PAIRS alternating parent/change pairs (parent first in even pairs,
change first in odd ones) on each workload named, at one seed,
optionally pinned to one CPU with `taskset`, for BENCHMARK.json's
`run_seconds` each. `--workload` may be given more than once, or as
`all` for every workload of BENCHMARK.json; the workloads run one after
another, each with its own pairs and its own table. For each workload it
prints for every end-to-end metric of BENCHMARK.json the median and
quartiles of each side, the ratio of the medians (change / parent), the
median and quartiles of the per-pair ratios change_i / parent_i (the two
runs of a pair are neighbours in time, so host drift that both share
cancels in their ratio but widens each side's quartiles), the pairs the
change won in the metric's direction, whether every change run
reads better than every parent run (`sep`: the runs separate, which
settles a metric whose run-to-run spread is wider than its bound),
whether the change's median is inside the metric's bound, and `wide`
when the change's interquartile distance exceeds the bound times the
parent's median and the runs do not separate: the width a regression
check compares, so such a metric can be refused on noise alone. It also
prints every run's digest line.

Beside the table it prints, ungated, each side's minor page faults and
system seconds per run (`getrusage(RUSAGE_CHILDREN)` deltas around each
run, also on every run's line). Both repeat closely from run to run, so
a side that moved them without moving its work moved its heap layout.

Exits 1 if the two executables disagree on a digest, if any run reports
`"correct": false` or exits non-zero, and 0 otherwise. If any run of a
workload failed, no metric table is printed for it: the pairs would not
be like for like. A metric outside
its bound is printed, not failed: what counts as a regression is the
reader's call. BENCHMARK.json is read, never written.

Usage (both executables built with `cargo build --release --offline
--manifest-path benchmark/Cargo.toml` into separate target directories):

    python3 tools/ab.py --parent A/faro-benchmark --change B/faro-benchmark \\
        --workload paper10-sim [--workload hetero20-classed | --workload all] \\
        [--seed 1] [--pairs 10] [--cpu 1]

Python 3 standard library only.
"""

import argparse
import json
import pathlib
import re
import resource
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DIGEST = re.compile(r"^(\S+): rounds_attempted (\d+) rounds_failed (\d+) digest (\S+)$")


def run(exe, workload, args, seconds):
    """One benchmark run: (digest line fields, JSON report, exit code,
    (minor page faults, system seconds))."""
    cmd = [str(exe), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", "0"]
    if args.cpu is not None:
        cmd = ["taskset", "-c", str(args.cpu)] + cmd
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    usage = (after.ru_minflt - before.ru_minflt, after.ru_stime - before.ru_stime)
    digest, report = None, None
    for line in proc.stdout.splitlines():
        m = DIGEST.match(line.strip())
        if m:
            digest = m.groups()
        elif line.startswith("{"):
            report = json.loads(line)
    return digest, report, proc.returncode, usage


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def spread(values, fmt=".4f"):
    """`median [q1, q3]` of `values`."""
    q1, q2, q3 = quartiles(values)
    return f"{q2:{fmt}} [{q1:{fmt}}, {q3:{fmt}}]"


def compare(workload, args, spec):
    """Runs the pairs of one workload and prints its table; returns
    whether every run succeeded and the digests agreed."""
    metrics = spec["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    digests = {side: set() for side in sides}
    usages = {side: [] for side in sides}
    ok = True

    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            digest, report, code, usage = run(sides[side], workload, args, spec["run_seconds"])
            usages[side].append(usage)
            label = " ".join(digest) if digest else "no digest line"
            print(f"pair {i + 1:>2} {side:<6} {label}"
                  f"  minflt {usage[0]} stime {usage[1]:.2f}", flush=True)
            if code != 0 or report is None or not report.get("correct", False):
                print(f"  run failed: exit {code}, report {report}", flush=True)
                ok = False
                continue
            digests[side].add(digest)
            for name, entry in report["metrics"].items():
                if name in values[side]:
                    values[side][name].append(entry["value"])

    if len(digests["parent"] | digests["change"]) > 1:
        print("DIGEST MISMATCH:", sorted(digests["parent"] | digests["change"]))
        ok = False
    if not ok:
        print(f"\n{workload}: no metric table: a run failed or the digests differ\n")
        return False

    print(f"\n{workload} seed {args.seed}, {args.pairs} pairs of"
          f" {spec['run_seconds']} s"
          + (f", pinned to CPU {args.cpu}" if args.cpu is not None else ""))
    print(f"{'metric':<18} {'parent median [q1, q3]':>36} {'change median [q1, q3]':>36}"
          f" {'ratio':>6} {'per-pair ratio [q1, q3]':>25} {'won':>5} {'sep':>3} {'wide':>4}  bound")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        base, new = values["parent"][name], values["change"][name]
        if len(base) != args.pairs or len(new) != args.pairs:
            continue
        median = statistics.median(base)
        ratio = statistics.median(new) / median if median else float("nan")
        pairs = [n / b for b, n in zip(base, new) if b]
        per_pair = spread(pairs, ".3f") if pairs else "-"
        won = sum((n < b) if lower else (n > b) for b, n in zip(base, new))
        sep = max(new) < min(base) if lower else min(new) > max(base)
        q1, _, q3 = quartiles(new)
        wide = q3 - q1 > m["bound"] * median and not sep
        worse = (ratio - 1.0) if lower else (1.0 - ratio)
        verdict = "ok" if worse <= m["bound"] else f"OUTSIDE {m['bound']:.0%}"
        print(f"{name:<18} {spread(base):>36} {spread(new):>36} {ratio:>6.3f}"
              f" {per_pair:>25} {won:>2}/{len(base):<2} {'yes' if sep else 'no':>3}"
              f" {'wide' if wide else '-':>4}  {verdict}")
    print("\nper run, not gated (getrusage of the children)")
    for label, at, fmt in [("minor_faults", 0, ".0f"), ("system_s", 1, ".3f")]:
        base = [u[at] for u in usages["parent"]]
        new = [u[at] for u in usages["change"]]
        median = statistics.median(base)
        ratio = statistics.median(new) / median if median else float("nan")
        print(f"{label:<18} {spread(base, fmt):>36} {spread(new, fmt):>36} {ratio:>6.3f}")
    print()
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=pathlib.Path)
    parser.add_argument("--change", required=True, type=pathlib.Path)
    parser.add_argument("--workload", required=True, action="append",
                        help="a BENCHMARK.json workload, or `all`; may repeat")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--cpu", type=int, help="pin every run to this CPU")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    workloads = []
    for name in args.workload:
        for workload in known if name == "all" else [name]:
            if workload not in workloads:
                workloads.append(workload)
    unknown = [w for w in workloads if w not in known]
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; BENCHMARK.json has {', '.join(known)}")
    results = [compare(workload, args, spec) for workload in workloads]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
