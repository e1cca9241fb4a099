#!/usr/bin/env python3
"""Compare two sets of benchmark results (the bench trajectory tool).

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result records perfbench/run.py writes (one JSON
file per run, untraced runs only are compared). For every workload and
end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles and a verdict:

  improved    the change wins at least 9 of every 10 pairs (ties count for
              neither; at least 10 pairs), and the medians differ in the
              better direction by more than the parent's interquartile
              range; or every change run beats every parent run
  regressed   the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the run-to-run spread (interquartile range over median) of
              either side exceeds the bound, so neither of the above can be
              told apart from noise
  unchanged   otherwise
  more-failures
              the change's runs fail more operations (failed / attempted,
              summed over its runs) or more output checks than the
              parent's; this replaces any other verdict of the workload's
              rows, since a gain does not count when more operations fail

Runs made with the same seed are paired: the i-th run of a seed on one side
with the i-th run of that seed on the other, in the order they were made.
Runs whose seed the other side lacks count toward the medians only. The exit
code is 1 when any pairing regressed or failed more, else 0.
"""

import argparse
import json
import pathlib
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory):
    """{workload: [record, ...]} of untraced runs, ordered by seed and, for
    one seed, by the start time in the file name."""
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        with open(path) as f:
            record = json.load(f)
        if record.get("trace") != 0:
            continue
        runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["seed"])  # stable: keeps time order
    return runs


def values(records, name):
    return [r["metrics"][name]["value"] for r in records
            if name in r["metrics"]]


def pair_by_seed(parent, change, name):
    """(parent, change) value pairs of runs made with the same seed."""
    by_seed = {}
    for side, records in enumerate((parent, change)):
        for r in records:
            if name in r["metrics"]:
                by_seed.setdefault(r["seed"], ([], []))[side].append(
                    r["metrics"][name]["value"])
    pairs = []
    for seed in sorted(by_seed):
        p, c = by_seed[seed]
        pairs += zip(p, c)
    return pairs


def failed_share(records):
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / attempted if attempted else 0.0


def more_failures(parent, change):
    """True when the change fails more operations or output checks."""
    checks_failed = lambda records: sum(1 for r in records if not r["correct"])
    return (failed_share(change) > failed_share(parent)
            or checks_failed(change) > checks_failed(parent))


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(parent, change, better, bound, pairs=None):
    """Verdict for one workload x metric; `better` is 'higher' or 'lower'.
    `pairs` are (parent, change) values of paired runs, by default the two
    lists zipped in order."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    gain = sign * (c_med - p_med)  # > 0: the change is better

    pairs = list(zip(parent, change)) if pairs is None else pairs
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    dominates = min(sign * c for c in change) > max(sign * p for p in parent)

    if dominates and len(pairs) >= MIN_PAIRS:
        return "improved"
    if spread(parent) > bound or spread(change) > bound:
        return "unresolved"
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and gain > p_q3 - p_q1):
        return "improved"
    if -gain > bound * abs(p_med):
        return "regressed"
    return "unchanged"


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args(argv)
    with open(args.benchmark) as f:
        bench = json.load(f)
    parent = load_runs(args.parent)
    change = load_runs(args.change)

    flagged = False
    header = (f"{'workload':<22} {'metric':<18} {'parent q1/med/q3':>32} "
              f"{'change q1/med/q3':>32}  verdict")
    print(header)
    fmt = lambda vals: "/".join(f"{x:.4g}" for x in quartiles(vals))
    for workload in [w["name"] for w in bench["workloads"]]:
        p_runs = parent.get(workload, [])
        c_runs = change.get(workload, [])
        failing = bool(p_runs and c_runs) and more_failures(p_runs, c_runs)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p = values(p_runs, name)
            c = values(c_runs, name)
            if not p or not c:
                print(f"{workload:<22} {name:<18} {'(no runs)':>32}")
                continue
            v = "more-failures" if failing else verdict(
                p, c, metric["better"], metric["bound"],
                pair_by_seed(p_runs, c_runs, name))
            flagged = flagged or v in ("regressed", "more-failures")
            print(f"{workload:<22} {name:<18} {fmt(p):>26} n={len(p):<3} "
                  f"{fmt(c):>26} n={len(c):<3}  {v}")
        if p_runs and c_runs:
            print(f"{workload:<22} {'failed_ratio':<18} "
                  f"{failed_share(p_runs):>26.3g} {'':<5} "
                  f"{failed_share(c_runs):>26.3g}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
