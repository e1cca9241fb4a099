#!/usr/bin/env python3
"""Repo benchmark: build the program from source, run one workload, check it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

run from the root of a checkout. BENCHMARK.json lists the workloads
pair-campaign-music, platoon-fft-n16 and serve-session-replay. The unlisted
serve-open-loop also runs (see the README); it needs --serve-rate,
--serve-ladder and --serve-p99-limit-us, which the perfbench binary checks,
and its metric set is not checked against BENCHMARK.json.

The program's module libraries and the perfbench binary are built with CMake
into .bench_build/perfbench (configure and build output goes to stderr).
Human-readable results go to stdout; the last stdout line is one JSON object
with exactly the keys correct, attempted, failed and metrics. With --trace 0
the metrics are BENCHMARK.json's end_to_end metrics, with --trace 1 its
per_layer metrics. Each run also writes a full result record, stamped with
its provenance, under .bench_build/results (or --results DIR); traced runs
write their spans next to it. The exit code is 0 only when every output
check passed.
"""

import argparse
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import time

ROOT = pathlib.Path.cwd()
BENCH_DIR = pathlib.Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RESULTS_DIR = ROOT / ".bench_build" / "results"
RUN_TIMEOUT_S = 170

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def valid_metric_name(name):
    """Metric names: 1..64 of [A-Za-z0-9_.-], starting with a letter or digit."""
    return bool(NAME_RE.match(name))


def valid_unit(unit):
    return bool(UNIT_RE.match(unit))


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", default=None,
                   help="directory for result records (inside the checkout)")
    p.add_argument("--serve-rate")
    p.add_argument("--serve-ladder")
    p.add_argument("--serve-p99-limit-us")
    return p.parse_args(argv)


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    with open(path) as f:
        return json.load(f)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: no program sources (src/) in " + str(ROOT))
    if shutil.which("cmake") is None:
        raise SystemExit("perfbench: cmake not found")
    jobs = str(os.cpu_count() or 1)
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return BUILD_DIR / "perfbench"


def git_provenance():
    def git(*cmd):
        return subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True,
                              text=True, timeout=20)
    try:
        sha = git("rev-parse", "HEAD")
        if sha.returncode != 0:
            return {"git_sha": "none (not a git checkout)", "git_dirty": None}
        dirty = git("status", "--porcelain", "--untracked-files=no")
        return {"git_sha": sha.stdout.strip(),
                "git_dirty": bool(dirty.stdout.strip())}
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": "none (git unavailable)", "git_dirty": None}


def expected_metrics(bench, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def check_metrics(result, expected):
    """Problems with the metric set the binary reported, as strings."""
    problems = []
    got = result.get("metrics", {})
    for name, metric in got.items():
        if not valid_metric_name(name):
            problems.append(f"invalid metric name {name!r}")
        if not valid_unit(metric.get("unit", "")):
            problems.append(f"invalid unit for {name}")
        if not isinstance(metric.get("value"), (int, float)):
            problems.append(f"{name} has no numeric value")
    missing = sorted(set(expected) - set(got))
    extra = sorted(set(got) - set(expected))
    if missing:
        problems.append("missing metrics: " + ", ".join(missing))
    if extra:
        problems.append("metrics not in BENCHMARK.json: " + ", ".join(extra))
    for name, unit in expected.items():
        if name in got and got[name].get("unit") != unit:
            problems.append(f"{name} unit {got[name].get('unit')} != {unit}")
    return problems


def main(argv):
    args = parse_args(argv)
    bench = load_benchmark()
    binary = build()

    results_dir = pathlib.Path(args.results) if args.results else RESULTS_DIR
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(results_dir / (stem + ".spans.csv"))]
    if args.workload == "serve-open-loop":
        cmd += ["--serve-rate", str(args.serve_rate),
                "--serve-ladder", str(args.serve_ladder),
                "--serve-p99-limit-us", str(args.serve_p99_limit_us)]

    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {args.workload} exceeded "
                         f"{RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"perfbench: {args.workload} exited with "
                         f"{proc.returncode}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    listed = {w["name"] for w in bench["workloads"]}
    problems = []
    if args.workload in listed:
        problems = check_metrics(result, expected_metrics(bench, args.trace))
    for problem in problems:
        print("  CHECK FAILED: " + problem)
    correct = bool(result["correct"]) and not problems

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "attempted_base": result["attempted_base"],
        "failures": result["failures"] + problems,
        "metrics": result["metrics"],
        "provenance": {
            "nproc": os.cpu_count(),
            "compiler": result["facts"].get("compiler"),
            "flags": result["facts"].get("flags"),
            "build_type": result["facts"].get("build_type"),
            "seed": args.seed,
            **git_provenance(),
        },
        "facts": result["facts"],
    }
    with open(results_dir / (stem + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    attempted = result["attempted"]
    print(f"  failed_ratio = {result['failed'] / attempted if attempted else 0} "
          f"(base: {attempted} {result['attempted_base']})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
