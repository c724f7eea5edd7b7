#!/usr/bin/env python3
"""One run of the dbsp end-to-end benchmark.

    python3 perfbench/run.py --workload fanout|match_heavy|churn_pruned \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call builds the engine library,
the shipped dbspd daemon and the load generator (perfbench/CMakeLists.txt,
Release) under $CARGO_TARGET_DIR or .bench_build; later calls reuse that
build. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json without --trace, the per-layer metrics with --trace 1.
Spans of a traced run are kept under <build>/spans/. See
perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORKLOADS = ("fanout", "match_heavy", "churn_pruned")
# The binary must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def clean_env():
    """The caller's environment without any DBSP_* knob: every layer runs
    with its shipped defaults."""
    return {k: v for k, v in os.environ.items() if not k.startswith("DBSP_")}


def build_root():
    root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return root if root.is_absolute() else REPO / root


def build():
    if not (REPO / "src" / "CMakeLists.txt").is_file() or not (REPO / "daemon").is_dir():
        fail(f"no dbsp sources next to {HERE.name}/ (expected {REPO}/src and {REPO}/daemon)")
    out = build_root() / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    env = clean_env()
    with open(log, "w") as f:
        if not (out / "CMakeCache.txt").is_file():
            r = subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                                "-DCMAKE_BUILD_TYPE=Release"],
                               stdout=f, stderr=subprocess.STDOUT, env=env)
            if r.returncode != 0:
                fail(f"cmake configure failed, see {log}")
        r = subprocess.run(["cmake", "--build", str(out), "--target", "perfbench", "dbspd",
                            "-j", str(os.cpu_count() or 1)],
                           stdout=f, stderr=subprocess.STDOUT, env=env)
        if r.returncode != 0:
            fail(f"build failed, see {log}")
    cache = (out / "CMakeCache.txt").read_text()
    if "CMAKE_BUILD_TYPE:STRING=Release" not in cache:
        fail("refusing a build that is not Release")
    flags = [l for l in cache.splitlines() if l.startswith("CMAKE_CXX_FLAGS_RELEASE:")]
    if not flags or "-DNDEBUG" not in flags[0]:
        fail("refusing a build with assertions enabled")
    return out / "perfbench", out / "dbsp" / "daemon" / "dbspd"


def declared_metrics():
    """Metric names BENCHMARK.json declares, by mode; None when absent."""
    path = REPO / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {0: [m["name"] for m in spec["end_to_end"]],
            1: [m["name"] for m in spec["per_layer"]]}


def run_seconds():
    """BENCHMARK.json's run_seconds; 30 without the file."""
    path = REPO / "BENCHMARK.json"
    return json.loads(path.read_text())["run_seconds"] if path.is_file() else 30


def run_once(binary, dbspd, workload, seed, seconds, trace, extra=()):
    """Runs the load generator; returns (exit code, stdout lines, result)."""
    work = build_root() / "runs" / f"{workload}-{seed}-{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--dbspd", str(dbspd), "--work-dir", str(work), *extra]
    # Its own process group, so a dbspd left behind by a crash or a timeout
    # is stopped with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=clean_env(),
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        code, out = 124, ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    spans = work / "spans.jsonl"
    if spans.is_file():
        keep = build_root() / "spans"
        keep.mkdir(parents=True, exist_ok=True)
        shutil.move(str(spans), keep / f"{workload}-seed{seed}.jsonl")
    shutil.rmtree(work, ignore_errors=True)
    lines = out.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return code, lines, result


def self_test(binary, dbspd):
    """Tiny sizes: every declared metric is emitted on every workload, the
    oracle passes, and a corrupted expected set is caught."""
    declared = declared_metrics()
    if declared is None:
        fail("self-test needs BENCHMARK.json at the repository root")
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines, result = run_once(binary, dbspd, workload, 7, 2, trace, ["--tiny"])
            tag = f"{workload} --trace {trace}"
            if code != 0 or result is None or not result.get("correct"):
                problems.append(f"{tag}: exit {code}, result {result}")
                problems.extend(f"  {l}" for l in lines if l.startswith("oracle_mismatch"))
                continue
            names = set(result["metrics"])
            missing = sorted(set(declared[trace]) - names)
            extra = sorted(names - set(declared[trace]))
            if missing or extra:
                problems.append(f"{tag}: missing {missing}, undeclared {extra}")
            print(f"self-test {tag}: {len(names)} metrics, oracle passed")
        code, lines, result = run_once(binary, dbspd, workload, 7, 2, 0,
                                       ["--tiny", "--corrupt-oracle"])
        caught = code != 0 and result is not None and result.get("correct") is False
        if not caught:
            problems.append(f"{workload}: corrupted expected set not caught (exit {code})")
        print(f"self-test {workload} --corrupt-oracle: "
              f"{'caught' if caught else 'NOT caught'}")
    for p in problems:
        print(f"self-test FAILED {p}")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=run_seconds())
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    binary, dbspd = build()
    if args.self_test:
        sys.exit(self_test(binary, dbspd))

    code, lines, result = run_once(binary, dbspd, args.workload, args.seed,
                                   args.seconds, args.trace)
    if result is None:
        print("\n".join(lines))
        fail(f"the load generator exited with {code} and no result")
    declared = declared_metrics()
    if declared is not None and sorted(result["metrics"]) != sorted(declared[args.trace]):
        print("\n".join(lines[:-1]))
        fail("emitted metrics differ from BENCHMARK.json")
    print("\n".join(lines))
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
