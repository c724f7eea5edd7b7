#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload fanout --seeds 1-10 [--out FILE]
    python3 perfbench/spread.py --compare FIRST.json SECOND.json

Runs perfbench/run.py once per seed (sequentially) and prints, for every
end-to-end metric of BENCHMARK.json, the median and the interquartile
range as a share of the median (statistics.quantiles(values, n=4)), next
to the metric's bound, and the same for the ungated timings the runs
print as `info` lines (NAME_whole values and other *_us figures). --out
keeps the raw values;
--compare checks that the second set's medians are not worse than the
first's by more than the bounds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def info_values(stdout):
    """The ungated timings a run prints: `info NAME VALUE UNIT` lines whose
    NAME ends in _whole (a windowed figure over its whole phase) or _us."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "info" and parts[1].endswith(("_whole", "_us")):
            out[parts[1]] = float(parts[2])
    return out


def collect(workload, seeds, seconds):
    values = {name: [] for name in METRICS}
    for seed in seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        last = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else ""
        try:
            result = json.loads(last)
        except json.JSONDecodeError:
            result = None
        if r.returncode != 0 or result is None or not result["correct"]:
            print(f"seed {seed}: run failed (exit {r.returncode})")
            print(r.stdout)
            sys.exit(1)
        for name in METRICS:
            values[name].append(result["metrics"][name]["value"])
        for name, value in info_values(r.stdout).items():
            values.setdefault(name, []).append(value)
        print(f"seed {seed}: " + " ".join(
            f"{n}={result['metrics'][n]['value']:.4g}" for n in METRICS), flush=True)
    return values


def report(values):
    ok = True
    for name, m in METRICS.items():
        med, iqr = spread(values[name])
        limit = m["bound"]
        flag = "" if iqr <= limit else "  OVER BOUND"
        if flag:
            ok = False
        print(f"{name:32s} median {med:12.5g}  iqr/median {iqr:6.3f}  bound {limit}{flag}")
    for name in sorted(n for n in values if n not in METRICS):
        med, iqr = spread(values[name])
        print(f"{name:32s} median {med:12.5g}  iqr/median {iqr:6.3f}  (info, not gated)")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2)
    args = ap.parse_args()
    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        ok = True
        for name, m in METRICS.items():
            if name not in first or name not in second:
                continue
            a = statistics.median(first[name])
            b = statistics.median(second[name])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            bad = worse > m["bound"]
            ok &= not bad
            print(f"{name:32s} {a:12.5g} -> {b:12.5g}  worse by {worse:+.3f}"
                  f"  bound {m['bound']}{'  OVER BOUND' if bad else ''}")
        sys.exit(0 if ok else 1)
    values = collect(args.workload, seeds_of(args.seeds), args.seconds)
    if args.out:
        Path(args.out).write_text(json.dumps(values))
    sys.exit(0 if report(values) else 1)


if __name__ == "__main__":
    main()
