#!/usr/bin/env python3
"""Run the benchmark over several seeds and record median and spread.

    python3 perfbench/record.py

Run from the repository root. For every workload in BENCHMARK.json it runs
the benchmark's command once per seed (SEEDS) with `--trace 0` and
reports, per end-to-end metric, the median and the spread: the distance
between the first and third quartile (`statistics.quantiles(values, n=4)`)
as a share of the median. A spread at or above a third of the metric's
bound is flagged (setup_s excepted). The timed figures an untraced run logs
but does not report (latency, capacity, server CPU) get the same summary,
without a bound. It then makes TRACE_REPEATS traced runs at the first seed
and checks that every count metric repeats exactly.

The record (machine, toolchain, git revision, seeds, per-run values, the
sample count behind each latency percentile, medians and spreads) is
written to perfbench/RECORD.json. Exit status 0 means every run was
correct, every gated spread was under a third of its bound, and counts
repeated.
"""

import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "RECORD.json")
LOGGED = re.compile(r"^((?:load|server)\.\S+)\s+(-?[\d.]+) \S+$", re.M)
SEEDS = list(range(1, 11))
TRACE_REPEATS = 2


def sh(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(int(trace)),
    ]
    t0 = time.monotonic()
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    result = json.loads(lines[-1])
    want = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != want:
        raise SystemExit(f"{workload} seed {seed}: metrics "
                         f"{sorted(set(result['metrics']) ^ want)} differ "
                         "from BENCHMARK.json")
    samples = {k: int(v) for k, v in
               re.findall(r"samples: (\w+) n=(\d+)", p.stderr)}
    logged = {k: float(v) for k, v in LOGGED.findall(p.stderr)}
    return result, samples, logged, wall


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med,
            "spread": round((q3 - q1) / med, 4) if med else None}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {
        "machine": {
            "available_parallelism": os.cpu_count(),
            "uname": " ".join(os.uname()),
            "rustc": sh(["rustc", "--version"]),
            "git_rev": sh(["git", "rev-parse", "HEAD"]),
        },
        "command": bench["command"],
        "run_seconds": bench["run_seconds"],
        "seeds": SEEDS,
        "workloads": {},
    }
    ok = True
    for name in [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in SEEDS:
            result, samples, logged, wall = run_once(bench, name, seed, False)
            ok &= result["correct"]
            runs.append({"seed": seed, "wall_s": round(wall, 2),
                         "samples": samples, "logged": logged, **result})
            print(f"{name} seed {seed}: {wall:.1f}s "
                  + " ".join(f"{k}={v['value']:.4g}"
                             for k, v in result["metrics"].items()),
                  flush=True)
        gated = {}
        for metric, bound in bounds.items():
            s = summarise([r["metrics"][metric]["value"] for r in runs])
            steady = metric == "setup_s" or (s["spread"] is not None
                                            and s["spread"] < bound / 3)
            ok &= steady
            gated[metric] = {**s, "bound": bound, "steady": steady}
            print(f"  {metric:<26} median {s['median']:12.4f}  "
                  f"spread {s['spread']:7.2%}  bound {bound:.0%}"
                  f"{'' if steady else '  UNSTEADY'}")
        ungated = {k: summarise([r["logged"][k] for r in runs])
                   for k in runs[0]["logged"]}
        for k, s in ungated.items():
            print(f"  {k:<26} median {s['median']:12.4f}  "
                  f"spread {s['spread'] or 0:7.2%}  (not gated)")
        entry = {"runs": runs, "gated": gated, "ungated": ungated}

        traced = [run_once(bench, name, SEEDS[0], True)[0]
                  for _ in range(TRACE_REPEATS)]
        counts = {k: [t["metrics"][k]["value"] for t in traced]
                  for k, v in traced[0]["metrics"].items()
                  if v["unit"] == "count"}
        differ = [k for k, v in counts.items() if len(set(v)) > 1]
        ok &= not differ and all(t["correct"] for t in traced)
        if differ:
            print(f"  counts differ across traced runs: {differ}")
        entry["traced"] = {
            "seed": SEEDS[0],
            "counts_repeat_exactly": not differ,
            "metrics": {k: v["value"]
                        for k, v in traced[0]["metrics"].items()},
        }
        record["workloads"][name] = entry

    with open(OUT, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print("steady" if ok else "NOT steady", "->", os.path.relpath(OUT, ROOT))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
