"""Benchmark entry point for cqelite.

    python3 bench/run.py --workload supplier-read --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30
    python3 bench/run.py --sets 2 --runs 10 --seconds 30

Each workload run is a fresh interpreter (`worker.py`) started with
`sys.executable`, the hash seed pinned and this checkout's `src` first on
the path.  With one workload, the worker's output is passed through and its
last line is the result JSON.  `--workload all` runs every workload that
BENCHMARK.json lists, in turn.
`--sets N --runs M` runs N sets of M runs of every workload, each run with
another seed, and reports for every (workload, end-to-end metric) the spread
within each set and whether the set medians agree within the bound fixed in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "bench" / "worker.py"
RESULTS = ROOT / "bench" / "results"
HASH_SEED = "0"  # frozenset order breaks join-order ties in the matchers
RUN_TIMEOUT = 175


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_one(workload: str, seed: int, seconds: float, trace: int, fault: bool) -> tuple[int, str]:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if fault:
        cmd.append("--inject-fault")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout.decode() if isinstance(exc.stdout, bytes) else (exc.stdout or "")
        return 124, out + f"error: {workload} did not finish within {RUN_TIMEOUT} s\n"
    return proc.returncode, proc.stdout


def result_of(output: str) -> dict | None:
    lines = output.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def steadiness(names: list[str], sets: int, runs: int, seconds: float) -> int:
    """Repeated sets of runs of the same code; per (workload, metric), the
    spread of each set and how far the last set's median moved from the
    first's, against the metric's bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    report: dict = {"seconds": seconds, "runs": runs, "sets": sets, "hash_seed": HASH_SEED, "workloads": {}}
    ok = True
    for name in names:
        per_set = []
        for s in range(sets):
            values: dict[str, list[float]] = {m: [] for m in metrics}
            shares = []
            for i in range(runs):
                seed = s * runs + i + 1
                code, out = run_one(name, seed, seconds, 0, False)
                res = result_of(out)
                if code != 0 or res is None:
                    print(out)
                    print(f"error: {name} seed {seed} exited {code}")
                    return 1
                shares.append(res["failed"] / res["attempted"])
                for m in metrics:
                    values[m].append(res["metrics"][m]["value"])
                print(f"{name} set {s + 1} seed {seed}: "
                      + " ".join(f"{m}={values[m][-1]:.4g}" for m in metrics), flush=True)
            per_set.append({"values": values, "failed_share": sorted(set(shares))})
        rows = {}
        for m, spec_m in metrics.items():
            first = statistics.median(per_set[0]["values"][m])
            last = statistics.median(per_set[-1]["values"][m])
            worse = (last - first) / first if spec_m["better"] == "lower" else (first - last) / first
            spreads = [spread(p["values"][m]) for p in per_set]
            agree = abs(last - first) / first <= spec_m["bound"]
            steady = all(x <= spec_m["bound"] for x in spreads)
            ok &= agree and steady
            rows[m] = {"medians": [statistics.median(p["values"][m]) for p in per_set],
                       "spreads": spreads, "worse_share": worse, "bound": spec_m["bound"],
                       "agree": agree, "steady": steady}
            print(f"  {name:15s} {m:20s} medians {' '.join(f'{x:.4g}' for x in rows[m]['medians'])}  "
                  f"spreads {' '.join(f'{x:.3f}' for x in spreads)}  worse {worse:+.3f}  "
                  f"bound {spec_m['bound']}  {'ok' if agree and steady else 'NOT OK'}", flush=True)
        same_share = len({tuple(p["failed_share"]) for p in per_set}) == 1
        ok &= same_share
        report["workloads"][name] = {"metrics": rows, "failed_share_same": same_share,
                                     "sets": per_set}
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"steadiness-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"report written to {path.relative_to(ROOT)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    ap = argparse.ArgumentParser(description="cqelite benchmark")
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-fault", action="store_true",
                    help="invert the first expected answer; the run must then fail")
    ap.add_argument("--sets", type=int, default=0, help="steadiness check: number of sets")
    ap.add_argument("--runs", type=int, default=10, help="steadiness check: runs per set")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cqelite" / "__init__.py").is_file():
        print(f"error: no cqelite sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    selected = names if args.workload == "all" else [args.workload]
    if args.sets:
        return steadiness(selected, args.sets, args.runs, args.seconds)
    if len(selected) == 1:
        code, out = run_one(selected[0], args.seed, args.seconds, args.trace, args.inject_fault)
        sys.stdout.write(out)
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in selected:
        code, out = run_one(name, args.seed, args.seconds, args.trace, args.inject_fault)
        sys.stdout.write("\n".join(out.strip().splitlines()[:-1]) + "\n")
        worst = max(worst, code)
        res = result_of(out)
        if res is None:
            combined["correct"] = False
            continue
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
