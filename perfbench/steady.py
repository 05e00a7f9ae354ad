"""Steadiness mode: run workloads in two sets separated in time and compare.

    python3 perfbench/steady.py --runs 10 --out steady.json
    python3 perfbench/steady.py --workloads nlcf-sasgd-mp --runs 5

Each of the two sets runs every chosen workload once per seed (seeds
1..runs, the workloads interleaved within a seed so that host drift spreads
over all of them); the second set starts ``GAP_S`` seconds after the first
ends.  For every end-to-end metric the report gives each set's median and
quartiles, the spread (quartile distance over the median) against the
metric's bound from BENCHMARK.json, and how much worse the second set's
median is than the first's, also against the bound.  It exits 1 when a
spread or a set difference exceeds its bound, when the failed share differs
between sets, or when a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
GAP_S = 60.0


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    result["exit"] = proc.returncode
    if len(lines) > 1:
        result.update(json.loads(lines[-2]))  # the host record and the rounds
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
    return result


def spread(values: List[float]) -> Dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return -change if better == "higher" else change


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", help="write every run's result here as JSON")
    args = parser.parse_args(argv)

    names = args.workloads.split(",")
    sets: List[Dict[str, List[dict]]] = []
    for s in range(SETS):
        if s:
            time.sleep(GAP_S)
        results: Dict[str, List[dict]] = {name: [] for name in names}
        for seed in range(1, args.runs + 1):
            for name in names:
                results[name].append(run_once(name, seed, args.seconds))
                r = results[name][-1]
                print(f"set {s + 1} seed {seed} {name}: exit {r['exit']} "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in r.get("metrics", {}).items()),
                      flush=True)
        sets.append(results)

    ok = True
    report: Dict[str, dict] = {}
    for name in names:
        report[name] = {}
        shares = []
        for results in sets:
            runs = results[name]
            if any(r["exit"] != 0 or not r.get("correct") for r in runs):
                print(f"{name}: a run failed or a check did not pass")
                ok = False
            shares.append(sum(r.get("failed", 0) for r in runs)
                          / max(1, sum(r.get("attempted", 0) for r in runs)))
        if len(set(shares)) > 1:
            print(f"{name}: failed share differs between sets: {shares}")
            ok = False
        for metric in bench["end_to_end"]:
            m = metric["name"]
            per_set = [
                spread([r["metrics"][m]["value"] for r in results[name] if "metrics" in r])
                for results in sets
            ]
            row = {"sets": per_set, "bound": metric["bound"]}
            line = f"{name:18s} {m:18s}"
            for st in per_set:
                line += (f" | med {st['median']:.5g} q1 {st['q1']:.5g} q3 {st['q3']:.5g}"
                         f" spread {st['spread']:.3f}")
                if st["spread"] > metric["bound"]:
                    ok = False
                    line += " (!)"
            row["second_worse_by"] = worse_by(
                per_set[0]["median"], per_set[1]["median"], metric["better"])
            line += f" | 2nd worse by {row['second_worse_by']:+.3f}"
            if row["second_worse_by"] > metric["bound"]:
                ok = False
                line += " (!)"
            print(line + f" | bound {metric['bound']}")
            report[name][m] = row
    if args.out:
        Path(args.out).write_text(json.dumps({"report": report, "runs": sets}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
