"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--workloads A B] [--seeds 1 2 ...] \
        [--seconds S] [--out FILE.json]

Runs ``run.py --trace 0`` once per (workload, seed), one after another,
and prints each metric's median, quartiles and (Q3 - Q1) / median next to
its bound from BENCHMARK.json.  The spread should stay below a third of
the bound.  ``--out`` keeps every run's result and record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    record = next(json.loads(line[len("# record: "):]) for line in lines
                  if line.startswith("# record: "))
    return {"seed": seed, "result": json.loads(lines[-1]), "record": record}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    runs = {}
    for workload in args.workloads:
        runs[workload] = []
        for seed in args.seeds:
            run = one_run(workload, seed, args.seconds)
            runs[workload].append(run)
            print(f"{workload} seed {seed}: correct={run['result']['correct']} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in run["result"]["metrics"].items()),
                flush=True)
    summary = {}
    for workload, wl_runs in runs.items():
        for metric in SPEC["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in wl_runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            spread = (q3 - q1) / med
            summary[f"{workload}/{metric['name']}"] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": metric["bound"]}
            flag = "ok" if spread < metric["bound"] / 3 else "WIDE"
            print(f"{workload:18s} {metric['name']:12s} median {med:10.4g}  "
                  f"IQR/median {spread:6.3f}  bound {metric['bound']:.2f}  {flag}")
    if args.out:
        args.out.write_text(json.dumps({"summary": summary, "runs": runs}, indent=1) + "\n",
                            encoding="utf-8")


if __name__ == "__main__":
    main()
