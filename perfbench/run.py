"""sonophoton benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the library is taken from the
checkout's ``src`` (nothing is installed).  With ``--trace 0`` the last
stdout line holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced run (the end-to-end figures of its
untraced passes are printed on a ``# end_to_end`` line before it).
Earlier ``#`` lines hold the run record and the output checks.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 16
PROBE = "import time, sonophoton.cli; print(repr(time.monotonic()))"

UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "req_p50_ms": "ms", "req_p99_ms": "ms",
}


def layer_unit(name: str) -> str:
    if name.endswith("evals_per_s"):
        return "1/s"
    if name.endswith(("_s", "_s_per_call")) or ".case_s." in name:
        return "s"
    if name.endswith("bytes_out"):
        return "B"
    return "count"


def _loadavg() -> str:
    with open("/proc/loadavg", encoding="utf-8") as fh:
        return fh.read().strip()


def _git_rev() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    """Digest of the library sources, to identify the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def setup_time(env: dict) -> float:
    """Fresh interpreter until ``sonophoton.cli`` is imported and ready."""
    start = time.monotonic()
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout) - start


def setup_probes(env: dict, count: int, speed: calibrate.Speed) -> list[tuple[float, float]]:
    """(measured, reference) seconds of ``count`` set-up probes, each scaled
    by the host-speed samples taken on either side of it."""
    probes = []
    for _ in range(count):
        measured = setup_time(env)
        probes.append((measured, measured * speed.between()[0]))
    return probes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs and no golden check (used by selftest.py)")
    args = ap.parse_args()
    # A SIGTERM unwinds like an exception, so subprocess.run kills the
    # worker or probe it is waiting for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "sonophoton" / "cli.py").is_file():
        print(f"error: no sonophoton sources under {SRC}", file=sys.stderr)
        return 2

    t_start = time.monotonic()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "git_rev": _git_rev(), "src_digest": _src_digest(),
              "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
              "python": platform.python_version(),
              "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS",
                                                       "OMP_NUM_THREADS") if k in os.environ},
              "loadavg_start": _loadavg()}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    limit = workloads.get(args.workload, args.seed).timeout_s
    try:
        # Half the set-up probes run before the worker and half after it, so
        # the median spans the run rather than one moment of the host's load.
        setup_time(env)  # warms the file cache once; not counted
        half = 2 if args.tiny else SETUP_PROBES // 2
        speed = calibrate.Speed()
        probes = setup_probes(env, half, speed)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(work / "result.json"),
               "--work", str(work)] + (["--tiny"] if args.tiny else [])
        remaining = limit - (time.monotonic() - t_start)
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                                  timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            print(f"error: worker exceeded {remaining:.0f} s", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        raw = json.loads((work / "result.json").read_text(encoding="utf-8"))
        speed.restart()
        probes += setup_probes(env, half, speed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    record.update(raw["record"], samples=raw["samples"], setup_probes=len(probes),
                  measured_setup_s=statistics.median(m for m, _ in probes),
                  loadavg_end=_loadavg())
    e2e = {"setup_s": statistics.median(r for _, r in probes), **raw["end_to_end"]}
    e2e = {name: {"value": e2e[name], "unit": unit} for name, unit in UNITS.items()}
    print("# record: " + json.dumps(record))
    print("# checks: " + json.dumps({**raw["checks"], "errors": raw["errors"]}))
    if args.trace:
        print("# end_to_end: " + json.dumps(e2e))
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in raw["per_layer"].items()}
    else:
        metrics = e2e
    print(json.dumps({"correct": raw["failed"] == 0, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
