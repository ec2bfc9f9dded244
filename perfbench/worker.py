"""Runs one workload in a fresh interpreter and writes its measurements.

Started by run.py with the checkout's ``src`` on PYTHONPATH.  One
closed-loop client with no think time issues the workload's requests
through ``sonophoton.cli.main``; BLAS keeps its default thread count.
The output of every request is checked after its pass, outside timing.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out RESULT.json --work DIR [--tiny]
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import calibrate
import check
import tracing
import workloads


def blas_info() -> dict:
    """OpenBLAS configuration and the thread count in effect, read from the
    library numpy loaded (listed in this process's own memory map)."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.split()[-1]})
    for path in libs:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                getter = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if getter is not None and threads is not None:
                    getter.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    return {"blas": getter().decode(), "blas_threads": threads()}
    return {"blas": None, "blas_threads": None}


class Outcome:
    """Counts and deviations accumulated over every checked request."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.result_rel_dev = 0.0
        self.table_devs: tuple[float, float] | None = None

    def fail(self, request, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{' '.join(request.argv)}: {message}")


class Pass:
    """One pass over the workload's requests."""

    def __init__(self) -> None:
        self.wall = self.cpu = 0.0            # measured seconds
        self.ref_wall = self.ref_cpu = 0.0    # reference seconds (calibrate.py)
        self.ref_latencies: list[float] = []  # per request, reference seconds
        self.results: list = []               # (request, output text, error)


def run_pass(wl, out_file: Path, speed: calibrate.Speed) -> Pass:
    """Runs every request once, ``wl.segment`` requests per stretch, with a
    host-speed sample after each stretch; the samples are not timed."""
    p = Pass()
    for first in range(0, len(wl.requests), wl.segment):
        latencies = []
        cpu0, wall0 = time.process_time(), time.perf_counter()
        for req in wl.requests[first:first + wl.segment]:
            argv = list(req.argv)
            if req.to_file:
                out_file.unlink(missing_ok=True)
                argv += ["--output", str(out_file)]
            sink = io.StringIO()
            error = None
            start = time.perf_counter()
            try:
                main = sys.modules["sonophoton.cli"].main   # looked up per call, as a caller would
                with contextlib.redirect_stdout(sink):
                    code = main(argv)
                if code != 0:
                    error = f"exit code {code}"
            except Exception as exc:  # a failed request is counted; the run goes on
                error = f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - start)
            text = sink.getvalue()
            if req.to_file and error is None:
                text = out_file.read_text(encoding="utf-8")
            p.results.append((req, text, error))
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        f_wall, f_cpu = speed.between()
        p.wall += wall
        p.cpu += cpu
        p.ref_wall += wall * f_wall
        p.ref_cpu += cpu * f_cpu
        p.ref_latencies += [lat * f_wall for lat in latencies]
    return p


def check_pass(wl, results, golden, outcome: Outcome) -> tuple[int, int]:
    """Checks every output of a pass; returns (bytes, data rows) emitted."""
    nbytes = nrows = 0
    for req, text, error in results:
        outcome.attempted += 1
        nbytes += len(text.encode("utf-8"))
        nrows += max(check.data_part(text).count("\n"), 0)
        if error is None:
            try:
                if golden is None:
                    check.well_formed(text)
                else:
                    dev = check.rel_dev(text, golden[req.golden_key])
                    outcome.result_rel_dev = max(outcome.result_rel_dev, dev)
                    if dev > wl.tol:
                        error = f"deviates {dev:.3g} from golden (tol {wl.tol:g})"
                if wl.engine and error is None:
                    devs = check.table1_devs(text)
                    if devs is not None:
                        old = outcome.table_devs or (0.0, 0.0)
                        outcome.table_devs = (max(old[0], devs[0]), max(old[1], devs[1]))
            except (check.Mismatch, KeyError, ValueError, IndexError) as exc:
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            outcome.fail(req, error)
    return nbytes, nrows


def integrity(wl, layers: dict) -> None:
    """The call pattern a traced pass must show; a refactor that routes
    around a wrapper fails here instead of reporting zero layer time."""
    calls = layers.get("cli.main.calls", 0)
    if calls != len(wl.requests):
        raise tracing.TraceError(f"cli.main traced {calls} calls, "
                                 f"{len(wl.requests)} requests issued")
    for group in ("specfun.sph_jn_table", "bubble.spectrum_finite"):
        n = layers.get(f"{group}.calls", 0)
        if wl.engine and n == 0:
            raise tracing.TraceError(f"{group} never called on {wl.name}")
        if not wl.engine and n != 0:
            raise tracing.TraceError(f"{group} called {n} times on {wl.name}")


def micro_timing(lmax: int, kr: float, n: int, reps: int) -> float:
    """Median time of sph_jn_table(lmax, x) on n midpoints of (0, kr]."""
    x = kr * (np.arange(n) + 0.5) / n
    fn = sys.modules["sonophoton.specfun"].sph_jn_table
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn(lmax, x)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def tail_latency(values: list[float]) -> float:
    """p99, or the highest percentile with at least ten samples beyond it
    when a pass has fewer than 1000 requests (the median below 20), so the
    tail is never read off a handful of samples."""
    n = len(values)
    if n < 20:
        return statistics.median(values)
    cut = min(99, int(100 * (1.0 - 10.0 / n)))
    return statistics.quantiles(values, n=100, method="inclusive")[cut - 1]


def layer_metrics(summaries: list[dict], traced_walls, untraced_walls,
                  emitted: tuple[int, int]) -> dict:
    """Per-layer metrics, as the mean over traced passes of each pass's value.
    The wall times are in reference seconds."""
    def g(key: str) -> float:
        return statistics.fmean(s.get(key, 0.0) for s in summaries)

    sph_busy, points = g("specfun.sph_jn_table.busy_s"), g("bubble.output_points")
    cli_calls = g("cli.main.calls")
    return {
        "specfun.sph_jn_table.calls": g("specfun.sph_jn_table.calls"),
        "specfun.sph_jn_table.busy_s": sph_busy,
        "specfun.sph_jn_table.evals": g("specfun.sph_jn_table.evals"),
        "specfun.sph_jn_table.evals_per_s":
            g("specfun.sph_jn_table.evals") / sph_busy if sph_busy else 0.0,
        "specfun.sph_jn_table.lmax_max": max(s.get("specfun.sph_jn_table.lmax_max", 0)
                                             for s in summaries),
        "specfun.sph_jn_table.L463xN6000_s": micro_timing(463, 392.0, 6000, 15),
        "specfun.sph_jn_table.L63xN150_s": micro_timing(63, 12.1, 150, 200),
        "bubble.spectrum_finite.calls": g("bubble.spectrum_finite.calls"),
        "bubble.spectrum_finite.busy_s": g("bubble.spectrum_finite.busy_s"),
        "bubble.spectrum_finite.self_s": g("bubble.spectrum_finite.self_s"),
        "bubble.output_points": points,
        "bubble.table_calls_per_point": g("bubble.table_calls") / points if points else 0.0,
        "bubble.nodes_per_point": g("bubble.table_nodes") / points if points else 0.0,
        "bubble.totals_finite.busy_s": g("bubble.totals_finite.busy_s"),
        "bubble.integrate_s": g("bubble.totals_finite.self_s"),
        "homogeneous.spectrum_infinite.calls": g("homogeneous.spectrum_infinite.calls"),
        "homogeneous.spectrum_infinite.busy_s": g("homogeneous.spectrum_infinite.busy_s"),
        "homogeneous.closed_form.calls": g("homogeneous.closed_form.calls"),
        "homogeneous.closed_form.busy_s": g("homogeneous.closed_form.busy_s"),
        "inverse.solve_n_in.calls": g("inverse.solve_n_in.calls"),
        "inverse.solve_n_in.busy_s": g("inverse.solve_n_in.busy_s"),
        "inverse.sweep_figure1.calls": g("inverse.sweep_figure1.calls"),
        "inverse.sweep_figure1.busy_s": g("inverse.sweep_figure1.busy_s"),
        "cli.main.calls": cli_calls,
        "cli.main.busy_s": g("cli.main.busy_s"),
        "cli.main.self_s": g("cli.main.self_s"),
        "cli.self_s_per_call": g("cli.main.self_s") / cli_calls if cli_calls else 0.0,
        "cli.bytes_out": emitted[0],
        "cli.rows_out": emitted[1],
        "trace.overhead_s": statistics.median(traced_walls)
                            - statistics.median(untraced_walls),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    import sonophoton.cli  # noqa: F401  (the library under test, from PYTHONPATH)
    src = Path(__file__).resolve().parents[1] / "src"
    where = Path(sys.modules["sonophoton"].__file__).resolve()
    if src not in where.parents:
        print(f"error: sonophoton imported from {where}, not from {src}", file=sys.stderr)
        return 2

    wl = workloads.get(args.workload, args.seed, tiny=args.tiny)
    out_file = args.work / "output.csv"
    golden = None
    outcome = Outcome()
    timed_passes: list[Pass] = []           # untraced, after the warm-up
    traced_walls, summaries, case_s = [], [], []
    emitted = (0, 0)
    peak_rss_mb = None
    speed = calibrate.Speed(wl.speed_samples)

    def one_pass(timed: bool, traced: bool) -> None:
        nonlocal golden, emitted, peak_rss_mb
        tracer = tracing.Tracer() if traced else None
        with tracer or contextlib.nullcontext():
            p = run_pass(wl, out_file, speed)
        if peak_rss_mb is None:
            # peak RSS of this fresh process after one pass, before the
            # golden outputs are loaded
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if wl.golden_file is not None:
                golden = check.load_golden(wl.golden_file)
        emitted = check_pass(wl, p.results, golden, outcome)
        p.results = []
        if traced:
            summary = tracing.summarize(tracer.spans)
            integrity(wl, summary)
            summaries.append(summary)
            traced_walls.append(p.ref_wall)
            totals = [s for s in tracer.spans if s[0] == "bubble.totals_finite"]
            if wl.name == "table1" and len(totals) == len(workloads.TABLE1_CASE_NAMES):
                case_s.append([end - start for _, start, end, _, _ in totals])
        elif timed:
            timed_passes.append(p)

    if wl.warmup:
        one_pass(timed=False, traced=False)
    elapsed = 0.0
    start = time.perf_counter()
    while True:
        if args.trace:
            done = timed_passes and traced_walls and elapsed >= args.seconds
        else:
            done = len(timed_passes) >= wl.min_passes and elapsed >= args.seconds
        if done:
            break
        one_pass(timed=True,
                 traced=bool(args.trace) and len(traced_walls) < len(timed_passes))
        elapsed = time.perf_counter() - start

    # Every pass does identical work, but the shared host's speed swings by
    # up to ~1.9x within seconds.  Times are reported in reference seconds
    # (see calibrate.py), as medians over the run's passes and requests.
    ref_walls = [p.ref_wall for p in timed_passes]
    ref_latencies = [lat for p in timed_passes for lat in p.ref_latencies]
    walls = [p.wall for p in timed_passes]
    result = {
        "record": {"numpy": np.__version__, **blas_info()},
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
        "checks": {"result_rel_dev": outcome.result_rel_dev,
                   "error_rate": outcome.failed / max(outcome.attempted, 1),
                   "n_dev_max": outcome.table_devs and outcome.table_devs[0],
                   "ratio_dev_max": outcome.table_devs and outcome.table_devs[1]},
        "end_to_end": {
            "wall_s": statistics.median(ref_walls),
            "cpu_s": statistics.median(p.ref_cpu for p in timed_passes),
            "peak_rss_mb": peak_rss_mb,
            "req_p50_ms": 1e3 * statistics.median(ref_latencies),
            # per pass, so one slow stretch of the host moves one pass's
            # tail and not the run's
            "req_p99_ms": 1e3 * statistics.median(tail_latency(p.ref_latencies)
                                                  for p in timed_passes),
        },
        "samples": {"passes": len(timed_passes), "requests_per_pass": len(wl.requests),
                    "traced_passes": len(traced_walls),
                    "measured_wall_s": {"median": statistics.median(walls),
                                        "min": min(walls), "max": max(walls)},
                    "speed_factor": {"median": statistics.median(speed.factors),
                                     "min": min(speed.factors),
                                     "max": max(speed.factors),
                                     "samples": len(speed.factors)}},
    }
    if args.trace:
        layers = layer_metrics(summaries, traced_walls, ref_walls, emitted)
        for i, name in enumerate(workloads.TABLE1_CASE_NAMES):
            if case_s:
                layers[f"bubble.totals_finite.case_s.{name}"] = statistics.median(
                    c[i] for c in case_s)
        result["per_layer"] = layers
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except tracing.TraceError as exc:
        print(f"trace integrity: {exc}", file=sys.stderr)
        sys.exit(3)
