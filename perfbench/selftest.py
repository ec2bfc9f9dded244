"""Fast self-test of the benchmark itself (well under a minute).

    python3 perfbench/selftest.py

Runs every workload on tiny inputs (small --k-obs-r, few grid points, a
few dozen closed-form requests) in both trace modes and checks that every
metric BENCHMARK.json names is printed with its unit; checks that the
golden comparison accepts the golden outputs and rejects perturbed ones;
checks the trace integrity guard; and checks that the benchmark fails
without a result when the library sources are missing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_metrics(workload: str, trace: int) -> None:
    proc = run(["--workload", workload, "--seed", "7", "--seconds", "0.5",
                "--trace", str(trace), "--tiny"])
    assert proc.returncode == 0, f"{workload} trace {trace}:\n{proc.stderr[-3000:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    missing = {n: u for n, u in wanted.items() if got.get(n) != u}
    assert not missing, f"{workload} trace {trace}: missing or wrong unit {missing}"
    listed = {w["name"] for w in SPEC["workloads"]}
    assert workload not in listed or set(got) == set(wanted), set(got) ^ set(wanted)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0.0, name
    print(f"ok  {workload} trace {trace}: {len(got)} metrics")


def check_golden_rejects() -> None:
    for wl_name in workloads.NAMES:
        wl = workloads.get(wl_name, seed=0)
        if not (workloads.GOLDEN_DIR / wl.golden_file).exists():
            print(f"skip {wl_name}: no golden file")
            continue
        golden = check.load_golden(wl.golden_file)
        text = max(golden.values(), key=len)
        assert check.rel_dev(text, text) == 0.0
        lines = text.splitlines()
        header = next(i for i, line in enumerate(lines) if line and not line.startswith("#"))
        cells = lines[header + 1].split(",")
        col = next(i for i, c in enumerate(cells) if check.number(c) not in (None, 0.0))
        cells[col] = repr(float(cells[col]) * (1.0 + 10.0 * wl.tol))
        perturbed = "\n".join(lines[:header + 1] + [",".join(cells)] + lines[header + 2:])
        assert check.rel_dev(perturbed, text) > wl.tol, wl_name
        dropped = "\n".join(",".join(line.split(",")[1:]) if i >= header else line
                            for i, line in enumerate(lines))
        try:
            check.rel_dev(dropped, text)
        except check.Mismatch:
            pass
        else:
            raise AssertionError(f"{wl_name}: a dropped column was accepted")
        print(f"ok  {wl_name}: golden accepted, perturbed value and dropped column rejected")


def check_integrity_guard() -> None:
    import tracing
    import worker
    wl = workloads.get("spectrum-headline", seed=0, tiny=True)
    for bad in ({"cli.main.calls": 1},                                  # engine bypassed
                {"cli.main.calls": 2, "specfun.sph_jn_table.calls": 5,
                 "bubble.spectrum_finite.calls": 1}):                   # wrong request count
        try:
            worker.integrity(wl, bad)
        except tracing.TraceError:
            continue
        raise AssertionError(f"integrity accepted {bad}")
    sys.path.insert(0, str(ROOT / "src"))
    import sonophoton.cli  # noqa: F401
    bubble, specfun = sys.modules["sonophoton.bubble"], sys.modules["sonophoton.specfun"]
    original = specfun.sph_jn_table
    with tracing.Tracer():
        assert bubble.sph_jn_table is specfun.sph_jn_table is not original
    assert bubble.sph_jn_table is specfun.sph_jn_table is original
    print("ok  trace integrity guard rejects a bypassed layer and a wrong call count; "
          "wrapped names are restored")


def check_fails_without_sources() -> None:
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                    "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    print("ok  exits non-zero without a result when the sources are missing")


def main() -> None:
    check_golden_rejects()
    check_integrity_guard()
    check_fails_without_sources()
    for workload in workloads.NAMES:
        for trace in (0, 1):
            check_metrics(workload, trace)
    print("self-test: OK")


if __name__ == "__main__":
    main()
