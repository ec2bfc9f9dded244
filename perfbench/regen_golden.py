"""Regenerate the committed golden outputs from the current sources.

    python3 perfbench/regen_golden.py [WORKLOAD ...]

This is a deliberate step, never run by the benchmark: do it only on a
commit whose outputs are the accepted reference, and commit the result
together with a note of why the reference moved.  ``table1`` takes
about two minutes.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import check  # noqa: E402
import workloads  # noqa: E402
from sonophoton import cli  # noqa: E402


def output_of(argv: tuple[str, ...]) -> str:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {code}")
    return sink.getvalue()


def main(names: list[str]) -> None:
    for name in names or workloads.NAMES:
        wl = workloads.get(name, seed=0)
        path = workloads.GOLDEN_DIR / wl.golden_file
        if name == "closed-form":
            outputs = {" ".join(argv): check.data_part(output_of(argv)) + "\n"
                       for pool in workloads.closed_form_pool() for argv in pool}
            path.write_text(json.dumps(outputs, indent=0, sort_keys=True) + "\n",
                            encoding="utf-8")
        else:
            (req,) = wl.requests
            tmp = path.with_suffix(".tmp")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(list(req.argv) + ["--output", str(tmp)])
            if code != 0:
                raise SystemExit(f"{name} exited with {code}")
            tmp.replace(path)
        print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
