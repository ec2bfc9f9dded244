"""Output checks: comparison against the committed golden outputs.

Only the data part of a CSV is compared (the '#' preamble may gain
deterministic fields).  Columns are matched by name, so added columns
are allowed; every golden column must be present with the same rows.
A numeric cell's deviation is |a - b| / max(|b|, 1e-6 * max|column|);
the floor keeps cells far below the column's scale from dominating.
"""

from __future__ import annotations

import json
import math

from workloads import GOLDEN_DIR, TABLE1_REFERENCE

# The table's geometry, as the CLI's preamble prints its defaults.
TABLE1_GEOMETRY = {"k_obs_r": "15.0", "radius_nm": "500.0", "n_liquid": "1.3",
                   "cutoff_nm": ""}


class Mismatch(Exception):
    """An output that does not match its golden counterpart."""


def data_part(text: str) -> str:
    return "\n".join(line for line in text.splitlines()
                     if line and not line.startswith("#"))


def _parse(text: str) -> tuple[list[str], list[list[str]]]:
    lines = data_part(text).splitlines()
    if not lines:
        raise Mismatch("no CSV header in output")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def rel_dev(output: str, golden: str) -> float:
    """Largest deviation of any numeric cell; raises Mismatch on a
    structural difference or a non-numeric cell that differs."""
    if data_part(output) == data_part(golden):
        return 0.0
    out_head, out_rows = _parse(output)
    gold_head, gold_rows = _parse(golden)
    if len(out_rows) != len(gold_rows):
        raise Mismatch(f"{len(out_rows)} rows, golden has {len(gold_rows)}")
    worst = 0.0
    for gi, name in enumerate(gold_head):
        if name not in out_head:
            raise Mismatch(f"column {name!r} missing")
        oi = out_head.index(name)
        gold_col = [row[gi] for row in gold_rows]
        out_col = [row[oi] if oi < len(row) else "" for row in out_rows]
        gold_num = [number(c) for c in gold_col]
        scale = max((abs(v) for v in gold_num if v is not None and math.isfinite(v)),
                    default=0.0)
        for r, (o, g, gv) in enumerate(zip(out_col, gold_col, gold_num)):
            if o == g:
                continue
            ov = number(o)
            if gv is None or ov is None or not math.isfinite(ov):
                raise Mismatch(f"{name} row {r}: {o!r} != golden {g!r}")
            floor = max(abs(gv), 1e-6 * scale)
            worst = max(worst, abs(ov - gv) / floor if floor > 0.0 else math.inf)
    return worst


def well_formed(output: str) -> None:
    """Structural check for outputs that have no golden (self-test inputs):
    a header and rows whose numeric cells are finite and non-negative
    except in the columns that are signed by definition."""
    head, rows = _parse(output)
    if not rows:
        raise Mismatch("no data rows")
    for row in rows:
        if len(row) != len(head):
            raise Mismatch(f"row has {len(row)} cells, header {len(head)}")
        for name, cell in zip(head, row):
            value = number(cell)
            if value is None:
                continue
            if not math.isfinite(value) or (value < 0.0 and "dev" not in name):
                raise Mismatch(f"{name} = {cell!r}")


def load_golden(filename: str) -> dict[str, str]:
    """Golden outputs keyed by request: a CSV file holds one output keyed
    by the workload name, a JSON file maps request strings to outputs."""
    path = GOLDEN_DIR / filename
    if path.suffix == ".json":
        return json.loads(path.read_text(encoding="utf-8"))
    return {path.stem: path.read_text(encoding="utf-8")}


def _preamble(text: str) -> dict[str, str]:
    keys = {}
    for line in text.splitlines():
        key, eq, value = line[1:].partition("=")
        if line.startswith("#") and eq:
            keys[key.strip()] = value.strip()
    return keys


def table1_devs(output: str) -> tuple[float, float] | None:
    """(max |N/N_ref - 1|, max |ratio - ratio_ref|) over the paper's table
    rows in a table1 output, or in a finite-model totals output for one of
    the table's cases; None when the output holds no table row."""
    pre = _preamble(output)
    if any(pre.get(key) != value for key, value in TABLE1_GEOMETRY.items()):
        return None
    head, rows = _parse(output)
    col = head.index
    if "N_finite" in head:
        cases = [((float(r[col("n_gas_in")]), float(r[col("n_gas_out")])),
                  float(r[col("N_finite")]), float(r[col("ratio_finite")]))
                 for r in rows]
    else:
        key = (float(pre.get("n_in", "nan")), float(pre.get("n_out", "nan")))
        if key not in TABLE1_REFERENCE or "photon_count" not in head:
            return None
        cases = [(key, float(r[col("photon_count")]), float(r[col("mean_over_cutoff")]))
                 for r in rows if r[col("model")] == "finite"]
    n_dev = ratio_dev = 0.0
    for key, count, ratio in cases:
        ref_count, ref_ratio = TABLE1_REFERENCE[key]
        n_dev = max(n_dev, abs(count / ref_count - 1.0))
        ratio_dev = max(ratio_dev, abs(ratio - ref_ratio))
    return n_dev, ratio_dev
