"""Golden reports: the committed output of ``sdlab verify-all -n 10000 --seed 3``,
and of the criterion 9 crossing drivers at a fixed small n and seed.

``tests/golden/`` holds each theorem's report minus ``meta`` and the
``summary.csv`` of that run.  ``test_verify_all_and_suite_write_identical_reports``
compares a fresh run with them: ids, verdicts, ``n``, seeds, notes and every
other string or integer exactly, floats to a relative 1e-12.

``tests/golden/crossing/`` holds the ``estimate_crossing`` estimates of the
32 x 32 Bargmann-Fock ``hcross`` at five levels and the one-arm
``subcritical_decay_table`` at R = 4, 8, 16, each with every eighth order
statistic of its thresholds; ``crossing_mismatches`` compares a fresh run
with them by the same rule.

A change that moves a random stream or a reported number on purpose
regenerates the fixture from the checkout with::

    PYTHONPATH=src python tests/golden.py

and names every report whose file changed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).parent / "golden"
ARGV = ["verify-all", "-n", "10000", "--seed", "3"]
REL_TOL = 1e-12
CROSSING_DIR = GOLDEN_DIR / "crossing"
CROSSING_N, CROSSING_SEED = 512, 11
CROSSING_LEVELS = (-0.2, -0.1, 0.0, 0.1, 0.2)


def minus_meta(path: Path) -> dict:
    doc = json.loads(Path(path).read_text())
    doc.pop("meta")
    return doc


def _mismatch(actual, expected, where: str) -> str | None:
    """The first difference of two parsed documents, or None when they match."""
    if type(expected) is float and type(actual) is float:
        if actual == expected or (math.isnan(actual) and math.isnan(expected)):
            return None
        if math.isfinite(expected) and abs(actual - expected) <= REL_TOL * abs(expected):
            return None
        return f"{where}: {actual!r} != {expected!r}"
    if type(actual) is not type(expected):
        return f"{where}: {actual!r} != {expected!r}"
    if isinstance(expected, dict):
        if actual.keys() != expected.keys():
            return f"{where}: keys {sorted(actual)} != {sorted(expected)}"
        return next((m for k in expected if (m := _mismatch(actual[k], expected[k], f"{where}.{k}"))), None)
    if isinstance(expected, list):
        if len(actual) != len(expected):
            return f"{where}: length {len(actual)} != {len(expected)}"
        return next((m for i, (a, e) in enumerate(zip(actual, expected))
                     if (m := _mismatch(a, e, f"{where}[{i}]"))), None)
    return None if actual == expected else f"{where}: {actual!r} != {expected!r}"


def _csv_cells(text: str) -> list:
    """CSV rows with every cell that parses as a float read as one."""
    def cell(s):
        try:
            return float(s)
        except ValueError:
            return s
    return [[cell(s) for s in row] for row in csv.reader(io.StringIO(text))]


def mismatches(run_dir: Path, summary_name: str = "summary.csv") -> list[str]:
    """Every report of ``run_dir`` (and its summary CSV) that differs from the fixture."""
    run_dir = Path(run_dir)
    out = []
    for gold in sorted(GOLDEN_DIR.glob("*.json")):
        m = _mismatch(minus_meta(run_dir / gold.name) if (run_dir / gold.name).exists() else None,
                      json.loads(gold.read_text()), gold.stem)
        if m:
            out.append(m)
    m = _mismatch(_csv_cells((run_dir / summary_name).read_text()),
                  _csv_cells((GOLDEN_DIR / "summary.csv").read_text()), "summary.csv")
    return out + ([m] if m else [])


def _order_stats(T) -> list[float]:
    """Every eighth order statistic of a threshold vector, and its largest."""
    s = np.sort(np.asarray(T))
    return [float(v) for v in s[::8]] + [float(s[-1])]


def crossing_outputs() -> dict[str, dict]:
    """The crossing fixture's documents, from the checkout's ``sdlab``."""
    from sdlab import bootstrap, kernels

    model = kernels.bargmann_fock(2)
    hcross = {}
    for ell in CROSSING_LEVELS:
        est = bootstrap.estimate_crossing(model, 0.5, ell, 16.0, "hcross", CROSSING_N, CROSSING_SEED, aspect=1.0)
        hcross[f"ell={ell:g}"] = {"estimate": float(est.estimate), "se": float(est.se)}
    hcross["thresholds"] = _order_stats(est.thresholds)
    table = bootstrap.subcritical_decay_table(model, -0.5, (4, 8, 16), CROSSING_N, CROSSING_SEED)
    one_arm = {"rows": [[float(r.R), float(r.estimate), float(r.se)] for r in table.rows],
               "monotone_in_R": bool(table.monotone_in_R),
               "thresholds": [_order_stats(T) for T in table.thresholds]}
    return {"hcross": hcross, "one_arm": one_arm}


def crossing_mismatches() -> list[str]:
    """Every crossing document of a fresh run that differs from the fixture."""
    out = []
    for name, doc in crossing_outputs().items():
        m = _mismatch(doc, json.loads((CROSSING_DIR / f"{name}.json").read_text()), name)
        if m:
            out.append(m)
    return out


def regenerate() -> None:
    """Rewrite ``tests/golden/`` from a fresh run of the checkout's ``sdlab``."""
    from sdlab import cli

    with tempfile.TemporaryDirectory() as tmp:
        if cli.main([*ARGV, "--out", tmp]) != 0:
            raise SystemExit("verify-all did not exit 0; the fixture is left as it was")
        GOLDEN_DIR.mkdir(exist_ok=True)
        for old in GOLDEN_DIR.iterdir():
            if old.is_file():
                old.unlink()
        for report in sorted(Path(tmp).glob("*.json")):
            (GOLDEN_DIR / report.name).write_text(json.dumps(minus_meta(report), indent=1, sort_keys=True) + "\n")
        (GOLDEN_DIR / "summary.csv").write_bytes((Path(tmp) / "summary.csv").read_bytes())
    CROSSING_DIR.mkdir(exist_ok=True)
    for name, doc in crossing_outputs().items():
        (CROSSING_DIR / f"{name}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
    print(f"wrote {len(list(GOLDEN_DIR.rglob('*.*')))} files to {GOLDEN_DIR}", file=sys.stderr)
