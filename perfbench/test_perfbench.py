"""The benchmark's own test: metric names and units, output checks, trace coverage.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _report(tid: str, verdict: str = "pass") -> dict:
    side = {"name": "s", "estimate": 0.1, "se": 0.01, "bound": 0.2, "slack": 0.1, "verdict": verdict}
    return {"theorem_id": tid, "title": tid, "terms": {"x": {"value": 0.1, "se": 0.01, "n": 100}},
            "sides": [side], "constants": {"c": 1.0}, "verdict": verdict, "slack": 0.1, "se": 0.01,
            "seed": 1, "n": 100, "notes": [], "config_hash": "0123456789abcdef",
            "meta": {"wall_time_s": 0.5}}


def _pass(wall=1.0, ops=(("a", None),)) -> dict:
    return {"wall_s": wall, "cpu_s": wall, "setup_s": 0.5, "peak_rss_mb": 100.0,
            "cal_before_s": [run.CAL_REF_S], "cal_after_s": [run.CAL_REF_S],
            "ops": list(ops), "digests": {"a": "x"}}


def _span(name, parent, start, end, counts=None):
    return [name, parent, start, end, counts]


# a pass shaped like a smoke pass: two threshold calls, the second a cache hit
SPANS = [
    _span("cli.main", -1, 0.0, 10.0),
    _span("cli.run_config", 0, 0.5, 9.0),
    _span("sampler.plan_circulant", 1, 0.5, 1.0),
    _span("kernels.cov_of_offsets", 2, 0.6, 0.8, {"offsets": 4096}),
    _span("mc.verify_sdi3", 1, 1.0, 8.0),
    _span("measures.max_corr", 4, 1.0, 1.5),
    _span("mc.event_thresholds", 4, 1.5, 7.0),
    _span("events.compile_event", 6, 1.5, 1.6),
    _span("sampler.CirculantPlan.draw_batch", 6, 1.6, 3.6, {"rows": 256}),
    _span("events.CompiledEvent.thresholds_batch", 6, 3.6, 6.6, {"kind": "box_crossing", "rows": 256, "sites": 25}),
    _span("mc.event_thresholds", 4, 7.0, 7.5),
    _span("measures.capacity", 1, 8.0, 8.5, {"iterations": 7, "gap": 1e-12, "energy": 0.5}),
]


def test_end_to_end_metrics_named_with_units():
    got = run.end_to_end_metrics([_pass(1.0), _pass(3.0), _pass(2.0)], [0.4, 0.6, 0.5], 33, 0)
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in got.items()} == want
    assert got["wall_s"]["value"] == 2.0
    assert all(v["value"] > 0 for v in got.values())


def test_times_scale_to_the_reference_speed():
    ref = run.CAL_REF_S
    slow = dict(_pass(3.0), cal_before_s=[2 * ref, 2 * ref, 9 * ref], cal_after_s=[2 * ref, 2 * ref])
    got = run.end_to_end_metrics([slow], [0.5], 1, 0)
    assert got["wall_s"]["value"] == pytest.approx(1.5) and got["cpu_s"]["value"] == pytest.approx(1.5)
    assert run.scaled(dict(slow, cal_before_s=[ref / 2], cal_after_s=[ref / 2]), "setup_s") == pytest.approx(1.0)


def test_per_layer_metrics_named_with_units():
    got = run.per_layer_metrics(_pass(2.0), dict(_pass(3.0), spans=SPANS))
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in got.items()} == want
    assert got["trace.overhead_ratio"]["value"] == 1.5


def test_layer_metrics_self_time_and_cache_hits():
    m = spans.layer_metrics(SPANS)
    assert m["mc.thresholds_calls"] == 2 and m["mc.cache_hits"] == 1
    assert m["mc.cache_hit_ratio"] == 0.5
    assert m["mc.thresholds_self_s"] == pytest.approx(0.4 + 0.5)  # 5.5 - 0.1 - 2 - 3, plus the hit
    assert m["mc.verify_self_s"] == pytest.approx(7.0 - 0.5 - 5.5 - 0.5)
    assert m["cli.self_s"] == pytest.approx((10.0 - 8.5) + (8.5 - 0.5 - 7.0 - 0.5))
    assert m["sampler.replicates.circulant"] == 256
    assert m["sampler.us_per_replicate.circulant"] == pytest.approx(2.0 / 256 * 1e6)
    assert m["events.sites.box_crossing"] == 25
    assert m["kernels.offsets"] == 4096
    assert m["measures.capacity_iterations"] == 7
    assert m["measures.capacity_rel_gap_max"] == pytest.approx(2e-12)


def test_predictions_cover_every_layer_metric():
    preds = json.loads((HERE / "predictions.json").read_text())
    named = [name for row in preds["predictions"] for name in row["metrics"]]
    assert sorted(named) == sorted(m["name"] for m in BENCH["per_layer"])
    assert set(preds["workloads"]) == {w["name"] for w in BENCH["workloads"]}


def test_report_checks_accept_good_and_reject_doctored():
    good = {tid: _report(tid) for tid in workloads.SMOKE_IDS}
    assert all(f is None for _, f in workloads.check_smoke(0, good))

    failed = dict(good, **{"thm1.10": _report("thm1.10", "fail")})
    bad = [op for op, f in workloads.check_smoke(0, failed) if f]
    assert bad == ["thm1.10"]

    broken = copy.deepcopy(good)
    del broken["pa"]["sides"][0]["verdict"]
    assert [op for op, f in workloads.check_smoke(0, broken) if f] == ["pa"]

    missing = {k: v for k, v in good.items() if k != "cor2.7"}
    assert [op for op, f in workloads.check_smoke(0, missing) if f] == ["cor2.7"]
    assert [op for op, f in workloads.check_smoke(2, good) if f] == ["exit-code"]

    raised = dict(good, hoeffding="ParameterError: integration box too small")
    assert [op for op, f in workloads.check_reports(raised, workloads.DENSE_IDS) if f] == ["hoeffding"]


def _crossing(ests, mono=True):
    out = {f"ell={ell:g}": {"estimate": e, "se": 0.01, "ell": ell}
           for ell, e in zip(workloads.CROSSING_LEVELS, ests)}
    out["one-arm"] = {"rows": [[4, 0.3, 0.01], [8, 0.2, 0.01], [16, 0.1, 0.01]], "monotone_in_R": mono}
    return out


def test_crossing_checks_reject_doctored():
    ok = _crossing([0.3, 0.4, 0.5, 0.6, 0.7])
    assert all(f is None for _, f in workloads.check_crossing(ok))
    non_monotone = _crossing([0.3, 0.45, 0.5, 0.48, 0.7])
    assert [op for op, f in workloads.check_crossing(non_monotone) if f] == ["ell=0.1"]
    off_centre = _crossing([0.6, 0.65, 0.7, 0.75, 0.8])
    assert [op for op, f in workloads.check_crossing(off_centre) if f] == ["ell=0"]
    assert [op for op, f in workloads.check_crossing(_crossing([0.3, 0.4, 0.5, 0.6, 0.7], mono=False)) if f] \
        == ["one-arm"]


def _solver_outputs():
    cap = {"value": 2.0, "energy": 0.5, "gap": 1e-13, "tol": 1e-12, "iterations": 3, "converged": True}
    out = {name: {"shape": [3, 3], "trace": 3.0} for name in workloads.SOLVER_OPS if name.startswith("cov:")}
    for name in workloads.SOLVER_OPS:
        if name.startswith("capacity:"):
            out[name] = dict(cap)
    out["capacity:identity"].update(value=7.0, m=7, energy=1 / 7)
    out["capacity:two_point"].update(value=2.0 / 1.5, r=0.5, energy=0.75)
    out["max_corr"] = {"rho": 0.3}
    out["bound_chain"] = {"passed": True, "rho": 0.3, "checks": [["rho<=1", 0.3, 1.0, True]]}
    out["bvn"] = {"rows": [[0.5, 0.1, 0.2, 0.4, 0.4, 0.3, [0, 0, 0]], [0.0, 0.1, 0.2, 0.3, 0.3, 0.3, [0, 0, 0]]]}
    out["recursion"] = {"verdict": True, "q": [1e-3] + [1e-12] * 24, "ell_inf_lower": -2.0,
                        "log_R0": 10.0, "p1": 1e-3}
    return out


@pytest.mark.parametrize("op, doctor", [
    ("capacity:identity", lambda r: r.update(value=6.5)),
    ("capacity:two_point", lambda r: r.update(value=1.4)),
    ("capacity:ball4", lambda r: r.update(gap=1e-3)),
    ("bound_chain", lambda r: r["checks"][0].__setitem__(3, False)),
    ("bvn", lambda r: r["rows"][0].__setitem__(4, 0.41)),
    ("bvn", lambda r: r["rows"][1].__setitem__(3, 0.31)),
    ("recursion", lambda r: r.update(q=[1e-3] * 25)),
    ("recursion", lambda r: r.update(verdict=False)),
])
def test_solver_checks_reject_doctored(op, doctor):
    out = _solver_outputs()
    assert all(f is None for _, f in workloads.check_solvers(out))
    doctor(out[op])
    assert [name for name, f in workloads.check_solvers(out) if f] == [op]


def test_digest_mismatch_counts_as_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "STATE", tmp_path)
    a, b = _pass(), _pass()
    b["digests"] = {"a": "y"}
    assert run.check_determinism("crossing", 7, [a, a]) == []
    mismatches = run.check_determinism("crossing", 7, [b])  # against the stored digests
    assert len(mismatches) == 1
    assert run.count_ops([b], mismatches)[:2] == (1, 1)
    assert run.error_rate(1, 1) > run.error_rate(1, 0) > 0


def test_tracer_wraps_every_binding_and_records_cache_hits():
    sys.path.insert(0, str(ROOT / "src"))
    from sdlab import bootstrap, cli, kernels, mc, sampler

    tracer = spans.Tracer()
    tracer.install()
    for layer, name in spans.REQUIRED_BINDINGS:
        assert hasattr(getattr(sys.modules[f"sdlab.{layer}"], name), "__traced__")
    assert cli.plan_circulant is sampler.plan_circulant is bootstrap.plan_circulant
    with mc._CACHE_LOCK:
        mc._CACHE.clear()
    tracer.enabled = True
    try:
        for ell in (0.0, 0.5):
            bootstrap.estimate_crossing(kernels.bargmann_fock(2), 0.5, ell, 8.0, "hcross", 64, 3, aspect=1.0)
    finally:
        tracer.enabled = False
    m = spans.layer_metrics(tracer.spans)
    assert m["mc.thresholds_calls"] == 2 and m["mc.cache_hits"] == 1
    assert m["sampler.replicates.circulant"] == 64
    assert m["events.replicates.box_crossing"] == 64 and m["events.sites.box_crossing"] == 256
    with pytest.raises(RuntimeError, match="never reached"):
        tracer.check_expected("solvers")


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
