import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdlab import analytic, bootstrap, cli, events, kernels, mc, sampler
from sdlab.errors import SdlabError

import golden
import oracles


def run(argv):
    return cli.main(argv)


def clear_cache():
    with mc._CACHE_LOCK:
        mc._CACHE.clear()
    sampler._BANK.clear()


def test_config_roundtrip_exact():
    cfg = cli.default_config("thm1.1", 12345, 9, 2)
    back = cli.ExperimentConfig.from_json(cfg.to_json())
    assert back == cfg
    assert back.hash == cfg.hash


def test_default_config_unknown_id():
    with pytest.raises(cli.SdlabError, match="valid ids"):
        cli.default_config("thm9.9", 10, 0, 1)


def test_verify_iid_exit_zero(tmp_path, capsys):
    code = run(["verify", "thm1.1", "--out", str(tmp_path), "-n", "4000", "--seed", "7"])
    assert code == 0
    out = capsys.readouterr().out
    assert "thm1.1" in out
    files = list(tmp_path.glob("thm1_1_*.json"))
    assert len(files) == 1
    report = json.loads(files[0].read_text())
    assert report["verdict"] in ("pass", "pass-within-noise")
    assert "config_hash" in report


def test_verify_reports_are_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    clear_cache()
    assert run(["verify", "thm1.1", "--out", str(a), "-n", "2000", "--seed", "3"]) == 0
    clear_cache()
    assert run(["verify", "thm1.1", "--out", str(b), "-n", "2000", "--seed", "3",
                "--workers", "4"]) == 0
    ra = json.loads(next(a.glob("*.json")).read_text())
    rb = json.loads(next(b.glob("*.json")).read_text())
    ra.pop("meta"), rb.pop("meta")
    assert ra == rb


def test_verify_from_config_file(tmp_path):
    cfg = cli.default_config("pa", 3000, 5, 1)
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    assert run(["verify", "--config", str(path), "--out", str(tmp_path)]) == 0


def test_verify_hoeffding_at_variance_9(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_malformed("hoeffding", n=2000, model={
        "family": "explicit", "matrix": [[9.0, 9.0], [9.0, 9.0]]})))
    assert run(["verify", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert "hoeffding: pass" in capsys.readouterr().out


def test_verify_hoeffding_on_a_zero_variance_site(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_malformed("hoeffding", n=2000, model={
        "family": "explicit", "matrix": [[0.0, 0.0], [0.0, 1.0]]})))
    assert run(["verify", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert "hoeffding: pass" in capsys.readouterr().out


def test_verify_all_summary(tmp_path):
    code = run(["verify-all", "--out", str(tmp_path), "-n", "1500", "--seed", "11"])
    assert code == 0
    lines = (tmp_path / "summary.csv").read_text().strip().splitlines()
    assert lines[0] == "theorem_id,slack,se,verdict"
    assert len(lines) == 1 + len(cli.THEOREM_IDS)
    assert not any(",fail" in ln for ln in lines[1:])


def _report_minus_meta(path):
    doc = json.loads(path.read_text())
    doc.pop("meta")
    return json.dumps(doc, sort_keys=True)


def test_verify_all_and_suite_write_identical_reports(tmp_path, capsys):
    clear_cache()
    assert run(["verify-all", "-n", "10000", "--seed", "3", "--out", str(tmp_path / "all")]) == 0
    clear_cache()
    assert run(["suite", "smoke", "--seed", "3", "--out", str(tmp_path / "suite")]) == 0
    out = capsys.readouterr().out
    for tid in cli.THEOREM_IDS:
        name = f"{tid.replace('.', '_')}.json"
        assert _report_minus_meta(tmp_path / "all" / name) == _report_minus_meta(tmp_path / "suite" / name)
    summary = (tmp_path / "all" / "summary.csv").read_bytes()
    assert summary == (tmp_path / "suite" / "suite_smoke.csv").read_bytes()
    assert out.count("\ninterp,") == 2
    assert golden.mismatches(tmp_path / "all") == []  # regenerate: PYTHONPATH=src python tests/golden.py


DENSE_IDS = tuple(tid for tid, spec in cli.THEOREMS.items() if "grid" not in spec.defaults)


def test_cold_single_verifies_match_a_warm_verify_all(tmp_path):
    """Sharing noise across dense plans changes no report: each dense id verified alone
    from cold caches matches its report from one verify-all.  The verify-all runs on the
    noise bank the last single run left; that run, cor2.6, plans one site, so the suite's
    wider plans ask the bank for more columns than its blocks hold."""
    singles = {}
    for tid in sorted(DENSE_IDS, key=lambda t: t == "cor2.6"):
        clear_cache()
        assert run(["verify", tid, "-n", "2000", "--seed", "4", "--out", str(tmp_path / tid)]) == 0
        (path,) = (tmp_path / tid).glob("*.json")
        singles[tid] = _report_minus_meta(path)
    with mc._CACHE_LOCK:
        mc._CACHE.clear()
    assert run(["verify-all", "-n", "2000", "--seed", "4", "--out", str(tmp_path / "all")]) == 0
    for tid in DENSE_IDS:
        assert _report_minus_meta(tmp_path / "all" / f"{tid.replace('.', '_')}.json") == singles[tid], tid


def test_registry_covers_every_theorem():
    assert cli.THEOREM_IDS == tuple(cli.THEOREMS)
    for tid, spec in cli.THEOREMS.items():
        assert spec.title and spec.title != tid
        config = cli.default_config(tid, 200, 1, 1)
        assert len(config.events) >= spec.n_events
        rep = cli.run_config(config)
        assert rep.theorem_id == tid
        assert json.loads(cli._report_json(rep, config))["title"] == spec.title


def test_interp_desk_instance_runs_the_max_case():
    rep = cli.run_config(cli.default_config("interp", 2000, 0, 1))
    assert [s.name for s in rep.sides] == ["case0:linear-linear", "case1:linear-linear", "case2:max-linear"]


def _malformed(tid, **changes):
    d = json.loads(cli.default_config(tid, 500, 0, 1).to_json())
    d.update(changes)
    return d


@pytest.mark.parametrize("doc, message", [
    (_malformed("thm1.1", n=1), "n must be"),
    (_malformed("thm1.1", n=2.5), "n must be"),
    (_malformed("thm1.1", bogus=1), "valid keys: theorem, model, grid"),
    (_malformed("thm1.1", events=[]), "reads 2 events"),
    (_malformed("cor2.6", events=[]), "reads 1 events"),
    (_malformed("thm1.1", eps=[]), "eps"),
    (_malformed("thm1.1", eps=0.5), "lists"),
    (_malformed("thm1.1", theorem="thm9.9"), "valid ids"),
    (_malformed("prop1.8", grid=None), "needs a grid"),
    (_malformed("thm1.10", grid={"spacing": 0.5}), "shape"),
    (_malformed("pa", model={"family": "explicit"}), "square matrix"),
    (_malformed("pa", model={"family": "explicit", "matrix": [[1.0], [1.0, 2.0]]}), "must be numbers"),
    (_malformed("pa", model={"family": "nope"}), "unknown model family"),
    (_malformed("thm1.1", model={"family": "iid", "d": "x"}), "must be numbers"),
    (_malformed("thm1.1", model="iid"), "JSON object"),
    (_malformed("thm1.1", events=[{"kind": "all_above"}]), "sites"),
    (_malformed("thm1.1", events=[{"kind": "ring"}, {"kind": "ring"}]), "unknown event kind"),
    ({"n": 100}, "valid keys"),
    ([1, 2], "valid keys"),
    ("not json", "not valid JSON"),
    (_malformed("thm1.10", grid={"shape": [24.5, 24], "spacing": 0.5}), "positive integers"),
    (_malformed("thm1.10", grid={"shape": "24", "spacing": 0.5}), "positive integers"),
    (_malformed("thm1.10", grid={"shape": [0, 24], "spacing": 0.5}), "positive integers"),
    (_malformed("thm1.10", grid={"shape": [24, 24], "spacing": "x"}), "spacing"),
    (_malformed("thm1.10", grid={"shape": [24, 24], "spacing": -0.5}), "spacing"),
    (_malformed("prop1.8", grid={"shape": [24, 24], "spacing": -0.5}), "spacing"),
    (_malformed("thm1.10", grid={"shape": [24, 24], "origin": [0]}), "origin"),
    # an event site outside the matrix ended in KeyError: (2,) from DensePlan.cov_block
    (_malformed("thm1.1", model={"family": "explicit", "matrix": [[1.0, 0.5], [0.5, 1.0]]}),
     "sample does not cover support site (2,)"),
    # a NaN kernel parameter passed the model and gave fail (slack=nan, se=0), exit 2
    (_malformed("prop1.8", n=2000, seed=1, model={"family": "cauchy", "d": 2, "alpha": float("nan")}),
     "cauchy requires a finite alpha > 0, got nan"),
    (_malformed("prop2.2", n=2000, seed=1, grid={"shape": [16]}, events=[cli._above([0]), cli._above([8])],
                model={"family": "polylog", "d": 1, "gamma": float("nan")}),
     "polylog_decay requires a finite gamma > 0, got nan"),
    # a malformed scalar ended in a traceback, and a fractional seed ran as its floor
    (_malformed("thm1.1", n=2000, seed="x"), "seed must be an integer, got 'x'"),
    (_malformed("thm1.1", n=2000, seed=None), "seed must be an integer, got None"),
    (_malformed("thm1.1", n=2000, seed=1.5), "seed must be an integer, got 1.5"),
    (_malformed("prop1.8", n=2000, seed=1.5), "seed must be an integer, got 1.5"),
    (_malformed("thm1.1", n=2000, workers="2"), "workers must be an integer"),
    (_malformed("thm1.10", n=2000, delta1="0.5"), "got 1, '0.5', 0.25 and 1.5"),
    (_malformed("thm1.1", n=2000, eps=["0.5"]), "all numbers, got ['0.5']"),
    (_malformed("prop1.8", n=2000, radius="2"), "got 1, 0.5, 0.25 and '2'"),
])
def test_malformed_config_is_a_config_error(tmp_path, capsys, doc, message):
    path = tmp_path / "cfg.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert run(["verify", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*_*.json"))


def test_thm1_1_sprinkles_below_the_float_range_keep_a_zero_bound(tmp_path):
    # eps1 eps2 underflows to 0 at eps = 1e-200 while kappa = 0, and 0 / 0 ended in ZeroDivisionError
    reports = []
    for eps in ("1e-200", "1e-160"):
        assert run(["verify", "thm1.1", "-n", "2000", "--eps", eps, "--out", str(tmp_path / eps)]) == 0
        reports.append(json.loads(next((tmp_path / eps).glob("*.json")).read_text()))
    tiny, small = reports
    assert tiny["constants"]["bound_up"] == 0.0 and tiny["verdict"] == small["verdict"] == mc.VERDICT_NOISE
    assert (tiny["slack"], tiny["se"], tiny["sides"]) == (small["slack"], small["se"], small["sides"])


@pytest.mark.parametrize("argv", [["prop1.8"], ["thm1.7", "--model", "bf", "--d", "1"], ["cor2.6"]],
                         ids=["prop1.8", "thm1.7-bf", "cor2.6"])
def test_a_sprinkle_past_the_float_range_bounds_by_zero(tmp_path, argv):
    # eps**2 at eps = 1e200 ended prop1.8 and thm1.7 in OverflowError, and cor2.6's
    # density ratio overflowed with a RuntimeWarning
    assert run(["verify", *argv, "-n", "2000", "--eps", "1e200", "--out", str(tmp_path)]) == 0
    rep = json.loads(next(tmp_path.glob("*.json")).read_text())
    assert rep["verdict"] == mc.VERDICT_PASS
    assert rep["constants"].get("bound", 0.0) == 0.0


@pytest.mark.parametrize("matrix, eps", [([[8e307, 4e307], [4e307, 8e307]], 0.5), ([[1.0, 0.5], [0.5, 1.0]], 1e-200)],
                         ids=["bound-overflows", "sprinkles-underflow"])
def test_thm1_1_bound_past_the_float_range_is_an_error(tmp_path, capsys, matrix, eps):
    # c kappa / (eps1 eps2) overflowed to inf and read pass (slack=inf) with bound null,
    # or eps1 eps2 underflowed to 0 beside kappa > 0 and ended in ZeroDivisionError
    doc = _malformed("thm1.1", n=2000, seed=1, eps=[eps], model={"family": "explicit", "matrix": matrix},
                     events=[cli._above([0]), cli._above([1])])
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    assert run(["verify", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a side has slack inf") and "not finite" in err


@pytest.mark.parametrize("argv, message", [
    (["verify", "thm1.1", "--eps", "x", "-n", "100"], "--eps"),
    (["verify", "--config", "missing.json"], "cannot read config"),
    (["verify"], "verify needs a theorem id or --config"),
])
def test_bad_verify_arguments_are_config_errors(tmp_path, capsys, argv, message):
    assert run(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_verify_theorem_choices_omit_none(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "thm9.9"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'thm9.9'" in err and "'thm1.1'" in err and "None" not in err
    with pytest.raises(SystemExit):
        run(["verify", "--help"])
    out = capsys.readouterr().out
    assert "thm1.1" in out and "None" not in out


def _case(argv, message, key=None):
    """A malformed-option case whose id is its argv (or the key it was first named by) and its
    message, never its place in the table: a row can sit beside the rows it belongs with, and
    no other case is renamed.  The keys argv0 to argv69 are the positional names those rows had."""
    return pytest.param(argv, message, id=f"{key or ' '.join(argv)}-{message}")


@pytest.mark.parametrize("argv, message", [
    _case(["sample", "--shape", "3,x"], "--shape must be comma-separated int", "argv0"),
    _case(["sample", "--shape", "0,4"], "positive integers", "argv1"),
    _case(["sample", "--model", "{bad"], "--model", "argv2"),
    _case(["capacity", "--matrix", "{m}", "--set", "0,x"], "--set", "argv3"),
    _case(["maxcorr", "--matrix", "{m}", "--i1", "0,x", "--i2", "1"], "--i1", "argv4"),
    _case(["bootstrap", "decay-table", "--Rs", "8,x"], "--Rs", "argv5"),
    _case(["bootstrap", "run-recursion", "--g", "polylog"], "polylog:3.5", "argv6"),
    _case(["bootstrap", "run-recursion", "--g", "stretched"], "polylog:3.5", "argv7"),
    _case(["bootstrap", "run-recursion", "--g", "polylog:x"], "polylog:3.5", "argv8"),
    _case(["capacity", "--matrix", "{m}", "--set", "0,-1"], "lie in [0, 2)", "argv9"),
    _case(["capacity", "--matrix", "{m}", "--set", "0,2"], "lie in [0, 2)", "argv10"),
    _case(["maxcorr", "--matrix", "{m}", "--i1", "0", "--i2", "-1"], "lie in [0, 2)", "argv11"),
    _case(["maxcorr", "--matrix", "{m}", "--i1", "5", "--i2", "1"], "lie in [0, 2)", "argv12"),
    _case(["capacity", "--matrix", "{wide}"], "got shape (2, 3)", "argv13"),
    _case(["maxcorr", "--matrix", "{wide}", "--i1", "0", "--i2", "1"], "got shape (2, 3)", "argv14"),
    _case(["capacity", "--matrix", "{nan}"], "finite, square and nonempty, got shape (2, 2)", "argv15"),
    _case(["capacity", "--matrix", "{missing}"], "--matrix", "argv16"),
    _case(["maxcorr", "--matrix", "{text}", "--i1", "0", "--i2", "1"], "--matrix", "argv17"),
    _case(["bootstrap", "crossing", "-n", "0", "--R", "8"], "n must be an integer >= 2", "argv18"),
    _case(["bootstrap", "crossing", "-n", "1", "--R", "8"], "n must be an integer >= 2", "argv19"),
    _case(["bootstrap", "crossing", "-n", "-3", "--R", "8"], "n must be an integer >= 2", "argv20"),
    _case(["bootstrap", "decay-table", "-n", "0"], "n must be an integer >= 2", "argv21"),
    _case(["bootstrap", "decay-table", "-n", "1"], "n must be an integer >= 2", "argv22"),
    _case(["capacity", "--matrix", "{empty}"], "--matrix", "argv23"),
    _case(["sample", "--shape", "4,4", "--replicate", "-1"], "replicate", "argv24"),
    _case(["sample", "--shape", "4,4", "--replicate", str(2**64)], "replicate", "argv25"),
    _case(["bootstrap", "run-recursion", "--n-d", "-3"], "n_d must be an integer >= 1", "argv26"),
    _case(["bootstrap", "run-recursion", "--n-d", "0"], "n_d must be an integer >= 1", "argv27"),
    _case(["bootstrap", "run-recursion", "--n-d", "0", "--R0", "100"], "n_d must be an integer >= 1", "argv28"),
    _case(["bootstrap", "run-recursion", "--c", "-1"], "c must be finite and positive", "argv29"),
    _case(["bootstrap", "run-recursion", "--R0", "-5"], "R0 must exceed 1", "argv30"),
    _case(["bootstrap", "run-recursion", "--R0", "1e400"], "log R0 must be finite and positive", "argv31"),
    _case(["bootstrap", "run-recursion", "--log-R0", "1e400"], "log R0 must be finite and positive", "argv32"),
    _case(["bootstrap", "run-recursion", "--log-R0", "-1"], "log R0 must be finite and positive", "argv33"),
    _case(["bootstrap", "schedule", "--R0", "1e400"], "log R0 must be finite and positive", "argv34"),
    _case(["bootstrap", "run-recursion", "--n-steps", "0"], "n_steps must be an integer >= 1", "argv35"),
    _case(["bootstrap", "schedule", "--n-max", "0"], "n_max must be an integer >= 1", "argv36"),
    _case(["bootstrap", "schedule", "--n-max", "-2"], "n_max must be an integer >= 1", "argv37"),
    _case(["bootstrap", "run-recursion", "--g", "polylog:3.5,0"], "decay constant c must be positive", "argv38"),
    _case(["bootstrap", "run-recursion", "--g", "polylog:3.5,-1"], "decay constant c must be positive", "argv39"),
    _case(["bootstrap", "run-recursion", "--g", "polylog:3.5,1,2"], "one or two numbers", "argv40"),
    _case(["bootstrap", "run-recursion", "--g", "polylog:nan"], "decay parameters must be finite", "argv41"),
    _case(["bootstrap", "run-recursion", "--delta", "nan"], "delta must be positive", "argv42"),
    _case(["bootstrap", "schedule", "--R0", "10", "--delta", "nan"], "delta must be positive", "argv43"),
    _case(["bootstrap", "schedule", "--R0", "10", "--ell-prime", "nan"], "ell' must be finite", "argv44"),
    _case(["maxcorr", "--matrix", "{m}", "--i1", "0", "--i2", "1", "--ridge", "nan"], "ridge must be finite and >= 0", "argv45"),
    _case(["maxcorr", "--matrix", "{m}", "--i1", "0", "--i2", "1", "--ridge", "inf"], "ridge must be finite and >= 0", "argv46"),
    _case(["capacity", "--d", "3", "--ball", "1", "--tol", "nan"], "tol must be finite and positive", "argv47"),
    _case(["capacity", "--d", "3", "--ball", "1", "--tol", "inf"], "tol must be finite and positive", "argv48"),
    _case(["negbound", "--u-step", "0"], "--u-step must be finite and > 0", "argv49"),
    _case(["negbound", "--u-max", "nan"], "--u-max finite", "argv50"),
    _case(["negbound", "--u-step", "inf"], "--u-step must be finite and > 0", "argv51"),
    _case(["negbound", "--u-step", "-1"], "--u-step must be finite and > 0", "argv52"),
    _case(["negbound", "--u-max", "0.5"], "got 1.0 and 0.5", "argv53"),
    _case(["bootstrap", "crossing", "--R", "nan"], "R must be finite, got nan", "argv54"),
    _case(["bootstrap", "crossing", "--R", "inf"], "R must be finite, got inf", "argv55"),
    _case(["bootstrap", "crossing", "--spacing", "nan"], "spacing must be finite and > 0", "argv56"),
    _case(["bootstrap", "crossing", "--spacing", "inf"], "spacing must be finite and > 0", "argv57"),
    _case(["bootstrap", "crossing", "--spacing", "0"], "spacing must be finite and > 0", "argv58"),
    _case(["bootstrap", "crossing", "--aspect", "inf"], "aspect must be finite", "argv59"),
    _case(["bootstrap", "crossing", "--aspect", "nan"], "aspect must be finite", "argv60"),
    # more sites than sampler.MAX_SITES: an InputError before any site is built, not a
    # MemoryError traceback or a process that grows until it is killed
    _case(["bootstrap", "crossing", "--aspect", "1e6", "-n", "64"], "crossing box spans 4096000000 sites"),
    _case(["bootstrap", "crossing", "--kind", "annulus", "--R", "1e7", "-n", "64"], "ball of radius 40000000 spans"),
    _case(["bootstrap", "decay-table", "--Rs", "1e7", "-n", "64"], "ball of radius 10000000 spans"),
    _case(["capacity", "--ball", "1e6"], "ball of radius 1000000.0 spans"),
    _case(["sample", "--shape", "100000,100000"], "grid spans 10000000000 sites"),
    _case(["bootstrap", "crossing", "--ell", "nan"], "ell must be finite", "argv61"),
    _case(["bootstrap", "decay-table", "--Rs", "8,nan"], "R must be finite, got nan", "argv62"),
    _case(["bootstrap", "decay-table", "--Rs", "inf"], "R must be finite, got inf", "argv63"),
    _case(["bootstrap", "decay-table", "--spacing", "nan"], "spacing must be finite and > 0", "argv64"),
    _case(["bootstrap", "decay-table", "--ell", "nan"], "ell must be finite", "argv65"),
    # a crossing box shorter than two sites, which was once raised to two in silence
    _case(["bootstrap", "crossing", "--aspect", "-1", "-n", "64"], "box too short", "argv66"),
    _case(["bootstrap", "crossing", "--aspect", "0", "-n", "64"], "box too short", "argv67"),
    _case(["bootstrap", "crossing", "--aspect", "0.01", "-n", "64"], "box too short", "argv68"),
    _case(["bootstrap", "crossing", "--kind", "vcross", "--aspect", "0.01", "-n", "64"], "box too short", "argv69"),
    # dense matrices and tables past their caps: a typed error before the first allocation
    _case(["capacity", "--ball", "40"], "267761 points has 71695953121 entries, more than MAX_COV_ENTRIES"),
    _case(["negbound", "--u-max", "1e12", "--u-step", "1e-3"], "makes more rows than MAX_SITES = 16777216"),
    _case(["bootstrap", "schedule", "--R0", "10", "--n-max", "1000000000000"], "n_max must be at most 16777216"),
    _case(["bootstrap", "run-recursion", "--n-steps", "1000000000000"], "n_steps must be at most 16777216"),
    # two maxcorr balls that share sites, once "points must be distinct"
    _case(["maxcorr", "--ball", "30"], "--dist 12 must exceed 60, the width of the --ball 30.0"),
    _case(["maxcorr", "--ball", "6"], "--dist 12 must exceed 12"),
    _case(["maxcorr", "--ball", "2", "--dist", "-4"], "--dist -4 must exceed 4"),
    # a subnormal delta: delta/2 * log 5 is so small that the schedule's tail bound overflows
    _case(["bootstrap", "schedule", "--R0", "10", "--delta", "5e-324"], "delta = 5e-324 is too small",
          "schedule-subnormal-delta"),
])
@pytest.mark.filterwarnings("error")
def test_malformed_option_values_exit_1(tmp_path, capsys, argv, message):
    files = {"m": "k.csv", "wide": "wide.csv", "nan": "nan.csv", "text": "text.csv", "empty": "empty.csv"}
    np.savetxt(tmp_path / "k.csv", np.eye(2), delimiter=",")
    np.savetxt(tmp_path / "wide.csv", np.eye(2, 3), delimiter=",")
    (tmp_path / "nan.csv").write_text("1,nan\nnan,1\n")
    (tmp_path / "text.csv").write_text("1,a\n0,1\n")
    (tmp_path / "empty.csv").write_text("")
    paths = {f"{{{k}}}": str(tmp_path / v) for k, v in files.items()}
    paths["{missing}"] = str(tmp_path / "missing.csv")
    assert run([paths.get(a, a) for a in argv] + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Warning" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files.values())


@pytest.mark.parametrize("level", [None, "x", float("nan"), float("inf"), True])
def test_pa_event_level_must_be_a_finite_real(tmp_path, capsys, level):
    # null ended in a TypeError traceback, "x" in a numpy _UFuncNoLoopError, NaN reported pass
    ev = {"kind": "all_above", "sites": [[0]], "level": level}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_malformed("pa", events=[ev, {**ev, "sites": [[1]]}])))
    assert run(["verify", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "level must be a finite real number" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*_*.json"))


@pytest.mark.parametrize("argv, message", [
    (["thm1.1", "--eps", "nan"], "sprinkling parameters must be positive"),
    (["prop1.8", "--eps", "nan"], "eps must be positive"),
    (["thm1.7", "--eps", "nan"], "eps must be positive"),
    (["cor2.6", "--eps", "nan"], "eps must be nonnegative"),
])
def test_nan_sprinkle_exits_1(tmp_path, capsys, argv, message):
    # thm1.1, prop1.8 and cor2.6 failed at NaN slack and thm1.7 gave a verdict
    assert run(["verify", *argv, "-n", "200", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not list(tmp_path.iterdir())


def test_prop1_8_nan_radius_config_exits_1(tmp_path, capsys):
    # a NaN radius passed `radius < spacing` and prop1.8 passed with slack 66.8
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_malformed("prop1.8", radius=float("nan"))))
    assert run(["verify", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert "truncation radius nan is not at least one grid cell" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_*.json"))


def test_maxcorr_gates_the_matrix_like_capacity(tmp_path, capsys):
    # maxcorr printed rho 1.0 and exited 0 on a matrix that capacity refused
    path = tmp_path / "k.csv"
    np.savetxt(path, [[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]], delimiter=",")
    for argv in (["capacity"], ["maxcorr", "--i1", "0", "--i2", "1,2"]):
        assert run([*argv, "--matrix", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: covariance matrix is not PSD")


def test_non_finite_explicit_config_exits_1(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_malformed("cor2.6", model={"family": "explicit", "matrix": [[float("inf")]]})))
    assert "[[Infinity]]" in path.read_text()
    assert run(["verify", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: covariance matrix must be finite")
    assert not list(tmp_path.glob("*_*.json"))


def test_explicit_config_near_the_float_limit_is_verified(tmp_path, capsys):
    # symmetrizing as 0.5 * (m + m.T) overflowed this finite matrix to inf: "must be finite", exit 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_malformed("cor2.6", n=2000, model={"family": "explicit", "matrix": [[1.7e308]]})))
    assert run(["verify", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert "cor2.6: pass" in capsys.readouterr().out


@pytest.mark.parametrize("tid", ["prop2.2", "hoeffding", "interp"])
def test_dense_ids_near_the_float_limit_give_a_finite_verdict(tmp_path, capsys, tid):
    # the product of two threshold deviations overflowed: each printed fail (slack=nan, se=nan), exit 2
    huge = {"family": "explicit", "matrix": [[8e307, 0.0], [0.0, 8e307]]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_malformed(tid, n=2000, seed=1, model=huge)))
    assert run(["verify", "--config", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads(next(tmp_path.glob("*_*.json")).read_text())
    assert all(s["slack"] is not None and s["se"] is not None for s in report["sides"])


def test_verify_gff_on_one_dimensional_sites_exits_1(tmp_path, capsys):
    # the desk sites of thm1.1 are 1-d; G_3 of a 1-d offset is no covariance of the model
    assert run(["verify", "thm1.1", "--model", "gff", "--d", "3", "-n", "200", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: gff offsets must have 3 coordinates, got 1")
    assert not list(tmp_path.iterdir())


def test_run_config_raises_config_error():
    cfg = cli.default_config("thm1.7", 500, 0, 1)
    with pytest.raises(cli.ConfigError, match="n must be"):
        cli.run_config(cli.ExperimentConfig.from_json(cfg.to_json().replace('"n": 500', '"n": 1')))
    with pytest.raises(cli.ConfigError, match="valid ids"):
        cli.default_config("thm9.9", 10, 0, 1)


def test_polylog_model_takes_gamma_only():
    # the constant c changed no covariance; a spec that names it is refused
    assert cli.build_model({"family": "polylog", "gamma": 2.5, "d": 1}) == kernels.polylog_decay(2.5, 1)
    with pytest.raises(cli.ConfigError, match="gamma only"):
        cli.build_model({"family": "polylog", "c": 2.0, "gamma": 2.5})


def test_bvn_subcommand(capsys):
    assert run(["bvn", "0.5", "0", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cdf"] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_bvn_nan_level_exits_1(capsys):
    assert run(["bvn", "0.5", "nan", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: levels u and v must not be nan") and not captured.out


@pytest.mark.parametrize("argv", [["0.9999999", "1", "1"], ["-0.9999999", "1", "-1"], ["0.5", "1e200", "1e200"]])
def test_bvn_prints_strict_json_without_warnings(argv, capsys):
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["bvn", *argv]) == 0
    out = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert 0.0 <= out["cdf"] <= 1.0


@pytest.mark.parametrize("command", ["schedule", "run-recursion"])
def test_tiny_delta_sprinkle_schedule_prints_strict_json(command, tmp_path, capsys):
    # delta/2 was taken as (1 + delta/2) - 1, which is 0 for delta <= 2.2e-16: a ZeroDivisionError
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    argv = ["bootstrap", command, "--delta", "1e-300", "--out", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + (["--R0", "10"] if command == "schedule" else [])) == 0
    (line,) = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("{")]
    out = json.loads(line, parse_constant=reject)
    assert math.isfinite(out["ell_inf_lower"]) and out["ell_inf_lower"] < -1e299


@pytest.mark.parametrize("exc", [MemoryError, lambda: np.empty((2**29, 2**29))], ids=["bare", "numpy"])
def test_out_of_memory_is_one_error_line(exc, monkeypatch, tmp_path, capsys):
    # an input under the size caps can still need more memory than the process has: capacity
    # --ball 13 and negbound --u-max 16777216 --u-step 1 ended in a MemoryError traceback
    def build(*args, **kwargs):
        raise exc()  # the numpy case raises while it allocates

    monkeypatch.setattr(kernels, "build_cov_matrix", build)
    assert run(["capacity", "--ball", "2", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1 and "Traceback" not in err


def test_import_and_bvn_load_no_scipy_integrate_optimize_or_sparse():
    # scipy.integrate would pull in scipy.optimize, scipy.sparse and scipy.spatial: about 0.15 s
    # of each process's set-up
    code = ("import sys, sdlab, sdlab.cli\n"
            "assert sdlab.cli.main(['bvn', '0.5', '0.3', '-0.2']) == 0\n"
            "print(' '.join(m for m in sys.modules if m.split('.')[:2] in "
            "(['scipy', 'integrate'], ['scipy', 'optimize'], ['scipy', 'sparse'])))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    *_, loaded = done.stdout.splitlines()
    assert loaded == ""


def test_negbound_csv(tmp_path, capsys):
    assert run(["negbound", "--kappa", "0.3", "--u-max", "10", "--file", "nb.csv",
                "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "nb.csv").read_text().strip().splitlines()
    assert lines[0] == "u,r,exponent"
    assert len(lines) == 11
    last = lines[-1].split(",")
    assert float(last[2]) == pytest.approx(5.941477610288, abs=1e-9)


def test_negbound_without_file_writes_the_csv_to_stdout(tmp_path, capsys):
    argv = ["negbound", "--kappa", "0.3", "--u-max", "10"]
    assert run([*argv, "--file", "nb.csv", "--out", str(tmp_path / "file")]) == 0
    capsys.readouterr()
    assert run([*argv, "--out", str(tmp_path / "stdout")]) == 0
    assert capsys.readouterr().out == (tmp_path / "file" / "nb.csv").read_text()
    assert not (tmp_path / "stdout").exists()


def test_negbound_writes_the_bytes_of_the_whole_table_a_chunk_at_a_time(tmp_path, capsys):
    # 10,000 rows are three chunks of rows, the last one ragged; the bytes are those of the
    # table joined as one string, as the CSV was written before
    argv = ["negbound", "--kappa", "0.3", "--u-max", "40", "--u-step", "0.004"]
    table = analytic.neg_bound_scan(0.3, np.arange(0.004, 40 + 1e-12, 0.004))
    want = "u,r,exponent\n" + "".join(f"{u:.6g},{r:.17g},{ex:.12g}\n" for u, r, ex in table.rows())
    assert len(table.u) == 10_000
    assert run([*argv, "--file", "nb.csv", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "nb.csv").read_bytes() == want.encode()
    capsys.readouterr()
    assert run(argv) == 0
    assert capsys.readouterr().out == want


def test_negbound_ends_at_u_max_where_1e_12_is_under_half_its_float_spacing(capsys):
    # above about 9,000 a fixed guard of 1e-12 left u_max out: the table ended at 16383
    assert run(["negbound", "--u-max", "16384", "--u-step", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 16385 and lines[-1].startswith("16384,") and lines[-2].startswith("16383,")


def test_negbound_memory_is_the_table_not_its_text(tmp_path, capsys):
    # the CSV text of 1e5 rows (3.1 MB) was held whole, with its rows as strings: the command
    # peaked 8.6 MB above the scan it prints; written a chunk at a time it adds about 0.1 MB
    rows = 100_000
    tracemalloc.start()
    try:
        table = analytic.neg_bound_scan(0.293, np.arange(0.001, rows * 0.001 + 1e-12, 0.001))
        analytic.fit_limiting_exponent(table)
        del table
        scan_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert run(["negbound", "--u-max", str(rows * 0.001), "--u-step", "0.001", "--file", "nb.csv",
                    "--out", str(tmp_path)]) == 0
        cmd_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "nb.csv").stat().st_size > 3_000_000
    assert cmd_peak - scan_peak < 1_000_000


def test_solver_commands_on_a_ball_equal_them_on_its_matrix_csv(tmp_path, capsys):
    # --ball reuses the factor of build_cov_matrix's PSD gate; --matrix reads a caller's matrix,
    # which capacity factors and max_corr gates itself: the same bits either way
    for argv, shifts in ((["capacity", "--ball", "2"], (0,)), (["maxcorr", "--ball", "2", "--dist", "6"], (0, 6))):
        assert run(argv) == 0
        via_ball = capsys.readouterr().out
        pts = events.lattice_ball((0, 0, 0), 2)
        K = kernels.build_cov_matrix(kernels.gff(3), [(p[0] + s, *p[1:]) for s in shifts for p in pts])
        path = tmp_path / "k.csv"
        np.savetxt(path, K, delimiter=",", fmt="%.17g")
        sets = [] if len(shifts) == 1 else ["--i1", ",".join(map(str, range(len(pts)))),
                                           "--i2", ",".join(map(str, range(len(pts), 2 * len(pts))))]
        assert run([argv[0], "--matrix", str(path), *sets]) == 0
        assert capsys.readouterr().out == via_ball


def test_maxcorr_prints_the_sup_cross_covariance(capsys):
    # the paper's ||K_{I1,I2}||_inf beside rho: the largest |K(x, y)| over the two balls
    assert run(["maxcorr", "--ball", "2", "--dist", "6"]) == 0
    out = json.loads(capsys.readouterr().out)
    pts = list(events.lattice_ball((0, 0, 0), 2))
    K = kernels.build_cov_matrix(kernels.gff(3), pts + [(p[0] + 6, *p[1:]) for p in pts])
    assert out["sup_cross_cov"] == np.abs(K[: len(pts), len(pts):]).max() == kernels.gff_green((2, 0, 0))
    assert set(out) == {"rho", "ridge", "sup_cross_cov"}


def test_capacity_subcommand_matrix(tmp_path, capsys):
    m = tmp_path / "k.csv"
    np.savetxt(m, np.eye(4), delimiter=",")
    assert run(["capacity", "--matrix", str(m)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["capacity"] == pytest.approx(4.0, abs=1e-8)


def test_capacity_of_a_matrix_near_the_float_limit(tmp_path, capsys):
    # symmetrizing as 0.5 * (A + A.T) overflowed: capacity 0.0 at energy inf, exit 0
    m = tmp_path / "big.csv"
    np.savetxt(m, np.diag([1.7e308, 1.7e308]), delimiter=",", fmt="%.17g")
    assert run(["capacity", "--matrix", str(m)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["energy"] == pytest.approx(0.85e308, rel=1e-15)
    assert out["capacity"] == pytest.approx(2.0 / 1.7e308, rel=1e-12)


def test_maxcorr_subcommand_matrix(tmp_path, capsys):
    m = tmp_path / "k.csv"
    np.savetxt(m, np.array([[1.0, 0.4], [0.4, 1.0]]), delimiter=",")
    assert run(["maxcorr", "--matrix", str(m), "--i1", "0", "--i2", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rho"] == pytest.approx(0.4, abs=1e-10)


def test_maxcorr_on_a_zero_variance_block(tmp_path, capsys):
    m = tmp_path / "z.csv"
    np.savetxt(m, np.array([[0.0, 0.0], [0.0, 1.0]]), delimiter=",")
    assert run(["maxcorr", "--matrix", str(m), "--i1", "0", "--i2", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["rho"] == 0.0


def test_sample_snapshot(tmp_path, capsys):
    assert run(["sample", "--model", "bf", "--shape", "8,8", "--spacing", "1.0",
                "--seed", "3", "--replicate", "2", "--file", "f.snap",
                "--out", str(tmp_path)]) == 0
    header, vals = oracles.read_snapshot(tmp_path / "f.snap")
    assert header["grid_shape"] == [8, 8]
    assert vals.size == 64


def test_sample_embedding_error_suggests_padding(tmp_path, capsys):
    # the torus grows from padding 2 to 4 when its spectrum clips: bf 8x8 at
    # spacing 0.5 embeds at padding 4; the wave kernel embeds at neither
    assert run(["sample", "--model", "bf", "--shape", "8,8", "--spacing", "0.5",
                "--out", str(tmp_path)]) == 0
    code = run(["sample", "--model", "wave", "--out", str(tmp_path / "wave")])
    assert code == 1
    assert "padding" in capsys.readouterr().err
    assert not (tmp_path / "wave" / "field.snap").exists()


def test_bootstrap_schedule_cmd(tmp_path, capsys):
    assert run(["bootstrap", "schedule", "--R0", "10", "--delta", "1.0",
                "--ell-prime", "-1", "--n-max", "50", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    first = json.loads(out.splitlines()[0])
    assert first["ell_inf_lower"] < -1.0
    lines = (tmp_path / "schedule.csv").read_text().strip().splitlines()
    assert len(lines) == 51


def test_bootstrap_recursion_cmd_auto(tmp_path, capsys):
    code = run(["bootstrap", "run-recursion", "--g", "polylog:3.5", "--h-prime", "loginv:0.5",
                "--delta", "0.25", "--d", "2", "--n-steps", "25", "--out", str(tmp_path)])
    assert code == 0
    cert = json.loads((tmp_path / "recursion_certificate.json").read_text())
    assert cert["verdict"] is True
    assert cert["q_last"] < 1e-6 * cert["q_first"]
    assert np.isfinite(cert["ell_inf_lower"])


@pytest.mark.parametrize("mode", [[], ["--log-R0", "2.5e8"]], ids=["closure", "given-R0"])
def test_bootstrap_recursion_reads_p1(tmp_path, capsys, mode):
    def p1_of(*p1):
        run(["bootstrap", "run-recursion", "--n-steps", "5", *mode, *p1, "--out", str(tmp_path)])
        return json.loads((tmp_path / "recursion_certificate.json").read_text())["p1"]

    default = p1_of()
    n_d = bootstrap.annulus_covering(2, 1.0).n_d
    closure = bootstrap.find_closure(bootstrap.decay_from_string("polylog:3.5"), 0.25, n_d, 36.0)
    assert default == (1e-6 if mode else closure.p1_max)
    assert p1_of("--p1", "2e-7") == 2e-7
    assert p1_of("--p1", "0.9") == 0.9


def test_bootstrap_recursion_cmd_fail_exit_code(tmp_path, capsys):
    # explicit R0 far below the closure threshold: certificate fails, exit 2
    code = run(["bootstrap", "run-recursion", "--g", "polylog:3.5", "--h-prime", "loginv:0.5",
                "--delta", "0.25", "--d", "2", "--R0", "100", "--p1", "0.5",
                "--n-steps", "5", "--out", str(tmp_path)])
    assert code == 2
    cert = json.loads((tmp_path / "recursion_certificate.json").read_text())
    assert cert["verdict"] is False
    assert cert["failures"]


def test_bootstrap_recursion_cmd_rejects_gamma_15(tmp_path, capsys):
    code = run(["bootstrap", "run-recursion", "--g", "polylog:1.5", "--delta", "0.25",
                "--d", "2", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "does not tend to 0" in err


def test_bootstrap_crossing_cmd(tmp_path, capsys):
    code = run(["bootstrap", "crossing", "--model", "bf", "--spacing", "1.0", "--R", "6",
                "--kind", "hcross", "--aspect", "1.0", "-n", "200", "--seed", "5",
                "--out", str(tmp_path)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert 0.0 <= out["estimate"] <= 1.0


def test_bootstrap_crossing_cmd_grows_the_torus(capsys):
    # a 12x8 box at spacing 0.5 clips at padding 2 and embeds at padding 4
    code = run(["bootstrap", "crossing", "--spacing", "0.5", "--R", "4", "--aspect", "1.5", "-n", "200"])
    assert code == 0
    assert 0.0 <= json.loads(capsys.readouterr().out)["estimate"] <= 1.0


def test_bootstrap_decay_table_cmd(tmp_path):
    code = run(["bootstrap", "decay-table", "--model", "bf", "--ell", "-0.5",
                "--Rs", "4,8", "-n", "200", "--seed", "5", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "decay_table.csv").read_text().strip().splitlines()
    assert lines[0] == "R,estimate,se,envelope"
    assert len(lines) == 3


def test_reports_validate_against_published_schema(tmp_path):
    import jsonschema

    schema_path = os.path.join(os.path.dirname(__file__), "..", "docs", "report.schema.json")
    with open(schema_path) as fh:
        schema = json.load(fh)
    # a passing report and a not-applicable report (null slack/se)
    assert run(["verify", "thm1.1", "--out", str(tmp_path), "-n", "2000", "--seed", "1"]) == 0
    cfg = cli.default_config("thm1.10", 500, 2, 1)
    cfg = cfg.__class__.from_json(cfg.to_json().replace('"delta2": 0.25', '"delta2": 0.99'))
    rep = cli.run_config(cfg)
    assert rep.verdict == mc.VERDICT_NA
    (tmp_path / "na.json").write_text(cli._report_json(rep, cfg))
    for f in list(tmp_path.glob("*.json")):
        doc = json.loads(f.read_text())
        jsonschema.validate(doc, schema)


def test_out_dir_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_OUT, str(tmp_path))
    assert run(["negbound", "--kappa", "0.4", "--u-max", "5", "--file", "x.csv"]) == 0
    assert (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv", [
    ["sample", "--workers", "2"],
    *([*cmd, flag, "2"] for cmd in (["negbound"], ["capacity"], ["maxcorr"],
                                     ["bootstrap", "schedule"], ["bootstrap", "run-recursion"])
      for flag in ("--seed", "--workers")),
])
def test_unread_options_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_kept_options_parse():
    parser = cli.make_parser()
    seeded = (["verify"], ["verify-all"], ["suite", "smoke"],
              ["bootstrap", "crossing"], ["bootstrap", "decay-table"])
    for cmd in seeded:
        args = parser.parse_args([*cmd, "--seed", "3", "--workers", "2", "--out", "x"])
        assert (args.seed, args.workers, args.out) == (3, 2, "x")
    args = parser.parse_args(["sample", "--seed", "3", "--out", "x"])
    assert (args.seed, args.out) == (3, "x")
    for cmd in (["negbound"], ["capacity"], ["maxcorr"], ["bootstrap", "schedule"],
                ["bootstrap", "run-recursion"]):
        assert parser.parse_args([*cmd, "--out", "x"]).out == "x"


DENSE_IDS = tuple(t for t, s in cli.THEOREMS.items() if "grid" not in s.defaults)


@st.composite
def dense_configs(draw):
    """A dense theorem id on B B^T with some sites zeroed, scaled by 4^j up to the float limit
    (every entry of B B^T is below 2^5), with levels and sprinkles at the scale of the field or
    unscaled, and events that may read sites outside the matrix."""
    d = draw(st.integers(1, 5))
    B = np.array(draw(st.lists(st.floats(-2, 2, allow_nan=False), min_size=d * d, max_size=d * d))).reshape(d, d)
    B[np.array(draw(st.lists(st.booleans(), min_size=d, max_size=d)))] = 0.0
    j = draw(st.integers(-500, 509))
    K = np.ldexp(B @ B.T, 2 * j)
    scale = math.ldexp(1.0, j) if draw(st.booleans()) else 1.0

    def event():
        sites = draw(st.lists(st.integers(0, d + 1), min_size=1, max_size=d, unique=True))
        kind = draw(st.sampled_from(["all_above", "any_above"]))
        level = draw(st.sampled_from([0.0, 0.5, -1.0, 2.0])) * scale
        return {"kind": kind, "sites": [[i] for i in sites], "level": level}

    return cli.ExperimentConfig(
        theorem=draw(st.sampled_from(DENSE_IDS)), model={"family": "explicit", "matrix": K.tolist()},
        events=(event(), event()), eps=(draw(st.sampled_from([0.25, 1.0, 3.0, 1e-200])) * scale,),
        n=draw(st.sampled_from([2, 3, 4, 16, 64])), seed=draw(st.integers(0, 3)),
        constant_mode=draw(st.sampled_from(["proof-36", "positive-1"])))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(dense_configs())
def test_dense_ids_end_in_a_report_or_a_typed_error(config):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # thm1.1's overlapping-supports note
            report = cli.run_config(config)
    except SdlabError:
        return
    for s in (*report.sides, report) if report.sides else ():
        assert math.isfinite(s.slack) and math.isfinite(s.se), s
        assert not (s.verdict == mc.VERDICT_FAIL and s.se == 0), s
