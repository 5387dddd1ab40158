import json
import os

import numpy as np
import pytest

from sdlab import cli, mc
from sdlab.sampler import read_snapshot


def run(argv):
    return cli.main(argv)


def clear_cache():
    with mc._CACHE_LOCK:
        mc._CACHE.clear()


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
])
def test_malformed_config_is_a_config_error(tmp_path, capsys, doc, message):
    path = tmp_path / "cfg.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert run(["verify", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*_*.json"))


@pytest.mark.parametrize("argv, message", [
    (["verify", "thm1.1", "--eps", "x", "-n", "100"], "--eps"),
    (["verify", "--config", "missing.json"], "cannot read config"),
])
def test_bad_verify_arguments_are_config_errors(tmp_path, capsys, argv, message):
    assert run(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("argv, message", [
    (["sample", "--shape", "3,x"], "--shape must be comma-separated int"),
    (["sample", "--shape", "0,4"], "positive integers"),
    (["sample", "--model", "{bad"], "--model"),
    (["capacity", "--matrix", "{m}", "--set", "0,x"], "--set"),
    (["maxcorr", "--matrix", "{m}", "--i1", "0,x", "--i2", "1"], "--i1"),
    (["bootstrap", "decay-table", "--Rs", "8,x"], "--Rs"),
    (["bootstrap", "run-recursion", "--g", "polylog"], "polylog:3.5"),
    (["bootstrap", "run-recursion", "--g", "stretched"], "polylog:3.5"),
    (["bootstrap", "run-recursion", "--g", "polylog:x"], "polylog:3.5"),
    (["capacity", "--matrix", "{m}", "--set", "0,-1"], "lie in [0, 2)"),
    (["capacity", "--matrix", "{m}", "--set", "0,2"], "lie in [0, 2)"),
    (["maxcorr", "--matrix", "{m}", "--i1", "0", "--i2", "-1"], "lie in [0, 2)"),
    (["maxcorr", "--matrix", "{m}", "--i1", "5", "--i2", "1"], "lie in [0, 2)"),
    (["capacity", "--matrix", "{wide}"], "got shape (2, 3)"),
    (["maxcorr", "--matrix", "{wide}", "--i1", "0", "--i2", "1"], "got shape (2, 3)"),
    (["capacity", "--matrix", "{nan}"], "finite, square and nonempty, got shape (2, 2)"),
    (["capacity", "--matrix", "{missing}"], "--matrix"),
    (["maxcorr", "--matrix", "{text}", "--i1", "0", "--i2", "1"], "--matrix"),
    (["bootstrap", "crossing", "-n", "0", "--R", "8"], "n must be an integer >= 2"),
    (["bootstrap", "crossing", "-n", "1", "--R", "8"], "n must be an integer >= 2"),
    (["bootstrap", "crossing", "-n", "-3", "--R", "8"], "n must be an integer >= 2"),
    (["bootstrap", "decay-table", "-n", "0"], "n must be an integer >= 2"),
    (["bootstrap", "decay-table", "-n", "1"], "n must be an integer >= 2"),
    (["capacity", "--matrix", "{empty}"], "--matrix"),
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


def test_run_config_raises_config_error():
    cfg = cli.default_config("thm1.7", 500, 0, 1)
    with pytest.raises(cli.ConfigError, match="n must be"):
        cli.run_config(cli.ExperimentConfig.from_json(cfg.to_json().replace('"n": 500', '"n": 1')))
    with pytest.raises(cli.ConfigError, match="valid ids"):
        cli.default_config("thm9.9", 10, 0, 1)


def test_bvn_subcommand(capsys):
    assert run(["bvn", "0.5", "0", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cdf"] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_negbound_csv(tmp_path, capsys):
    assert run(["negbound", "--kappa", "0.3", "--u-max", "10", "--file", "nb.csv",
                "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "nb.csv").read_text().strip().splitlines()
    assert lines[0] == "u,r,exponent"
    assert len(lines) == 11
    last = lines[-1].split(",")
    assert float(last[2]) == pytest.approx(5.941477610288, abs=1e-9)


def test_capacity_subcommand_matrix(tmp_path, capsys):
    m = tmp_path / "k.csv"
    np.savetxt(m, np.eye(4), delimiter=",")
    assert run(["capacity", "--matrix", str(m)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["capacity"] == pytest.approx(4.0, abs=1e-8)


def test_maxcorr_subcommand_matrix(tmp_path, capsys):
    m = tmp_path / "k.csv"
    np.savetxt(m, np.array([[1.0, 0.4], [0.4, 1.0]]), delimiter=",")
    assert run(["maxcorr", "--matrix", str(m), "--i1", "0", "--i2", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rho"] == pytest.approx(0.4, abs=1e-10)


def test_sample_snapshot(tmp_path, capsys):
    assert run(["sample", "--model", "bf", "--shape", "8,8", "--spacing", "1.0",
                "--seed", "3", "--replicate", "2", "--file", "f.snap",
                "--out", str(tmp_path)]) == 0
    header, vals = read_snapshot(tmp_path / "f.snap")
    assert header["grid_shape"] == [8, 8]
    assert vals.size == 64


def test_sample_embedding_error_suggests_padding(capsys):
    # a torus spanning too few correlation lengths is rejected with advice
    code = run(["sample", "--model", "bf", "--shape", "8,8", "--spacing", "0.5"])
    assert code == 1
    assert "padding" in capsys.readouterr().err


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
