import json
import os

import numpy as np
import pytest

from sdlab import bootstrap, cli, mc
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
    (["sample", "--shape", "4,4", "--replicate", "-1"], "replicate"),
    (["sample", "--shape", "4,4", "--replicate", str(2**64)], "replicate"),
    (["bootstrap", "run-recursion", "--n-d", "-3"], "n_d must be an integer >= 1"),
    (["bootstrap", "run-recursion", "--n-d", "0"], "n_d must be an integer >= 1"),
    (["bootstrap", "run-recursion", "--n-d", "0", "--R0", "100"], "n_d must be an integer >= 1"),
    (["bootstrap", "run-recursion", "--c", "-1"], "c must be finite and positive"),
    (["bootstrap", "run-recursion", "--R0", "-5"], "R0 must exceed 1"),
    (["bootstrap", "run-recursion", "--R0", "1e400"], "log R0 must be finite and positive"),
    (["bootstrap", "run-recursion", "--log-R0", "1e400"], "log R0 must be finite and positive"),
    (["bootstrap", "run-recursion", "--log-R0", "-1"], "log R0 must be finite and positive"),
    (["bootstrap", "schedule", "--R0", "1e400"], "log R0 must be finite and positive"),
    (["bootstrap", "run-recursion", "--n-steps", "0"], "n_steps must be an integer >= 1"),
    (["bootstrap", "schedule", "--n-max", "0"], "n_max must be an integer >= 1"),
    (["bootstrap", "schedule", "--n-max", "-2"], "n_max must be an integer >= 1"),
    (["bootstrap", "run-recursion", "--g", "polylog:3.5,0"], "decay constant c must be positive"),
    (["bootstrap", "run-recursion", "--g", "polylog:3.5,-1"], "decay constant c must be positive"),
    (["bootstrap", "run-recursion", "--g", "polylog:3.5,1,2"], "one or two numbers"),
    (["bootstrap", "run-recursion", "--g", "polylog:nan"], "decay parameters must be finite"),
    (["bootstrap", "run-recursion", "--delta", "nan"], "delta must be positive"),
    (["bootstrap", "schedule", "--R0", "10", "--delta", "nan"], "delta must be positive"),
    (["bootstrap", "schedule", "--R0", "10", "--ell-prime", "nan"], "ell' must be finite"),
    (["maxcorr", "--matrix", "{m}", "--i1", "0", "--i2", "1", "--ridge", "nan"], "ridge must be finite and >= 0"),
    (["maxcorr", "--matrix", "{m}", "--i1", "0", "--i2", "1", "--ridge", "inf"], "ridge must be finite and >= 0"),
    (["capacity", "--d", "3", "--ball", "1", "--tol", "nan"], "tol must be finite and positive"),
    (["capacity", "--d", "3", "--ball", "1", "--tol", "inf"], "tol must be finite and positive"),
    (["negbound", "--u-step", "0"], "--u-step must be finite and > 0"),
    (["negbound", "--u-max", "nan"], "--u-max finite"),
    (["negbound", "--u-step", "inf"], "--u-step must be finite and > 0"),
    (["negbound", "--u-step", "-1"], "--u-step must be finite and > 0"),
    (["negbound", "--u-max", "0.5"], "got 1.0 and 0.5"),
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


def test_non_finite_explicit_config_exits_1(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_malformed("cor2.6", model={"family": "explicit", "matrix": [[float("inf")]]})))
    assert "[[Infinity]]" in path.read_text()
    assert run(["verify", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: covariance matrix must be finite")
    assert not list(tmp_path.glob("*_*.json"))


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


def test_bvn_subcommand(capsys):
    assert run(["bvn", "0.5", "0", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cdf"] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_bvn_nan_level_exits_1(capsys):
    assert run(["bvn", "0.5", "nan", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: levels u and v must not be nan") and not captured.out


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


def test_maxcorr_on_a_zero_variance_block(tmp_path, capsys):
    m = tmp_path / "z.csv"
    np.savetxt(m, np.array([[0.0, 0.0], [0.0, 1.0]]), delimiter=",")
    assert run(["maxcorr", "--matrix", str(m), "--i1", "0", "--i2", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["rho"] == 0.0


def test_sample_snapshot(tmp_path, capsys):
    assert run(["sample", "--model", "bf", "--shape", "8,8", "--spacing", "1.0",
                "--seed", "3", "--replicate", "2", "--file", "f.snap",
                "--out", str(tmp_path)]) == 0
    header, vals = read_snapshot(tmp_path / "f.snap")
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
