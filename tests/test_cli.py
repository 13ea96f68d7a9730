"""End-to-end tests for the command-line interface."""

import itertools
import json

import numpy as np
import pytest

from nlocality import families, optimize
from nlocality.analysis import (bell_evaluate, mermin_functional,
                                tripartite_behavior)
from nlocality.cli import _bundle_from_json, build_parser, main
from nlocality.measurements import BlochObservable, parse_grouping
from nlocality.network import (SettingsBundle, TrilocalNetwork,
                               _dense_behavior, ivalue_table, local_score,
                               swapped_state, trilocal_score)
from nlocality.optimize import OptimizationResult

BALANCED = "000,001,010,100|011,101,110,111"
SETTINGS = {"a": [[0.3, 1.1], [2.0, 0.4]], "d": [[1.2, 2.5], [0.7, 5.0]],
            "t": [[2.8, 0.2], [1.5, 3.3]],
            "b": [BALANCED, "000,001,110,111|010,011,100,101"],
            "c": ["000,011,101,110|001,010,100,111", BALANCED]}


def run_cli(tmp_path, args, name="out.json"):
    out = tmp_path / name
    rc = main(args + ["--output", str(out)])
    return rc, out


def test_violation_table1(tmp_path):
    rc, out = run_cli(tmp_path, ["violation", "--family", "gghz",
                                 "--alpha", "0.5", "--settings", "table1"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"version", "config", "results", "timings"}
    row = doc["results"][0]
    assert len(row["i_values"]) == 8
    assert row["verdict"] in ("nontrilocal", "no violation found")


def test_violation_optimize_matches_closed_form(tmp_path):
    args = ["violation", "--family", "gghz", "--alpha", "0.5",
            "--settings", "optimize", "--restarts", "6", "--seed", "1"]
    rc, out = run_cli(tmp_path, args)
    assert rc == 0
    row = json.loads(out.read_text())["results"][0]
    assert abs(row["score"] - np.cbrt(2.0) * np.sin(1.0)) < 1e-4
    assert row["verdict"] == "nontrilocal"
    # byte-identical rerun for the same seed
    rc2, out2 = run_cli(tmp_path, args, name="out2.json")
    assert rc2 == 0
    assert out.read_bytes() == out2.read_bytes()


def test_violation_settings_file_roundtrip(tmp_path):
    rc, out = run_cli(tmp_path, ["violation", "--family", "gghz",
                                 "--alpha", "0.5", "--settings", "optimize",
                                 "--restarts", "4", "--seed", "0"])
    assert rc == 0
    row = json.loads(out.read_text())["results"][0]
    settings_path = tmp_path / "settings.json"
    settings_path.write_text(json.dumps(row["settings"]))
    rc2, out2 = run_cli(tmp_path, ["violation", "--family", "gghz",
                                   "--alpha", "0.5", "--settings", "file",
                                   "--settings-file", str(settings_path)],
                        name="replay.json")
    assert rc2 == 0
    replay = json.loads(out2.read_text())["results"][0]
    assert abs(replay["trilocal_score_all_tuples"] - row["score"]) < 1e-9


@pytest.mark.parametrize("args", [
    ["--family", "depolarized", "--epsilon", "0.8", "--settings", "file"],
    ["--family", "gghz", "--alpha", "0.5", "--settings", "optimize",
     "--restarts", "2", "--seed", "0"]], ids=["file", "optimize"])
def test_violation_report_matches_dense_reference(tmp_path, args):
    settings_path = tmp_path / "settings.json"
    settings_path.write_text(json.dumps(SETTINGS))
    rc, out = run_cli(tmp_path, ["violation"] + args
                      + ["--settings-file", str(settings_path)])
    assert rc == 0
    row = json.loads(out.read_text())["results"][0]
    net = TrilocalNetwork.from_shared_state(
        families.family_state(row["family"], row["params"]))
    beh = _dense_behavior(net, _bundle_from_json(row["settings"]))
    table = ivalue_table(beh)
    assert len(row["i_values"]) == 8
    for entry in row["i_values"]:
        expected = table[entry["i1"], entry["i2"], entry["k"]]
        assert abs(entry["value"] - expected) < 1e-12
    assert abs(row["trilocal_score_all_tuples"]
               - trilocal_score(beh).score) < 1e-12
    assert abs(row["local_score"] - local_score(beh).score) < 1e-12


def test_table1_is_an_alias_of_optimize(tmp_path):
    docs = []
    for mode in ("table1", "optimize"):
        rc, out = run_cli(tmp_path, ["violation", "--family", "gghz",
                                     "--alpha", "0.3", "--settings", mode,
                                     "--restarts", "2", "--seed", "3"],
                          name=mode + ".json")
        assert rc == 0
        docs.append(json.loads(out.read_text()))
    assert docs[0]["results"] == docs[1]["results"]
    assert docs[0]["timings"] == docs[1]["timings"]


def test_scan_csv_monotone(tmp_path):
    rc, out = run_cli(tmp_path, ["scan", "--family", "gghz",
                                 "--grid", "alpha=0:0.7853981633974483:5",
                                 "--restarts", "4", "--seed", "0",
                                 "--format", "csv"], name="scan.csv")
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "alpha"
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    scores = [float(row["score"]) for row in rows]
    assert len(scores) == 5
    assert all(b >= a - 1e-6 for a, b in zip(scores, scores[1:]))
    assert all(float(row["score"]) <= float(row["closed_form"]) + 1e-9
               for row in rows)


def test_scan_two_axes_run_first_axis_major(tmp_path):
    rc, out = run_cli(tmp_path, ["scan", "--family", "ghz-symmetric",
                                 "--grid", "p1=0:0.2:2",
                                 "--grid", "p2=0.1:0.3:2",
                                 "--restarts", "2", "--seed", "0",
                                 "--format", "csv"], name="scan.csv")
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "p1,p2,score,closed_form"
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["0.0", "0.1"], ["0.0", "0.3"], ["0.2", "0.1"], ["0.2", "0.3"]]


def test_config_file_merge(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "gghz", "alpha": 0.3,
                               "settings": "table1"}))
    rc, out = run_cli(tmp_path, ["violation", "--config", str(cfg)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["alpha"] == 0.3
    # flag overrides config value
    rc2, out2 = run_cli(tmp_path, ["violation", "--config", str(cfg),
                                   "--alpha", "0.6"], name="o2.json")
    assert rc2 == 0
    assert json.loads(out2.read_text())["config"]["alpha"] == 0.6


def test_lhv_check(tmp_path):
    rc, out = run_cli(tmp_path, ["lhv-check", "--r-grid", "0:1:5"])
    assert rc == 0
    rows = json.loads(out.read_text())["results"]
    assert len(rows) == 5
    assert all(abs(r["trilocal_score"] - 1.0) < 1e-12 for r in rows)


def test_lhv_check_near_grid_ends(tmp_path):
    # I-values of 1e-11 near r = 0 or 1, whose cube roots amplify any
    # rounding error in them by about 5e6
    rc, out = run_cli(tmp_path, ["lhv-check", "--r-grid",
                                 "9.30282e-05:0.999749:3"])
    assert rc == 0
    rows = json.loads(out.read_text())["results"]
    assert len(rows) == 3
    for row in rows:
        r = row["r"]
        assert abs(row["trilocal_score"] - 1.0) < 1e-12
        assert abs(row["i0"] - r ** 3) < 1e-12
        assert abs(row["i1"] - (1 - r) ** 3) < 1e-12


@pytest.mark.parametrize("spec", ["0:1:0", "0.2:0.8:-3"])
def test_lhv_check_empty_grid_exits_2(tmp_path, capsys, spec):
    # as an empty scan grid does, rather than report no rows
    rc, out = run_cli(tmp_path, ["lhv-check", "--r-grid", spec])
    assert rc == 2
    assert not out.exists()
    assert "empty --r-grid" in capsys.readouterr().err


def test_swap_report(tmp_path):
    rc, out = run_cli(tmp_path, ["swap", "--family", "amplitude",
                                 "--gamma", "0.2"])
    assert rc == 0
    rows = json.loads(out.read_text())["results"]
    assert len(rows) == 16
    assert all(abs(sum(r["probability"] for r in rows) / 4 - 1.0) < 1e-9
               for _ in (0,))


def test_swap_functional_values(tmp_path):
    terms = [{"a": a, "b": b, "c": c, "x": x, "y": y, "z": z, "coeff": w}
             for (a, b, c, x, y, z), w
             in mermin_functional().coefficients.items()]
    path = tmp_path / "mermin.json"
    path.write_text(json.dumps({"scenario": [3, 2, 2], "bound": 2.0,
                                "terms": terms}))
    rc, out = run_cli(tmp_path, ["swap", "--family", "gghz", "--alpha",
                                 "0.6", "--functional", str(path)])
    assert rc == 0
    rows = json.loads(out.read_text())["results"]
    assert len(rows) == 16
    net = TrilocalNetwork.from_shared_state(
        families.family_state("gghz", {"alpha": 0.6}))
    (b_pair, c_pair) = families.family_groupings("gghz")
    probe = (BlochObservable(0.0, 0.0),) * 2
    bundle = SettingsBundle(probe, b_pair, c_pair, probe, probe)
    sx = BlochObservable(np.pi / 2, 0.0).matrix()
    sy = BlochObservable(np.pi / 2, np.pi / 2).matrix()
    for row in rows:
        chi, _ = swapped_state(net, bundle, row["y"], row["b"], row["z"],
                               row["c"])
        value, violated = bell_evaluate(
            tripartite_behavior(chi, [(sx, sy)] * 3), mermin_functional())
        assert row["functional_value"] == value
        assert row["functional_violated"] == violated


def test_swap_singleton_grouping_detects_entanglement(tmp_path):
    rc, out = run_cli(tmp_path, ["swap", "--family", "gghz",
                                 "--alpha", "0.7853981633974483",
                                 "--b-groupings", "000", "000,001,010,100",
                                 "--c-groupings", "000", "000,001,010,100",
                                 "--allow-unbalanced"])
    assert rc == 0
    rows = json.loads(out.read_text())["results"]
    assert len(rows) == 16
    assert any(r.get("entangled_by_criteria") for r in rows)
    # unbalanced groupings are rejected without the opt-in flag
    rc2 = main(["swap", "--family", "gghz", "--alpha", "0.7",
                "--b-groupings", "000", "000,001,010,100"])
    assert rc2 == 2


def test_swap_null_event_rows(tmp_path):
    b_pair = ["000,100", "000,001,010,100"]
    rc, out = run_cli(tmp_path, ["swap", "--family", "gghz", "--alpha", "0",
                                 "--b-groupings", *b_pair,
                                 "--c-groupings", *b_pair,
                                 "--allow-unbalanced"])
    assert rc == 0
    rows = json.loads(out.read_text())["results"]
    assert [(r["y"], r["z"], r["b"], r["c"]) for r in rows] == list(
        itertools.product((0, 1), repeat=4))
    nulls = [r for r in rows if r.get("null_event")]
    events = [r for r in rows if not r.get("null_event")]
    assert len(nulls) == 12 and len(events) == 4
    assert all(r["probability"] == 0.0 for r in nulls)
    net = TrilocalNetwork.from_shared_state(
        families.family_state("gghz", {"alpha": 0.0}))
    pair = tuple(parse_grouping(s) for s in b_pair)
    probe = (BlochObservable(0.0, 0.0),) * 2
    bundle = SettingsBundle(probe, pair, pair, probe, probe)
    for row in nulls:
        with pytest.raises(ValueError, match="null event"):
            swapped_state(net, bundle, row["y"], row["b"], row["z"],
                          row["c"])
    for row in events:
        _, prob = swapped_state(net, bundle, row["y"], row["b"], row["z"],
                                row["c"])
        assert row["probability"] == prob
        assert abs(prob - 1.0) < 1e-12


def test_nlocal_command(tmp_path):
    rc, out = run_cli(tmp_path, ["nlocal", "--n", "2", "--restarts", "6",
                                 "--seed", "0"])
    assert rc == 0
    row = json.loads(out.read_text())["results"][0]
    assert abs(row["score"] - np.sqrt(2.0)) < 1e-3


def test_config_errors_exit_2(tmp_path, capsys):
    assert main(["violation"]) == 2
    assert main(["violation", "--family", "gghz", "--alpha", "9.9"]) == 2
    assert main(["violation", "--family", "gghz"]) == 2
    assert main(["scan", "--family", "gghz", "--grid", "alpha=bad"]) == 2
    # misspelled config keys are rejected, not silently ignored
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "gghz", "alpha": 0.5,
                               "settings": "table1", "restart": 1,
                               "sed": 3}))
    capsys.readouterr()
    assert main(["violation", "--config", str(cfg)]) == 2
    assert "['restart', 'sed']" in capsys.readouterr().err
    # integer fields are not truncated: seed 1.7 is not seed 1
    cfg.write_text(json.dumps({"family": "gghz", "alpha": 0.5, "seed": 1.7,
                               "restarts": 2, "settings": "optimize"}))
    assert main(["violation", "--config", str(cfg)]) == 2
    assert "seed must be an integer" in capsys.readouterr().err
    # visibility 1.5 makes the depolarized GHZ source non-positive
    assert main(["nlocal", "--n", "2", "--epsilon", "1.5"]) == 2
    assert "eigenvalue" in capsys.readouterr().err
    # the supported network sizes bind a config file too
    cfg.write_text(json.dumps({"n": 9}))
    assert main(["nlocal", "--config", str(cfg)]) == 2
    assert "supported network sizes" in capsys.readouterr().err


@pytest.mark.parametrize("fields, message", [
    ({"family": "gghz", "alpha": 0.5, "grid": "alpha=0:1:2"},
     "grid must be a list of NAME=START:STOP:STEPS strings"),
    ({"family": "gghz", "grid": [3]},
     "grid must be a list of NAME=START:STOP:STEPS strings"),
    ({"family": "nosuch", "grid": ["alpha=0:1:2"]},
     "unknown family 'nosuch'"),
    ({"family": ["gghz"], "grid": ["alpha=0:1:2"]},
     "unknown family ['gghz']"),
], ids=["string-grid", "number-in-grid", "unknown-family", "list-family"])
def test_scan_config_errors_name_the_fault(tmp_path, capsys, fields,
                                           message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(fields))
    capsys.readouterr()
    assert main(["scan", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("family, message", [
    (["gghz"], "unknown family ['gghz']"),
    ("gghz", "threshold families: depolarized, amplitude, phase"),
], ids=["list-family", "no-noise-parameter"])
def test_threshold_config_family_errors_exit_2(tmp_path, capsys, family,
                                               message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": family}))
    capsys.readouterr()
    assert main(["threshold", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


# an integer file field would be opened as a file descriptor; this one
# cannot be open
NOT_A_PATH = 1 << 30


@pytest.mark.parametrize("args, fields, message", [
    (["violation", "--family", "gghz", "--alpha", "0.5", "--settings",
      "file", "--settings-file", "{tmp}/missing.json"], {},
     "cannot read settings file"),
    (["swap", "--family", "gghz", "--alpha", "0.6", "--functional",
      "{tmp}/missing.json"], {}, "cannot read functional file"),
    (["lhv-check", "--r-grid", "0:1:2", "--output",
      "{tmp}/missing/out.json"], {}, "cannot write report"),
    (["lhv-check"], {"r_grid": 5}, "r_grid must be a string"),
    (["violation", "--family", "gghz", "--alpha", "0.5", "--settings",
      "file"], {"settings_file": NOT_A_PATH},
     "settings_file must be a string"),
    (["swap", "--family", "gghz", "--alpha", "0.6"],
     {"functional": NOT_A_PATH}, "functional must be a string"),
    (["lhv-check", "--r-grid", "0:1:2"], {"output": NOT_A_PATH},
     "output must be a string"),
], ids=["missing-settings-file", "missing-functional", "missing-output-dir",
        "number-r-grid", "number-settings-file", "number-functional",
        "number-output"])
def test_file_inputs_exit_2(tmp_path, capsys, args, fields, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(fields))
    argv = [a.replace("{tmp}", str(tmp_path)) for a in args]
    capsys.readouterr()
    assert main(argv + ["--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("args, fields, message", [
    (["violation"], {"family": "gghz", "alpha": 0.5, "settings": "tabel1"},
     "settings must be one of table1, optimize, file, not 'tabel1'"),
    (["lhv-check", "--r-grid", "0:1:2"], {"format": "CSV"},
     "format must be one of json, csv, not 'CSV'"),
    (["swap", "--family", "gghz", "--alpha", "0.7",
      "--b-groupings", "000", "000,001,010,100"],
     {"allow_unbalanced": "no"}, "allow_unbalanced must be true or false"),
    (["violation", "--family", "gghz", "--alpha", "0.5"],
     {"tolerance": True}, "tolerance must be a number, not True"),
    (["violation"], {"family": "gghz", "alpha": True},
     "alpha must be a number, not True"),
    (["swap"], {"family": "gghz", "alpha": [0.5]},
     "alpha must be a number, not [0.5]"),
    (["nlocal", "--n", "2"], {"epsilon": "0.9"},
     "epsilon must be a number, not '0.9'"),
    (["swap", "--family", "gghz", "--alpha", "0.5"],
     {"b_groupings": ["000,001,010,100", 5]},
     "b_groupings must be a list of two grouping strings"),
    (["swap", "--family", "gghz", "--alpha", "0.5"],
     {"c_groupings": "000,001,010,100"},
     "c_groupings must be a list of two grouping strings"),
    (["swap", "--family", "gghz", "--alpha", "0.5"],
     {"b_groupings": []}, "b_groupings must be a list of two grouping "
                          "strings"),
], ids=["settings", "format", "allow-unbalanced", "bool-tolerance",
        "bool-param", "list-param", "string-epsilon", "number-in-groupings",
        "string-groupings", "empty-groupings"])
def test_config_values_get_their_flags_checks(tmp_path, capsys, args,
                                               fields, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(fields))
    capsys.readouterr()
    assert main(args + ["--config", str(cfg),
                        "--output", str(tmp_path / "out.json")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flags, fields", [
    (["--tolerance", "nan"], {}),
    (["--tolerance", "inf"], {}),
    ([], {"tolerance": float("nan")}),
    ([], {"tolerance": float("inf")}),
], ids=["flag-nan", "flag-inf", "config-nan", "config-infinity"])
def test_non_finite_tolerance_exits_2(tmp_path, capsys, flags, fields):
    # json writes these as the NaN and Infinity literals, which it reads
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(fields))
    capsys.readouterr()
    assert main(["threshold", "--family", "depolarized",
                 "--config", str(cfg)] + flags) == 2
    assert "tolerance must be positive and finite" in capsys.readouterr().err


def test_main_calls_share_the_parser_but_no_values(tmp_path):
    assert build_parser() is build_parser()
    rc, _ = run_cli(tmp_path, ["swap", "--family", "gghz", "--alpha", "0.7",
                               "--restarts", "7", "--seed", "5",
                               "--tolerance", "1e-6", "--workers", "3",
                               "--b-groupings", "000", "000,001,010,100",
                               "--allow-unbalanced", "--format", "csv"],
                    name="first.csv")
    assert rc == 0
    rc, out = run_cli(tmp_path, ["lhv-check", "--r-grid", "0:1:2"])
    assert rc == 0
    assert json.loads(out.read_text())["config"] == {
        "command": "lhv-check", "r_grid": "0:1:2", "seed": 0,
        "restarts": 50, "max_iterations": 2000, "tolerance": 1e-9,
        "workers": 1}
    rc, out = run_cli(tmp_path, ["swap", "--family", "gghz",
                                 "--alpha", "0.7"])
    assert rc == 0
    config = json.loads(out.read_text())["config"]
    assert (config["restarts"], config["seed"], config["workers"]) == (50, 0,
                                                                       1)
    assert "format" not in config
    assert config["b_groupings"] == [g.to_string() for g in
                                     families.family_groupings("gghz")[0]]


def test_config_allow_unbalanced_true(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"allow_unbalanced": True}))
    rc, _ = run_cli(tmp_path, ["swap", "--family", "gghz", "--alpha", "0.7",
                               "--b-groupings", "000", "000,001,010,100",
                               "--config", str(cfg)])
    assert rc == 0


def test_threshold_reports_are_byte_identical_for_a_seed(tmp_path):
    args = ["threshold", "--family", "amplitude", "--mode", "joint",
            "--restarts", "2", "--seed", "3"]
    rc, out = run_cli(tmp_path, args)
    rc2, out2 = run_cli(tmp_path, args, name="out2.json")
    assert rc == rc2 == 0
    assert out.read_bytes() == out2.read_bytes()


def test_threshold_without_crossing_exits_3(monkeypatch, capsys):
    def below_one(net, groupings, cfg, restricted, rng, extra_starts=(),
                  stop_above=None, starts=None):
        return OptimizationResult(0.5, None, (0, 0), (0, 0), None,
                                  np.zeros(12), 0)

    monkeypatch.setattr(optimize, "_optimize", below_one)
    assert main(["threshold", "--family", "depolarized"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    capsys.readouterr()
