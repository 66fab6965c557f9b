import json

import numpy as np
import pytest

from dgmm.cli import run
from dgmm.datasets import load_samples
from dgmm.motion import CommandKey, MotionModel, TerrainVector


@pytest.fixture
def incline_csv(tmp_path):
    path = tmp_path / "samples.csv"
    assert run(["gen-incline", "--out", str(path), "--reps", "2", "--seed", "3"]) == 0
    return path


def test_usage_errors_exit_1(capsys):
    assert run(["no-such-command"]) == 1
    assert run(["fit", "--bogus-flag", "x"]) == 1
    assert run([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_fit_and_query_round_trip(tmp_path, incline_csv, capsys):
    model_path = tmp_path / "model.json"
    code = run([
        "fit", "--input", str(incline_csv), "--k", "0.3", "--seed", "42",
        "--standardize", "--out", str(model_path),
    ])
    assert code == 0
    doc = json.loads(model_path.read_text())
    assert doc["invocation"]["subcommand"] == "fit"
    assert doc["invocation"]["seed"] == 42
    assert doc["layout"] == {"x_dim": 6, "z_dim": 2}

    capsys.readouterr()
    code = run([
        "query", "--model", str(model_path), "--command", "0.5,0,0",
        "--z", "0.31,0.0", "--x", "0.35,0,0,0,0,0",
    ])
    assert code == 0
    printed = float(capsys.readouterr().out.strip())
    mm = MotionModel.load(model_path)
    want = mm.conditional_density(
        CommandKey(0.5, 0.0, 0.0), np.array([0.35, 0, 0, 0, 0, 0]), TerrainVector(0.31, 0.0)
    )
    assert printed == want


def test_query_plain_model(tmp_path, incline_csv, capsys):
    model_path = tmp_path / "plain.json"
    assert run(["fit", "--input", str(incline_csv), "--no-z", "--standardize",
                "--seed", "1", "--out", str(model_path)]) == 0
    capsys.readouterr()
    assert run(["query", "--model", str(model_path), "--command", "0.5,0,0",
                "--x", "0.2,0,0,0,0,0"]) == 0
    printed = float(capsys.readouterr().out.strip())
    mm = MotionModel.load(model_path)
    assert printed == mm.motion_density(CommandKey(0.5, 0.0, 0.0), np.array([0.2, 0, 0, 0, 0, 0]))


def test_query_error_paths(tmp_path, incline_csv):
    model_path = tmp_path / "model.json"
    run(["fit", "--input", str(incline_csv), "--seed", "1", "--out", str(model_path)])
    # unknown command key
    assert run(["query", "--model", str(model_path), "--command", "0.25,0,0",
                "--z", "0.3,0", "--x", "0,0,0,0,0,0"]) == 2
    # augmented model without --z
    assert run(["query", "--model", str(model_path), "--command", "0.5,0,0",
                "--x", "0,0,0,0,0,0"]) == 2


@pytest.mark.parametrize("model, args, message", [
    ("model.json", ["--z", "0.3,0", "--x", "0,0,0,0,0"], "query has dimension 5, expected 6"),
    ("model.json", ["--z", "0.3,0,0", "--x", "0,0,0,0,0,0"],
     "terrain vector has dimension 3, expected 2"),
    ("model.json", ["--z=nan,0", "--x", "0,0,0,0,0,0"], "terrain coordinate 0 is NaN"),
    ("model.json", ["--x", "0,0,0,0,0,0"], "model is terrain-augmented; a terrain vector is required"),
    ("plain.json", ["--z", "0.3,0", "--x", "0,0,0,0,0,0"],
     "model has no terrain block; got a terrain vector"),
])
def test_query_exits_2_with_the_library_message(tmp_path, incline_csv, capsys, model, args, message):
    # the query is checked once, by MotionModel.log_density
    assert run(["fit", "--input", str(incline_csv), "--seed", "1",
                "--out", str(tmp_path / "model.json")]) == 0
    assert run(["fit", "--input", str(incline_csv), "--no-z", "--seed", "1",
                "--out", str(tmp_path / "plain.json")]) == 0
    capsys.readouterr()
    assert run(["query", "--model", str(tmp_path / model), "--command", "0.5,0,0", *args]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_number_list_that_does_not_parse_is_a_usage_error(tmp_path, incline_csv, capsys):
    # number lists are parsed in the subcommand body, past argparse
    model_path = tmp_path / "plain.json"
    assert run(["fit", "--input", str(incline_csv), "--no-z", "--seed", "1",
                "--out", str(model_path)]) == 0
    capsys.readouterr()
    assert run(["query", "--model", str(model_path), "--command", "0.5,0,0", "--x", "abc"]) == 1
    assert "usage error: not a comma-separated number list: 'abc'" in capsys.readouterr().err
    points = tmp_path / "points.txt"
    points.write_text("0.1 0.2\n0.3 0.4\n")
    assert run(["sweep-k", "--input", str(points), "--k-grid", "0.1,x"]) == 1


@pytest.mark.parametrize("flag, value, message", [
    ("--drift-gain", "inf", "drift_gain must be finite"),
    ("--drift-gain", "nan", "drift_gain must be finite"),
    ("--noise-scale", "-0.5", "noise_scale must be finite and >= 0"),
    ("--noise-scale", "inf", "noise_scale must be finite and >= 0"),
])
def test_gen_incline_rejects_non_finite_parameters(tmp_path, capsys, flag, value, message):
    out = tmp_path / "samples.csv"
    assert run(["gen-incline", "--out", str(out), f"{flag}={value}"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, value, field", [
    ("--noise-scale", "1e308", "noise_scale"),
    ("--drift-gain", "1e308", "drift_gain"),
])
def test_gen_incline_rejects_overflowing_records(tmp_path, capsys, flag, value, field):
    out = tmp_path / "samples.csv"
    assert run(["gen-incline", "--out", str(out), flag, value, "--seed", "1"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field} = 1e+308 is too large; simulated record ")
    assert not out.exists()
    assert not (tmp_path / "samples.csv.meta.json").exists()


def test_query_nan_coordinate_exits_2(tmp_path, incline_csv, capsys):
    model_path = tmp_path / "plain.json"
    assert run(["fit", "--input", str(incline_csv), "--no-z", "--seed", "1",
                "--out", str(model_path)]) == 0
    capsys.readouterr()
    assert run(["query", "--model", str(model_path), "--command", "0.5,0,0",
                "--x=nan,0,0,0,0,0"]) == 2
    assert "error: query coordinate 0 is NaN" in capsys.readouterr().err


def test_query_integer_beyond_float_range_exits_2(tmp_path, incline_csv, capsys):
    model_path = tmp_path / "plain.json"
    assert run(["fit", "--input", str(incline_csv), "--no-z", "--seed", "1",
                "--out", str(model_path)]) == 0
    doc = json.loads(model_path.read_text())
    doc["commands"][0]["components"][0]["mean"][0] = 10**400
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["query", "--model", str(model_path), "--command", "0.5,0,0",
                "--x", "0,0,0,0,0,0"]) == 2
    assert ("field 'commands[0].components[0].mean[0]': not a finite number"
            in capsys.readouterr().err)


def test_fit_with_infinite_k_exits_2_and_writes_no_file(tmp_path, incline_csv, capsys):
    # the model file could not be loaded back ("k": Infinity is not JSON)
    model_path = tmp_path / "model.json"
    assert run(["fit", "--input", str(incline_csv), "--k", "inf", "--seed", "1",
                "--out", str(model_path)]) == 2
    assert capsys.readouterr().err.startswith("error: k = inf cannot be written to a model file")
    assert not model_path.exists()


def test_fit_missing_input_exits_2(tmp_path, capsys):
    code = run(["fit", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert "error" in capsys.readouterr().err.lower()


def test_gen_incline_outputs(tmp_path):
    out = tmp_path / "run.csv"
    assert run(["gen-incline", "--out", str(out), "--reps", "1", "--seed", "7"]) == 0
    records = load_samples(out)
    assert len(records) == 78
    meta = json.loads((tmp_path / "run.csv.meta.json").read_text())
    assert meta["config"]["seed"] == 7
    assert meta["invocation"]["subcommand"] == "gen-incline"
    no_z = tmp_path / "run_noz.csv"
    assert run(["gen-incline", "--out", str(no_z), "--reps", "1", "--seed", "7", "--no-z"]) == 0
    assert all(r.z is None for r in load_samples(no_z))


def test_gen_gmm_and_sweep(tmp_path):
    pts_path = tmp_path / "pts.txt"
    assert run(["gen-gmm", "--out", str(pts_path), "--n", "120", "--seed", "5"]) == 0
    report_path = tmp_path / "sweep.json"
    assert run(["sweep-k", "--input", str(pts_path), "--k-grid", "0.1,0.5,2.0",
                "--repeats", "3", "--seed", "11", "--out", str(report_path)]) == 0
    doc = json.loads(report_path.read_text())
    assert doc["name"] == "k_sweep"
    assert len(doc["runs"]) == 9
    assert doc["invocation"]["seed"] == 11
    tsv = (tmp_path / "sweep.tsv").read_text().strip().split("\n")
    assert len(tsv) == 1 + 1 + 9  # invocation comment, header, rows


def test_compare_em_smoke(tmp_path):
    report_path = tmp_path / "em.json"
    code = run(["compare-em", "--needed", "2", "--max-attempts", "40",
                "--seed", "3", "--out", str(report_path)])
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert doc["name"] == "mise_vs_em"
    assert doc["summary"]["accepted"] <= 2


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_compare_em_with_no_accepted_run_writes_strict_json(tmp_path):
    # at k = 0 every sample appends, so no run ends with 2 components; the
    # summary statistics of no runs are null, which strict readers accept
    report_path = tmp_path / "em.json"
    code = run(["compare-em", "--k", "0", "--target-m", "2", "--needed", "2",
                "--max-attempts", "3", "--seed", "3", "--out", str(report_path)])
    assert code == 0
    doc = json.loads(report_path.read_text(), parse_constant=_reject_constant)
    summary = doc["summary"]
    assert summary["accepted"] == 0 and summary["attempts"] == 3 and summary["incomplete"]
    assert summary["mise_mean"] is None and summary["mise_std"] is None


def test_xval_terrain_smoke(tmp_path, incline_csv):
    report_path = tmp_path / "xval.json"
    code = run(["xval-terrain", "--input", str(incline_csv), "--folds", "3",
                "--repeats", "1", "--k", "0.3", "--seed", "4", "--out", str(report_path)])
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert len(doc["runs"]) == 3
    assert {"with_terrain_mean", "without_terrain_mean", "gap", "pooled_se"} <= doc["summary"].keys()
    assert np.isfinite(doc["summary"]["gap"])


def test_terrain_free_file_fits_and_queries_without_flags(tmp_path, capsys):
    # the header, not an option, decides whether records carry terrain
    no_z = tmp_path / "samples-noz.csv"
    assert run(["gen-incline", "--no-z", "--out", str(no_z), "--reps", "2", "--seed", "3"]) == 0
    model_path = tmp_path / "model.json"
    assert run(["fit", "--input", str(no_z), "--seed", "3", "--out", str(model_path)]) == 0
    assert json.loads(model_path.read_text())["layout"] == {"x_dim": 6, "z_dim": 0}
    capsys.readouterr()
    assert run(["query", "--model", str(model_path), "--command", "0.5,0,0",
                "--x", "0.1,0,0,0,0,0"]) == 0
    value = float(capsys.readouterr().out)
    mm = MotionModel.load(model_path)
    assert value == mm.motion_density(CommandKey(0.5, 0, 0), np.array([0.1, 0, 0, 0, 0, 0]))


def test_xval_terrain_on_a_terrain_free_file_exits_2(tmp_path, capsys):
    no_z = tmp_path / "samples-noz.csv"
    assert run(["gen-incline", "--no-z", "--out", str(no_z), "--reps", "2", "--seed", "3"]) == 0
    capsys.readouterr()
    assert run(["xval-terrain", "--input", str(no_z), "--folds", "2", "--repeats", "1",
                "--seed", "3"]) == 2
    assert capsys.readouterr().err == "error: terrain comparison needs records with terrain vectors\n"


def test_reruns_are_byte_identical(tmp_path, incline_csv):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run(["fit", "--input", str(incline_csv), "--k", "0.3", "--seed", "9",
                    "--standardize", "--out", str(out)]) == 0
    ta, tb = a.read_text(), b.read_text()
    # provenance embeds the output path, which differs; compare with it masked
    assert ta.replace(str(a), "OUT") == tb.replace(str(b), "OUT")

    s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
    pts_path = tmp_path / "pts.txt"
    run(["gen-gmm", "--out", str(pts_path), "--n", "80", "--seed", "5"])
    for out in (s1, s2):
        assert run(["sweep-k", "--input", str(pts_path), "--k-grid", "0.2,1.0",
                    "--repeats", "2", "--seed", "6", "--out", str(out)]) == 0
    assert s1.read_text().replace(str(s1), "OUT") == s2.read_text().replace(str(s2), "OUT")
