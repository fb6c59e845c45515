"""End-to-end smoke tests of every CLI subcommand."""

import importlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from timeflow import build_flow, load_checkpoint, save_checkpoint
from timeflow.cli import run
from timeflow.flow import randomize_parameters


def run_cli(*argv):
    return run(list(argv))


TRAIN_TINY = [
    "train", "--dataset", "toy:two_gaussians", "--n", "400", "--layers", "2",
    "--hidden", "6", "--epochs", "2", "--batch-size", "128", "--lr", "0.005",
    "--seed", "3",
]


def test_console_script_target_is_callable():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    for target in scripts.values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr, None)), target


def test_train_smoke(tmp_path):
    out = tmp_path / "run"
    assert run_cli(*TRAIN_TINY, "--out", str(out)) == 0
    assert (out / "checkpoint.json").exists()
    history = (out / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,train_nll,val_nll"
    assert len(history) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["seed"] == 3
    assert "numpy" in manifest["versions"]


def test_train_zero_epochs_checkpoint_is_initialization(tmp_path):
    out = tmp_path / "run"
    argv = list(TRAIN_TINY)
    argv[argv.index("--epochs") + 1] = "0"
    assert run_cli(*argv, "--out", str(out)) == 0
    loaded = load_checkpoint(out / "checkpoint.json")
    from timeflow import SolverConfig

    fresh = build_flow(2, n_layers=2, kind="coupling", family="quadratic",
                       hidden_dims=(6,), solver=SolverConfig(steps=16), seed=3)
    for a, b in zip(loaded.parameters(), fresh.parameters()):
        assert np.array_equal(a, b)
    history = (out / "history.csv").read_text().splitlines()
    assert history == ["epoch,train_nll,val_nll"]


def test_train_outputs_byte_identical_across_runs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(*TRAIN_TINY, "--out", str(out1)) == 0
    assert run_cli(*TRAIN_TINY, "--out", str(out2)) == 0
    assert (out1 / "history.csv").read_bytes() == (out2 / "history.csv").read_bytes()
    assert (out1 / "checkpoint.json").read_bytes() == (out2 / "checkpoint.json").read_bytes()


def test_sample_and_density_grid(tmp_path):
    out = tmp_path / "run"
    assert run_cli(*TRAIN_TINY, "--out", str(out)) == 0
    ck = str(out / "checkpoint.json")

    sample_out = tmp_path / "samples"
    assert run_cli("sample", "--checkpoint", ck, "--n", "50", "--seed", "1",
                   "--out", str(sample_out)) == 0
    lines = (sample_out / "samples.csv").read_text().splitlines()
    assert lines[0] == "x0,x1"
    assert len(lines) == 51

    sample_out2 = tmp_path / "samples2"
    assert run_cli("sample", "--checkpoint", ck, "--n", "50", "--seed", "1",
                   "--out", str(sample_out2)) == 0
    assert ((sample_out / "samples.csv").read_bytes()
            == (sample_out2 / "samples.csv").read_bytes())

    grid_out = tmp_path / "grid"
    assert run_cli("density-grid", "--checkpoint", ck, "--range=-4,4",
                   "--grid", "11", "--out", str(grid_out)) == 0
    lines = (grid_out / "density.csv").read_text().splitlines()
    assert lines[0] == "x,y,log_density"
    assert len(lines) == 1 + 121


def test_invert_bench_smoke(tmp_path):
    out = tmp_path / "bench"
    assert run_cli("invert-bench", "--n", "20", "--tolerances", "1e-3,1e-4",
                   "--seed", "0", "--out", str(out)) == 0
    lines = (out / "bench.csv").read_text().splitlines()
    assert lines[0] == "tolerance,method,mean_steps,failures"
    assert len(lines) == 5


def test_universality_smoke(tmp_path, capsys):
    out = tmp_path / "uni"
    assert run_cli("universality", "--target", "affine", "--alpha", "2",
                   "--beta", "1", "--s", "0.5,0.333,0.25,0.2",
                   "--out", str(out)) == 0
    printed = capsys.readouterr().out
    slope = float(printed.split("fitted slope of log(sup_error) vs 1/s:")[1].split()[0])
    assert 0.9 <= slope <= 1.1
    assert (out / "convergence.csv").exists()


@pytest.mark.parametrize("target", ["softplus", "arctan"])
def test_universality_nonaffine_targets(tmp_path, capsys, target):
    out = tmp_path / "uni"
    assert run_cli("universality", "--target", target, "--s", "0.5,0.333,0.25,0.2",
                   "--out", str(out)) == 0
    printed = capsys.readouterr().out
    slope = float(printed.split("fitted slope of log(sup_error) vs 1/s:")[1].split()[0])
    assert 0.9 <= slope <= 1.1
    assert len((out / "convergence.csv").read_text().splitlines()) == 5


def test_train_on_a_csv_dataset(tmp_path, capsys):
    rows = np.random.default_rng(0).standard_normal((120, 3)) * [1.0, 2.0, 0.5]
    data = tmp_path / "data.csv"
    data.write_text("a,b,c\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows.tolist()))
    out = tmp_path / "run"
    assert run_cli("train", "--dataset", f"csv:{data}", "--layers", "2", "--hidden", "4",
                   "--kind", "autoregressive", "--family", "sigmoid_affine", "--epochs", "2",
                   "--solver-steps", "4", "--out", str(out)) == 0
    assert "(120 rows, dim 3)" in capsys.readouterr().out
    assert load_checkpoint(out / "checkpoint.json").dim == 3
    assert len((out / "history.csv").read_text().splitlines()) == 3


def test_roundtrip_of_a_checkpoint(tmp_path):
    model = build_flow(3, n_layers=2, kind="autoregressive", family="sigmoid_affine",
                       hidden_dims=(5,), seed=4)
    ck = tmp_path / "m.json"
    save_checkpoint(randomize_parameters(model, seed=5, scale=0.3), ck)
    out = tmp_path / "rt"
    assert run_cli("roundtrip", "--checkpoint", str(ck), "--n", "20", "--out", str(out)) == 0
    header, row = (out / "roundtrip.csv").read_text().splitlines()
    assert row.split(",")[0] == "20" and float(row.split(",")[1]) < 1e-6


def test_gradcheck_smoke(tmp_path, capsys):
    out = tmp_path / "grad"
    assert run_cli("gradcheck", "--seed", "7", "--out", str(out)) == 0
    printed = capsys.readouterr().out
    overall = float(printed.split("overall max relative error:")[1].split()[0])
    assert overall < 1e-4
    lines = (out / "gradcheck.csv").read_text().splitlines()
    assert lines[0] == "suite,max_rel_error"
    for line in lines[1:]:  # plain floats, never numpy reprs such as np.float64(...)
        float(line.split(",")[1])


def test_roundtrip_smoke(tmp_path):
    out = tmp_path / "rt"
    assert run_cli("roundtrip", "--dim", "4", "--layers", "4", "--n", "50",
                   "--seed", "0", "--out", str(out)) == 0
    lines = (out / "roundtrip.csv").read_text().splitlines()
    assert lines[0] == "n,max_abs_error,tolerance"


def test_config_file_provides_defaults_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 0, "n": 300, "seed": 3}))
    out = tmp_path / "run"
    argv = ["train", "--dataset", "toy:two_gaussians", "--layers", "2",
            "--hidden", "6", "--batch-size", "128",
            "--config", str(cfg), "--n", "400", "--out", str(out)]
    assert run_cli(*argv) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["epochs"] == 0  # from config file
    assert manifest["config"]["n"] == 400  # explicit flag wins
    assert manifest["seed"] == 3


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nonsense": 1}))
    assert run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "x")) == 3


def test_exit_codes(capsys):
    import tempfile

    with tempfile.TemporaryDirectory() as td:
        # invalid configuration values
        assert run_cli("train", "--layers", "0", "--epochs", "1",
                       "--out", os.path.join(td, "a")) == 3
        assert run_cli("train", "--dataset", "toy:spiral",
                       "--out", os.path.join(td, "b")) == 3
        # missing checkpoint file
        assert run_cli("sample", "--checkpoint", os.path.join(td, "nope.json"),
                       "--out", os.path.join(td, "c")) == 4
        # a checkpoint that claims another format version
        ck = os.path.join(td, "v2.json")
        save_checkpoint(build_flow(2, n_layers=1, hidden_dims=(4,), seed=0), ck)
        with open(ck, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["version"] = 2
        with open(ck, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        assert run_cli("sample", "--checkpoint", ck, "--out", os.path.join(td, "d")) == 4
        # malformed checkpoints: a missing key, an activation other than tanh, a
        # scheme other than rk4, a family that is not built in, or a value that is
        # not of its key's JSON type; the message names the file and, after it,
        # the words listed
        for spoil, words in (
                (lambda d: d.pop("dim"), ()), (lambda d: d["layers"][0].pop("kind"), ()),
                (lambda d: d["layers"][0]["conditioner"].update(activation="relu"), ()),
                (lambda d: d["layers"][0]["solver"].update(scheme="euler"),
                 ("(layer 0)", "'euler'")),
                (lambda d: d["layers"][0].update(family="custom"), ("(layer 0)", "'custom'")),
                (lambda d: d["layers"][0].update(transform_upper="false"),
                 ("(layer 0)", "'transform_upper'")),
                (lambda d: d["layers"][0]["solver"].update(steps=16.9), ("(layer 0)", "'steps'")),
                (lambda d: d["layers"][2]["solver"].update(steps=True), ("(layer 2)", "'steps'")),
                (lambda d: d["layers"][0].update(split=1.7), ("(layer 0)", "'split'")),
                (lambda d: d.update(dim=2.5), ("'dim'",)),
                (lambda d: d["layers"][1].update(perm=[1.0, 0.0]), ("(layer 1)", "'perm'")),
                (lambda d: d["layers"][2]["conditioner"].update(layer_dims=[1, 4.0, 3]),
                 ("(layer 2)", "'layer_dims'"))):
            save_checkpoint(build_flow(2, n_layers=2, hidden_dims=(4,), seed=0), ck)
            with open(ck, encoding="utf-8") as fh:
                doc = json.load(fh)
            spoil(doc)
            with open(ck, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            capsys.readouterr()
            assert run_cli("sample", "--checkpoint", ck, "--out", os.path.join(td, "d")) == 4
            err = capsys.readouterr().err
            assert err.startswith(f"error: {ck}: ") and all(w in err for w in words), err
        # config-file values are held to their flags' types and choices, and a
        # config file holds one JSON object
        cfg = os.path.join(td, "cfg.json")
        for command, doc in (("roundtrip", {"kind": "nope"}), ("roundtrip", {"family": "nope"}),
                             ("train", {"scheme": "midpoint"}), ("train", {"scheme": "euler"}),
                             ("train", [1, 2]),
                             ("train", {"layers": None}), ("train", {"epochs": 1.5}),
                             ("gradcheck", {"seed": "x"}), ("roundtrip", {"tol": "big"}),
                             ("train", {"hidden": 24}), ("train", {"kind": None}),
                             ("train", {"epochs": True})):
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            assert run_cli(command, "--config", cfg, "--out", os.path.join(td, "e")) == 3
        # values that fail up-front checks
        for argv in (("universality", "--iterations", "0"), ("universality", "--quad-nodes", "1"),
                     ("universality", "--s", "0,1,2,3"), ("invert-bench", "--coeffs", "nan,0,0")):
            assert run_cli(*argv, "--out", os.path.join(td, "f")) == 3
        # malformed comma lists, on the command line or in a config file, name their flag
        capsys.readouterr()
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump({"hidden": "4,x"}, fh)
        for argv in (("train", "--hidden", "x"), ("train", "--lr-decay-epochs", "1.5"),
                     ("train", "--split", "a,b,c"), ("universality", "--s", "foo"),
                     ("density-grid", "--checkpoint", ck, "--range", "a,b"),
                     ("invert-bench", "--coeffs", "a,b,c"), ("train", "--config", cfg)):
            assert run_cli(*argv, "--out", os.path.join(td, "g")) == 3
            flag = "--hidden" if argv[1] == "--config" else argv[-2]
            assert flag in capsys.readouterr().err
        # usage errors come from argparse
        for argv in (("train", "--no-such-flag"), ("train", "--scheme", "euler")):
            with pytest.raises(SystemExit) as err:
                run_cli(*argv)
            assert err.value.code == 2
        with pytest.raises(SystemExit):
            run_cli("not-a-command")


@pytest.mark.parametrize("argv", [("--split", "0,0.5,0.5"), ("--n", "1")], ids=["split", "n"])
def test_a_split_without_training_rows_is_a_config_error(tmp_path, capsys, argv):
    assert run_cli("train", *argv, "--out", str(tmp_path)) == 3
    err = capsys.readouterr().err
    assert "no training rows" in err and "--split" in err and "--n" in err


def test_config_values_convert_with_their_flags_types(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"layers": None, "epochs": 1.5, "lr": "fast"}))
    assert run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "x")) == 3
    err = capsys.readouterr().err
    assert all(f"config key {k!r}" in err for k in ("layers", "epochs", "lr"))
    # a string parses as on the command line; a whole float passes for an int
    # flag's type only if it converts to an equal value, and 1 passes for a float
    cfg.write_text(json.dumps({"epochs": "0", "n": 200.0, "lr": 1, "layers": 1,
                               "hidden": "4"}))
    out = tmp_path / "run"
    assert run_cli("train", "--config", str(cfg), "--out", str(out)) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert (config["epochs"], config["n"], config["lr"]) == (0, 200, 1.0)
    assert type(config["n"]) is int and type(config["lr"]) is float


def test_a_file_that_is_not_json_is_named(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert run_cli("train", "--config", str(bad), "--out", str(tmp_path / "x")) == 3
    assert str(bad) in capsys.readouterr().err
    assert run_cli("sample", "--checkpoint", str(bad), "--out", str(tmp_path / "y")) == 4
    assert str(bad) in capsys.readouterr().err


def test_density_grid_requires_2d_model(tmp_path):
    model = build_flow(3, n_layers=1, kind="autoregressive", hidden_dims=(4,), seed=0)
    ck = tmp_path / "m.json"
    save_checkpoint(model, ck)
    assert run_cli("density-grid", "--checkpoint", str(ck),
                   "--out", str(tmp_path / "g")) == 3


def test_preset_loading(tmp_path):
    out = tmp_path / "p"
    # presets carry full-scale hyperparameters; override epochs for a smoke run
    code = run_cli("train", "--preset", "miniboone", "--dataset",
                   "toy:two_gaussians", "--n", "200", "--epochs", "0",
                   "--hidden", "6", "--out", str(out))
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["layers"] == 5  # from the preset
    assert manifest["config"]["batch_size"] == 256
