"""End-to-end tests for each command-line subcommand."""

from dataclasses import fields

import numpy as np
import pytest

from mlgp.cli import build_parser, main
from mlgp.experiment import (RECORDS_HEADER, RESULTS_HEADER, ProtocolConfig, load_records,
                             load_results)
from mlgp.models import build_model, load_checkpoint
from mlgp.nn import forward, softmax_cross_entropy
from mlgp.tetris import DATASET_HEADER, load_dataset
from mlgp import _serialize, experiment, models


def run(*argv):
    return main([str(a) for a in argv])


def test_gen_data(tmp_path, capsys):
    out = tmp_path / "data.csv"
    assert run("gen-data", "--kind", "theta_train", "--size", "24",
               "--noise", "0.1", "--seed", "3", "--out", out) == 0
    data = load_dataset(out)
    assert len(data) == 24
    assert "24 shapes" in capsys.readouterr().out


def test_gen_data_rejects_unknown_kind(tmp_path):
    with pytest.raises(SystemExit):
        run("gen-data", "--kind", "nope", "--out", tmp_path / "x.csv")


def one_line_error(capsys):
    """True if the command wrote one ``error:`` line and no output."""
    captured = capsys.readouterr()
    err = captured.err.strip()
    return err.startswith("error:") and "\n" not in err and not captured.out


def test_gen_data_rejects_nan_inf_and_overflowing_noise(tmp_path, capsys):
    for noise in ("nan", "inf", "1e308"):
        out = tmp_path / f"{noise}.csv"
        assert run("gen-data", "--size", "16", "--noise", noise, "--out", out) == 1
        assert one_line_error(capsys)
        assert not out.exists()


def test_gen_data_train_and_isometry_test_check_the_seed(tmp_path, capsys):
    # a negative seed printed NumPy's "expected non-negative integer", naming no seed
    ckpt = _trained_checkpoint(tmp_path, epochs=5)
    data = tmp_path / "data.csv"
    assert run("gen-data", "--size", "16", "--seed", "1", "--out", data) == 0
    capsys.readouterr()
    for argv in (("gen-data", "--size", "16", "--out", tmp_path / "bad.csv"),
                 ("train", "--model", "mlgp", "--train", data, "--epochs", "2",
                  "--out", tmp_path / "bad.json"),
                 ("isometry-test", "--checkpoint", ckpt, "--test", data, "--trials", "2")):
        assert run(*argv, "--seed", "-1") == 1
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be an integer >= 0, got -1\n" and not captured.out
    assert not (tmp_path / "bad.csv").exists() and not (tmp_path / "bad.json").exists()


def test_train_and_checkpoint(tmp_path, capsys):
    data = tmp_path / "train.csv"
    val = tmp_path / "val.csv"
    ckpt = tmp_path / "model.json"
    assert run("gen-data", "--size", "64", "--seed", "1", "--out", data) == 0
    assert run("gen-data", "--size", "32", "--seed", "2", "--out", val) == 0
    assert run("train", "--model", "mlgp", "--train", data, "--val", val,
               "--epochs", "60", "--seed", "5", "--out", ckpt) == 0
    kind, layers, step = load_checkpoint(ckpt)
    assert kind == "mlgp"
    assert step == 60
    out = capsys.readouterr().out
    assert "val accuracy" in out


def test_train_prints_the_loss_of_the_model_it_saves(tmp_path, capsys):
    # at --epochs 0 that is the initial model's finite loss, which printed as nan
    data = tmp_path / "train.csv"
    ckpt = tmp_path / "model.json"
    run("gen-data", "--size", "64", "--seed", "1", "--out", data)
    train = load_dataset(data)
    initial = build_model("mlp", np.random.default_rng(5))
    for epochs in (0, 3):
        capsys.readouterr()
        assert run("train", "--model", "mlp", "--train", data, "--epochs", epochs,
                   "--seed", "5", "--out", ckpt) == 0
        _, model, _ = load_checkpoint(ckpt)
        assert np.array_equal(model.theta, initial.theta) == (epochs == 0)
        loss = softmax_cross_entropy(forward(model, train.points)[0], train.labels)[0]
        assert np.isfinite(loss)
        out = capsys.readouterr().out
        assert f"trained mlp for {epochs} epochs, final loss {loss:.6f}\n" in out


def test_train_missing_file_fails(tmp_path):
    assert run("train", "--model", "mlp", "--train", tmp_path / "none.csv",
               "--out", tmp_path / "x.json") == 1


def test_train_loads_every_dataset_before_the_fit(tmp_path, capsys):
    data = tmp_path / "train.csv"
    ckpt = tmp_path / "model.json"
    assert run("gen-data", "--size", "16", "--seed", "1", "--out", data) == 0
    capsys.readouterr()
    assert run("train", "--model", "mlp", "--train", data, "--test", tmp_path / "none.csv",
               "--epochs", "5", "--out", ckpt) == 1
    assert one_line_error(capsys)
    assert not ckpt.exists()


def test_train_and_isometry_test_reject_a_dataset_with_no_shapes(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text(DATASET_HEADER + "\n")
    data = tmp_path / "train.csv"
    ckpt = tmp_path / "model.json"
    assert run("gen-data", "--size", "16", "--seed", "1", "--out", data) == 0
    capsys.readouterr()
    for argv in (["--train", empty], ["--train", data, "--test", empty]):
        assert run("train", "--model", "mlgp", *argv, "--epochs", "5", "--out", ckpt) == 1
        assert capsys.readouterr().err == f"error: no shapes in {empty}\n"
        assert not ckpt.exists()
    assert run("train", "--model", "mlgp", "--train", data, "--epochs", "5",
               "--out", ckpt) == 0
    capsys.readouterr()
    assert run("isometry-test", "--checkpoint", ckpt, "--test", empty) == 1
    assert capsys.readouterr().err == f"error: no shapes in {empty}\n"


def test_protocol(tmp_path, capsys, monkeypatch):
    results = tmp_path / "results.csv"
    records = tmp_path / "records.csv"
    monkeypatch.setattr(experiment, "usable_cpus", lambda: 2)  # a pool, on any machine
    assert run("protocol", "--models", "mlp,mlgp", "--runs", "2",
               "--epochs", "20", "--train-size", "32", "--val-size", "32",
               "--test-size", "32", "--top-k", "1", "--seed", "9",
               "--results", results, "--records", records) == 0
    stats = load_results(results)
    assert len(stats) == 4  # 2 models x (all_runs, top_k)
    assert {s.model for s in stats} == {"mlp", "mlgp"}
    recs = load_records(records)
    assert len(recs) == 4
    out = capsys.readouterr().out
    assert RESULTS_HEADER in out
    assert results.read_text().startswith(RESULTS_HEADER)
    assert records.read_text().startswith(RECORDS_HEADER)
    # on one CPU the same tables come out, apart from the wall-time column
    monkeypatch.setattr(experiment, "usable_cpus", lambda: 1)
    serial = [tmp_path / "serial-results.csv", tmp_path / "serial-records.csv"]
    assert run("protocol", "--models", "mlp,mlgp", "--runs", "2",
               "--epochs", "20", "--train-size", "32", "--val-size", "32",
               "--test-size", "32", "--top-k", "1", "--seed", "9",
               "--results", serial[0], "--records", serial[1]) == 0
    assert serial[0].read_bytes() == results.read_bytes()
    assert [r.rsplit(",", 1)[0] for r in serial[1].read_text().splitlines()] == \
        [r.rsplit(",", 1)[0] for r in records.read_text().splitlines()]


def test_protocol_flags_are_the_config_fields():
    reference = ProtocolConfig()
    args = vars(build_parser().parse_args(["protocol", "--results", "r.csv"]))
    names = {f.name for f in fields(ProtocolConfig)}
    assert set(args) == names | {"command", "desk_scale", "results", "records"}
    assert {name: args[name] for name in names} == vars(reference)
    args = build_parser().parse_args(["protocol", "--noise", "0.2", "--seed", "3",
                                      "--models", "mlp,mlgp", "--results", "r.csv"])
    assert (args.noise_a, args.master_seed, args.models) == (0.2, 3, ("mlp", "mlgp"))
    args = build_parser().parse_args(["train", "--model", "mlp", "--train", "t.csv",
                                      "--out", "m.json"])
    assert (args.epochs, args.lr) == (reference.epochs, reference.lr)


def test_protocol_desk_scale_flag(tmp_path):
    # desk scale overrides runs/test size but keeps explicit small sizes fast
    results = tmp_path / "results.csv"
    assert run("protocol", "--models", "mlhp", "--desk-scale", "--epochs", "5",
               "--train-size", "32", "--val-size", "32", "--test-size", "32",
               "--seed", "4", "--results", results) == 0
    # desk scale forces the 10000-sample test set
    stats = load_results(results)
    assert len(stats) == 2


def test_protocol_rejects_empty_or_repeated_models(tmp_path, capsys):
    results = tmp_path / "results.csv"
    for kinds in ("", "mlp,mlp"):
        assert run("protocol", "--models", kinds, "--runs", "1", "--epochs", "3",
                   "--train-size", "16", "--val-size", "16", "--test-size", "16",
                   "--results", results) == 1
        assert one_line_error(capsys)
        assert not results.exists()


def test_protocol_rejects_an_unknown_experiment(tmp_path, capsys):
    results = tmp_path / "results.csv"
    assert run("protocol", "--experiment", "nope", "--runs", "1", "--epochs", "3",
               "--results", results) == 1
    assert one_line_error(capsys)
    assert not results.exists()


def test_train_rejects_negative_epochs(tmp_path, capsys):
    data = tmp_path / "train.csv"
    ckpt = tmp_path / "model.json"
    run("gen-data", "--size", "16", "--seed", "1", "--out", data)
    capsys.readouterr()
    assert run("train", "--model", "mlp", "--train", data, "--epochs", "-1",
               "--out", ckpt) == 1
    err = capsys.readouterr().err
    assert err.strip() == "error: epochs must be an integer >= 0, got -1"
    assert not ckpt.exists()


def test_train_reports_a_diverged_fit(tmp_path, capsys):
    data = tmp_path / "train.csv"
    ckpt = tmp_path / "model.json"
    run("gen-data", "--size", "64", "--seed", "1", "--out", data)
    capsys.readouterr()
    assert run("train", "--model", "mlhp", "--train", data, "--epochs", "300",
               "--lr", "1e300", "--out", ckpt) == 1
    captured = capsys.readouterr()
    assert not captured.out
    # the loss is sampled at epochs 1, 100, 200 and 300: 100 is the first non-finite one
    assert captured.err == (f"error: training diverged by epoch 100 (loss nan); "
                            f"no checkpoint written to {ckpt}\n")
    assert not ckpt.exists()


def test_train_reports_a_fit_that_diverges_on_its_last_step(tmp_path, capsys):
    # epoch 1's loss precedes its step and is finite; the step leaves theta
    # near 1e300, whose logits overflow, so only the fitted model shows it
    data = tmp_path / "t.csv"
    ckpt = tmp_path / "model.json"
    run("gen-data", "--size", "64", "--seed", "1", "--out", data)
    capsys.readouterr()
    assert run("train", "--model", "mlhp", "--train", data, "--epochs", "1",
               "--lr", "1e300", "--out", ckpt) == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == (f"error: training diverged by epoch 1 (loss nan); "
                            f"no checkpoint written to {ckpt}\n")
    assert not ckpt.exists()


def test_train_and_protocol_reject_bad_adam_settings(tmp_path, capsys):
    data = tmp_path / "train.csv"
    ckpt = tmp_path / "model.json"
    results = tmp_path / "results.csv"
    run("gen-data", "--size", "16", "--seed", "1", "--out", data)
    capsys.readouterr()
    for flag, value in (("--lr", "nan"), ("--lr", "0")):
        assert run("train", "--model", "mlp", "--train", data, "--epochs", "3",
                   flag, value, "--out", ckpt) == 1
        assert one_line_error(capsys)
        assert not ckpt.exists()
        assert run("protocol", "--models", "mlp", "--runs", "1", "--epochs", "3",
                   flag, value, "--train-size", "16", "--val-size", "16",
                   "--test-size", "16", "--results", results) == 1
        assert one_line_error(capsys)
        assert not results.exists()


def _trained_checkpoint(tmp_path, model="mlgp", epochs=200):
    data = tmp_path / "train.csv"
    ckpt = tmp_path / f"{model}.json"
    run("gen-data", "--size", "128", "--seed", "11", "--out", data)
    run("train", "--model", model, "--train", data, "--epochs", str(epochs),
        "--seed", "12", "--out", ckpt)
    return ckpt


def test_isometry_test_passes_for_mlgp(tmp_path, capsys):
    ckpt = _trained_checkpoint(tmp_path)
    test = tmp_path / "test.csv"
    run("gen-data", "--size", "64", "--seed", "13", "--out", test)
    assert run("isometry-test", "--checkpoint", ckpt, "--test", test,
               "--trials", "8", "--seed", "14") == 0
    out = capsys.readouterr().out
    assert "transformed_model_transformed_data" in out
    assert "max logit deviation" in out


def test_isometry_test_fails_on_a_nan_deviation(tmp_path, monkeypatch, capsys):
    # a checkpoint cannot hold a non-finite theta, so the model is put in its place
    model = build_model("mlgp", np.random.default_rng(16))
    model.theta[:] = np.nan
    monkeypatch.setattr(models, "load_checkpoint", lambda path: (None, model, None))
    test = tmp_path / "test.csv"
    run("gen-data", "--size", "16", "--seed", "17", "--out", test)
    assert run("isometry-test", "--checkpoint", "unused.json", "--test", test,
               "--trials", "2") == 1
    captured = capsys.readouterr()
    assert "max logit deviation: nan" in captured.out
    assert "invariant failure" in captured.err


def test_isometry_test_rejects_non_mlgp(tmp_path):
    ckpt = _trained_checkpoint(tmp_path, model="mlp", epochs=5)
    test = tmp_path / "test.csv"
    run("gen-data", "--size", "16", "--seed", "15", "--out", test)
    assert run("isometry-test", "--checkpoint", ckpt, "--test", test) == 1


def test_export_spheres(tmp_path, capsys):
    ckpt = _trained_checkpoint(tmp_path, epochs=20)
    out = tmp_path / "spheres.json"
    assert run("export-spheres", "--checkpoint", ckpt, "--out", out) == 0
    report = _serialize.load(out)
    assert len(report["units"]) == 4
    assert "16 spheres" in capsys.readouterr().out


def test_export_spheres_rejects_non_mlgp(tmp_path):
    ckpt = _trained_checkpoint(tmp_path, model="mlhp", epochs=5)
    assert run("export-spheres", "--checkpoint", ckpt,
               "--out", tmp_path / "s.json") == 1


def test_export_spheres_rejects_checkpoint_without_key(tmp_path, capsys):
    ckpt = _trained_checkpoint(tmp_path, epochs=5)
    doc = _serialize.load(ckpt)
    del doc["adam_step"]
    _serialize.save(ckpt, doc)
    assert run("export-spheres", "--checkpoint", ckpt,
               "--out", tmp_path / "s.json") == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "adam_step" in err and "\n" not in err


def test_isometry_test_and_export_spheres_reject_v1_checkpoint(tmp_path, capsys):
    # the per-layer layout that mlgp-checkpoint-v1 files hold
    layers = build_model("mlgp", np.random.default_rng(16)).layers
    specs = (("geometric", "identity"), ("hypersphere", "identity"))
    ckpt = tmp_path / "v1.json"
    _serialize.save(ckpt, {
        "format": "mlgp-checkpoint-v1", "model": "mlgp", "adam_step": 5,
        "layers": [{"kind": kind, "in_dim": layer.in_dim, "out_dim": layer.out_dim,
                    "activation": activation, "weights": layer.w.tolist(), "bias": None}
                   for layer, (kind, activation) in zip(layers, specs)],
    })
    test = tmp_path / "test.csv"
    run("gen-data", "--size", "16", "--seed", "15", "--out", test)
    capsys.readouterr()
    for argv in (("isometry-test", "--checkpoint", ckpt, "--test", test),
                 ("export-spheres", "--checkpoint", ckpt, "--out", tmp_path / "s.json")):
        assert run(*argv) == 1
        err = capsys.readouterr().err.strip()
        assert err == f"error: not a model checkpoint: {ckpt}"
    assert not (tmp_path / "s.json").exists()


def test_isometry_test_and_export_spheres_reject_v2_checkpoint(tmp_path, capsys):
    # mlgp-checkpoint-v2 files hold mlp's biases after its weights, not as their last column
    model = build_model("mlp", np.random.default_rng(16))
    ckpt = tmp_path / "v2.json"
    _serialize.save(ckpt, {"format": "mlgp-checkpoint-v2", "model": "mlp", "adam_step": 5,
                           "theta": model.theta.tolist()})
    test = tmp_path / "test.csv"
    run("gen-data", "--size", "16", "--seed", "15", "--out", test)
    capsys.readouterr()
    for argv in (("isometry-test", "--checkpoint", ckpt, "--test", test),
                 ("export-spheres", "--checkpoint", ckpt, "--out", tmp_path / "s.json")):
        assert run(*argv) == 1
        err = capsys.readouterr().err.strip()
        assert err == f"error: not a model checkpoint: {ckpt}"
    assert not (tmp_path / "s.json").exists()
