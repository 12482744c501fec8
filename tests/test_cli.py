"""End-to-end tests for each command-line subcommand."""

import numpy as np
import pytest

from mlgp.cli import main
from mlgp.experiment import RECORDS_HEADER, RESULTS_HEADER, load_records, load_results
from mlgp.models import load_checkpoint
from mlgp.tetris import load_dataset
from mlgp import _serialize


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


def test_train_missing_file_fails(tmp_path):
    assert run("train", "--model", "mlp", "--train", tmp_path / "none.csv",
               "--out", tmp_path / "x.json") == 1


def test_protocol(tmp_path, capsys):
    results = tmp_path / "results.csv"
    records = tmp_path / "records.csv"
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


def test_protocol_desk_scale_flag(tmp_path):
    # desk scale overrides runs/test size but keeps explicit small sizes fast
    results = tmp_path / "results.csv"
    assert run("protocol", "--models", "mlhp", "--desk-scale", "--epochs", "5",
               "--train-size", "32", "--val-size", "32", "--test-size", "32",
               "--seed", "4", "--results", results) == 0
    # desk scale forces the 10000-sample test set
    stats = load_results(results)
    assert len(stats) == 2


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
