"""Tests for the protocol, statistics, isometry test, and sphere export."""

import json
from dataclasses import replace

import numpy as np
import pytest

from mlgp.conformal import sphere_from_center_radius
from mlgp.experiment import (
    COMBO_NAMES,
    ProtocolConfig,
    derive_seed,
    export_spheres,
    fit,
    isometry_test,
    load_records,
    load_results,
    make_test_set,
    run_protocol,
    run_seeds,
    save_records,
    save_results,
    summarize_records,
    train,
)
from mlgp.models import build_model
from mlgp.tetris import THETA_EVAL, make_dataset

TINY = ProtocolConfig(
    runs=2,
    epochs=40,
    train_size=64,
    val_size=64,
    test_size=64,
    top_k=1,
    master_seed=100,
)


def test_config_defaults_mirror_reference_protocol():
    c = ProtocolConfig()
    assert c.epochs == 20000
    assert c.lr == 0.001
    assert (c.beta1, c.beta2) == (0.9, 0.999)
    assert c.runs == 50
    assert c.top_k == 10
    assert (c.train_size, c.val_size, c.test_size) == (1000, 9000, 90000)
    desk = c.desk_scale()
    assert (desk.runs, desk.test_size, desk.top_k) == (5, 10000, 2)
    assert desk.epochs == 20000


def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(experiment="nope")
    with pytest.raises(ValueError):
        ProtocolConfig(models=("mlp", "nope"))
    # each count is an integer with a floor; the split sizes need all 8 classes
    for name, bad in (("runs", 0), ("runs", 1.5), ("epochs", -1), ("epochs", 2.5),
                      ("top_k", 0), ("top_k", 2.5), ("train_size", 4), ("train_size", 64.0),
                      ("val_size", 7), ("val_size", 2.5), ("test_size", 4), ("test_size", "64")):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= "):
            ProtocolConfig(**{name: bad})
    ProtocolConfig(runs=np.int64(1), epochs=0, top_k=1, train_size=8, val_size=8, test_size=8)
    for kinds in ((), ("mlp", "mlp"), ("mlgp", "mlp", "mlgp")):
        with pytest.raises(ValueError, match="models"):
            ProtocolConfig(models=kinds)


def test_derive_seed_is_deterministic_and_keyed():
    assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)
    assert derive_seed(5, 1, 2) != derive_seed(5, 1, 3)
    assert derive_seed(5, 1, 2) != derive_seed(6, 1, 2)
    seeds = run_seeds(TINY, "mlp")
    assert len(seeds) == TINY.runs
    assert len(set(seeds)) == len(seeds)
    assert seeds != run_seeds(TINY, "mlgp")


def test_make_test_set_fixed_by_master_seed():
    a = make_test_set(TINY)
    b = make_test_set(TINY)
    assert np.array_equal(a.points, b.points)
    theta = make_test_set(ProtocolConfig(experiment="theta", test_size=16))
    assert theta.meta["kind"] == THETA_EVAL


def test_fit_zero_epochs_keeps_weights():
    rng = np.random.default_rng(40)
    model = build_model("mlgp", rng)
    before = model.theta.copy()
    data = make_dataset("main", 32, seed=41)
    losses = fit(model, data.points, data.labels, 0)
    assert losses.shape == (0,)
    assert np.array_equal(model.theta, before)


def test_fit_rejects_negative_or_non_integer_epochs():
    model = build_model("mlp", np.random.default_rng(44))
    before = model.theta.copy()
    data = make_dataset("main", 16, seed=45)
    for epochs in (-1, 2.5, "3", None):
        with pytest.raises(ValueError, match=r"epochs must be an integer >= 0"):
            fit(model, data.points, data.labels, epochs)
    assert np.array_equal(model.theta, before)
    assert fit(model, data.points, data.labels, np.int64(2)).shape == (2,)


def test_fit_reduces_loss():
    rng = np.random.default_rng(42)
    data = make_dataset("main", 64, seed=43)
    for kind in ("mlp", "mlhp", "mlgp"):
        model = build_model(kind, rng)
        losses = fit(model, data.points, data.labels, 300)
        assert losses[-1] < losses[0]


def test_train_zero_epochs_near_chance():
    config = replace(TINY, epochs=0, test_size=2048)
    test_set = make_test_set(config)
    _, record = train(config, "mlgp", derive_seed(0, 1), test_set)
    # untrained balanced 8-way classifier sits near 1/8
    assert 0.03 <= record.test_accuracy <= 0.25


def test_run_protocol_is_deterministic():
    a = run_protocol(TINY)
    b = run_protocol(TINY)
    assert len(a.records) == TINY.runs * len(TINY.models)
    for ra, rb in zip(a.records, b.records):
        assert ra.same_outcome(rb)
    # stats rows identical as well
    assert a.stats == b.stats


def test_run_protocol_structure_and_stats():
    result = run_protocol(TINY, keep_models=True)
    assert set(result.chains) == {
        (m, r) for m in TINY.models for r in range(TINY.runs)
    }
    by_stat = {(s.model, s.stat): s for s in result.stats}
    for model in TINY.models:
        recs = [r for r in result.records if r.model == model]
        accs = np.array([r.test_accuracy for r in recs]) * 100.0
        row = by_stat[(model, "all_runs")]
        assert row.mean == pytest.approx(accs.mean(), abs=1e-12)
        assert row.std == pytest.approx(accs.std(), abs=1e-12)
        # top-1 row picks the best-validation run
        best = max(recs, key=lambda r: r.val_accuracy)
        top = by_stat[(model, "top_k")]
        assert top.mean == pytest.approx(best.test_accuracy * 100.0, abs=1e-12)
        assert top.std == 0.0
    assert result.best_chain("mlgp").kind == "mlgp"


def test_single_run_std_is_zero():
    config = ProtocolConfig(
        models=("mlp",), runs=1, epochs=10, train_size=32, val_size=32,
        test_size=32, top_k=1, master_seed=7,
    )
    result = run_protocol(config)
    assert all(s.std == 0.0 for s in result.stats)


def test_top_k_equal_to_runs_matches_all_runs():
    config = ProtocolConfig(
        models=("mlhp",), runs=3, epochs=10, train_size=32, val_size=32,
        test_size=32, top_k=3, master_seed=8,
    )
    result = run_protocol(config)
    rows = {s.stat: s for s in result.stats}
    assert rows["top_k"].mean == pytest.approx(rows["all_runs"].mean, abs=1e-12)
    assert rows["top_k"].std == pytest.approx(rows["all_runs"].std, abs=1e-12)


def test_records_roundtrip_and_stat_recomputation(tmp_path):
    result = run_protocol(TINY)
    records_path = tmp_path / "records.csv"
    results_path = tmp_path / "results.csv"
    save_records(records_path, result.records)
    save_results(results_path, result.stats)
    loaded = load_records(records_path)
    assert len(loaded) == len(result.records)
    for a, b in zip(loaded, result.records):
        assert a == b  # wall time included: repr round-trips floats
    # statistics recomputed from the persisted file match the reported ones
    recomputed = summarize_records(loaded, TINY)
    assert recomputed == result.stats
    loaded_stats = load_results(results_path)
    assert loaded_stats == result.stats


def test_records_loader_validates_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n")
    with pytest.raises(ValueError):
        load_records(path)
    with pytest.raises(ValueError):
        load_results(path)


def make_small_trained_mlgp(seed=50, epochs=300):
    rng = np.random.default_rng(seed)
    model = build_model("mlgp", rng)
    data = make_dataset("main", 128, seed=seed + 1)
    fit(model, data.points, data.labels, epochs)
    return model


def test_isometry_test_equality_holds():
    model = make_small_trained_mlgp()
    test_set = make_dataset("main", 256, seed=51)
    report = isometry_test(model, test_set, trials=20, seed=52)
    assert report.trials == 20
    assert set(report.accuracies) == set(COMBO_NAMES)
    assert report.max_logit_deviation <= 1e-9
    assert report.equality_holds
    # the matched combination is constant across trials, pinned to baseline
    matched = report.accuracies["transformed_model_transformed_data"]
    base = report.accuracies["original_model_original_data"]
    assert np.ptp(matched) == 0.0
    assert np.array_equal(matched, base)


def test_isometry_test_validation():
    with pytest.raises(ValueError):
        isometry_test(build_model("mlp"), make_dataset("main", 16, seed=1))
    with pytest.raises(ValueError):
        isometry_test(build_model("mlgp"), make_dataset("main", 16, seed=1), trials=0)


def test_export_spheres_counts_and_file(tmp_path):
    rng = np.random.default_rng(60)
    model = build_model("mlgp", rng)
    path = tmp_path / "spheres.json"
    report = export_spheres(model, path)
    assert report["format"] == "mlgp-spheres-v1"
    assert len(report["units"]) == 4
    entries = [s for u in report["units"] for s in u["spheres"]]
    assert len(entries) == 16
    # the written file is well-formed and identical in content
    on_disk = json.loads(path.read_text())
    assert on_disk == report
    with pytest.raises(ValueError):
        export_spheres(build_model("mlp", rng))


def test_export_spheres_recovers_planted_geometry():
    model = build_model("mlgp")
    gammas = [2.0, -0.5, 1.0, 3.0]
    centers = [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, -1.0], [1.0, 1.0, 1.0]]
    radii = [1.0, 0.5, 2.0, 1.5]
    model.layers[0].w[0] = np.concatenate(
        [g * sphere_from_center_radius(c, r) for g, c, r in zip(gammas, centers, radii)]
    )
    report = export_spheres(model)
    for entry, g, c, r in zip(report["units"][0]["spheres"], gammas, centers, radii):
        assert entry["gamma"] == pytest.approx(g, abs=1e-12)
        assert entry["center"] == pytest.approx(c, abs=1e-12)
        assert entry["radius_sq"] == pytest.approx(r * r, abs=1e-12)
        assert entry["radius"] == pytest.approx(r, abs=1e-12)
        assert entry["surface"] == ("I" if g > 0 else "O")
        assert not entry["imaginary_radius"]
        assert not entry["degenerate"]


def test_export_spheres_flags_imaginary_and_degenerate():
    model = build_model("mlgp")
    # block 0: negative squared radius (last slot forced large)
    model.layers[0].w[0, 0:5] = [0.0, 0.0, 0.0, 0.5, 1.0]
    # block 1: zero scale factor
    model.layers[0].w[0, 5:10] = [1.0, 0.0, 0.0, 0.5, 0.0]
    report = export_spheres(model)
    spheres = report["units"][0]["spheres"]
    assert spheres[0]["radius_sq"] == -1.0
    assert spheres[0]["imaginary_radius"]
    assert spheres[0]["radius"] is None
    assert spheres[1]["degenerate"]
    assert spheres[1]["center"] is None
    assert spheres[1]["surface"] is None
