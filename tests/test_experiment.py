"""Tests for the protocol, statistics, isometry test, and sphere export."""

import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mlgp import nn
from mlgp.conformal import sphere_from_center_radius
from mlgp.experiment import (
    COMBO_NAMES,
    RECORDS_HEADER,
    RESULTS_HEADER,
    ProtocolConfig,
    RunRecord,
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
from mlgp.models import MODEL_KINDS, accuracy, build_model, transform_mlgp_weights
from mlgp.nn import EVAL_BLOCK, forward
from mlgp.tetris import DATASET_HEADER, THETA_EVAL, make_dataset, sample_motion

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
    assert (nn.BETA1, nn.BETA2) == (0.9, 0.999)
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
    # Adam settings fail at construction, before any data is sampled
    for bad in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="learning rate"):
            ProtocolConfig(lr=bad)
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
    want = make_dataset(THETA_EVAL, 16, 0.0, derive_seed(0, 0))
    assert np.array_equal(theta.points, want.points)


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
    result = run_protocol(TINY)
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
    # a wrong header, a short row and a long row, each a one-line error naming the file,
    # then a field that does not parse
    path = tmp_path / "bad.csv"
    for load, header in ((load_records, RECORDS_HEADER), (load_results, RESULTS_HEADER)):
        row = ["0"] * len(header.split(","))
        for text in ("nope\n", f"{header}\n{','.join(row[1:])}\n",
                     f"{header}\n{','.join(row * 2)}\n"):
            path.write_text(text)
            with pytest.raises(ValueError, match=re.escape(str(path))) as err:
                load(path)
            assert "\n" not in str(err.value)
    # a field its column's type cannot parse is named with the file and line
    for load, header, good, bad, why in (
        (load_records, RECORDS_HEADER, "0,mlp,1,0.5,0.25,0.0", "x,mlp,1,0.5,0.25,0.0", "'x'"),
        (load_results, RESULTS_HEADER, "mlp,main,0.0,all_runs,25.0,0.0",
         "mlp,main,0.0,all_runs,high,0.0", "'high'"),
    ):
        path.write_text(f"{header}\n{good}\n{bad}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: ")) as err:
            load(path)
        assert why in str(err.value) and "\n" not in str(err.value)


def test_file_headers_are_pinned():
    # the records and results columns are RunRecord's and StatRow's fields,
    # so renaming a field changes a file format
    assert RECORDS_HEADER == "run_id,model,seed,val_accuracy,test_accuracy,wall_time"
    assert RESULTS_HEADER == "model,dataset,noise,stat,mean,std"
    assert DATASET_HEADER == "label,x1,y1,z1,x2,y2,z2,x3,y3,z3,x4,y4,z4"


def test_results_store_an_int_noise_as_a_float(tmp_path):
    records = [RunRecord(0, "mlp", 1, 0.5, 0.25, 0.0)]
    rows = summarize_records(records, replace(TINY, noise_a=0))
    assert all(type(row.noise) is float for row in rows)
    path = tmp_path / "results.csv"
    save_results(path, rows)
    assert path.read_text().splitlines()[1] == "mlp,main,0.0,all_runs,25.0,0.0"


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


def whole_batch_isometry_test(model, test_set, trials, seed):
    """The isometry test on whole-batch forwards: each trial moves the whole test set.

    Returns its accuracies by combination and its maximum logit deviation.
    """
    rng = np.random.default_rng(seed)
    pts, labels = test_set.points, test_set.labels

    def scored(m, p):
        logits, _ = forward(m, p)
        return logits, float(np.mean(np.argmax(logits, axis=1) == labels)) * 100.0

    base_logits, base_acc = scored(model, pts)
    accs = np.empty((len(COMBO_NAMES), trials))
    max_dev = 0.0
    for t in range(trials):
        motion = sample_motion(rng)
        moved_pts = motion.apply(pts)
        moved_model = transform_mlgp_weights(model, motion)
        logits_tt, acc_tt = scored(moved_model, moved_pts)
        max_dev = max(max_dev, float(np.abs(logits_tt - base_logits).max()))
        accs[:, t] = base_acc, acc_tt, scored(model, moved_pts)[1], scored(moved_model, pts)[1]
    return dict(zip(COMBO_NAMES, accs)), max_dev


def test_isometry_test_matches_the_whole_batch_reference():
    model = make_small_trained_mlgp()
    test_set = make_dataset("main", 2 * EVAL_BLOCK + 5, noise_a=0.1, seed=53)
    report = isometry_test(model, test_set, trials=3, seed=54)
    accs, max_dev = whole_batch_isometry_test(model, test_set, 3, 54)
    assert report.max_logit_deviation == max_dev
    for name in COMBO_NAMES:
        assert np.array_equal(report.accuracies[name], accs[name]), name


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluation_holds_no_batch_sized_temporaries():
    # whole-batch scoring of these 50000 shapes peaked at 6.8-14.4 MB
    # (accuracy) and 25.6 MB (isometry test); a block's temporaries take
    # well under 1 MB
    data = make_dataset("main", 50000, seed=55)
    for kind in MODEL_KINDS:
        model = build_model(kind, np.random.default_rng(56))
        assert _peak_bytes(lambda: accuracy(model, data.points, data.labels)) < 1e6, kind
    model = make_small_trained_mlgp()
    # the base logits, (50000, 8) floats, are the one batch-sized array
    assert _peak_bytes(lambda: isometry_test(model, data, trials=2, seed=57)) < 8e6


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
