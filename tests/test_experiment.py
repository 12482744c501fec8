"""Tests for the protocol, statistics, isometry test, and sphere export."""

import itertools
import json
import multiprocessing
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mlgp import experiment, nn
from mlgp.conformal import lift, sphere_from_center_radius
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
    loss_epochs,
    load_results,
    make_test_set,
    run_protocol,
    run_seeds,
    save_records,
    save_results,
    summarize_records,
    train,
)
from mlgp.models import MODEL_KINDS, accuracy, build_model, predict, transform_mlgp_weights
from mlgp.nn import EVAL_BLOCK, embed_input, forward
from mlgp.tetris import (DATASET_HEADER, THETA_EVAL, LabeledShapeSet, make_dataset,
                         sample_motion)

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
                      ("val_size", 7), ("val_size", 2.5), ("test_size", 4), ("test_size", "64"),
                      ("runs", True), ("epochs", True), ("top_k", True), ("train_size", True),
                      ("val_size", True), ("test_size", True), ("master_seed", True),
                      ("master_seed", 1.5), ("master_seed", "3"), ("master_seed", -1)):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= "):
            ProtocolConfig(**{name: bad})
    ProtocolConfig(runs=np.int64(1), epochs=0, top_k=1, train_size=8, val_size=8, test_size=8,
                   master_seed=np.int64(0))
    # Adam settings fail at construction, before any data is sampled
    for bad in (-1.0, np.inf, np.nan, "0.1", True, None):
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
    for epochs in (-1, 2.5, "3", None, True):
        with pytest.raises(ValueError, match=r"epochs must be an integer >= 0"):
            fit(model, data.points, data.labels, epochs)
    assert np.array_equal(model.theta, before)
    assert fit(model, data.points, data.labels, np.int64(2)).shape == (2,)


def test_fit_returns_the_loss_of_the_first_every_hundredth_and_the_last_epoch():
    data = make_dataset("main", 16, seed=45)
    sampled = {0: [], 1: [1], 2: [1, 2], 100: [1, 100], 101: [1, 100, 101],
               250: [1, 100, 200, 250]}
    for epochs, want in sampled.items():
        assert loss_epochs(epochs) == want
        model = build_model("mlp", np.random.default_rng(44))
        assert fit(model, data.points, data.labels, epochs).shape == (len(want),)


def test_fit_rejects_a_label_count_other_than_the_shape_count():
    model = build_model("mlgp", np.random.default_rng(46))
    before = model.theta.copy()
    data = make_dataset("main", 16, seed=47)
    for labels in (data.labels[:15], np.append(data.labels, 0)):
        with pytest.raises(ValueError, match=f"got {len(labels)} labels for 16 shapes"):
            fit(model, data.points, labels, 3)
    assert np.array_equal(model.theta, before)


def test_fit_rejects_a_learning_rate_that_is_not_a_positive_real_number():
    model = build_model("mlp", np.random.default_rng(48))
    before = model.theta.copy()
    data = make_dataset("main", 16, seed=49)
    for lr in ("0.1", True, None, 0.0, np.nan, 10**400):
        with pytest.raises(ValueError, match="^learning rate must be a real number in"):
            fit(model, data.points, data.labels, 2, lr)
    assert np.array_equal(model.theta, before)
    # a NumPy float trains as the same Python float does
    a, b = model.copy(), model.copy()
    assert np.array_equal(fit(a, data.points, data.labels, 3, np.float64(0.01)),
                          fit(b, data.points, data.labels, 3, 0.01))
    assert np.array_equal(a.theta, b.theta)


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


def test_isometry_test_reports_a_nan_deviation():
    model = build_model("mlgp", np.random.default_rng(50))
    model.theta[:] = np.nan
    report = isometry_test(model, make_dataset("main", 64, seed=51), trials=3, seed=52)
    assert np.isnan(report.max_logit_deviation)
    assert not report.equality_holds


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


def test_isometry_test_moves_each_block_as_rigid_motion_apply(monkeypatch):
    # every trial's moved block, moved feature-major, is lifted bit for bit as
    # the lift of RigidMotion.apply's batch-major move, one-shape blocks too
    model = make_small_trained_mlgp()
    moved_lifts = []

    def recorded_lift(x, group):
        moved_lifts.append(lift(x, group))
        return moved_lifts[-1]

    monkeypatch.setattr(experiment, "lift", recorded_lift)
    trials = 100
    for n, noise_a in itertools.product((1, 63, EVAL_BLOCK), (0.0, 0.2)):
        data = make_dataset("main", max(n, 8), noise_a, seed=n)
        test_set = LabeledShapeSet(data.points[:n], data.labels[:n])
        moved_lifts.clear()
        report = isometry_test(model, test_set, trials, seed=n)
        assert report.equality_holds, (n, noise_a)
        rng = np.random.default_rng(n)
        assert len(moved_lifts) == trials
        for t, got in enumerate(moved_lifts):
            want = embed_input(model, sample_motion(rng).apply(test_set.points))
            assert np.array_equal(got, want), (n, noise_a, t)


def test_isometry_test_rejects_non_finite_points():
    data = make_dataset("main", 16, seed=68)
    data.points[5, 0, 2] = np.nan
    with pytest.raises(ValueError, match="^points must be finite$"):
        isometry_test(make_small_trained_mlgp(), data, trials=2)


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
    # no array sized by the test set: under one (50000, 8) logits array, 3.2 MB
    assert _peak_bytes(lambda: isometry_test(model, data, trials=2, seed=57)) < 2e6


def test_isometry_test_validation():
    with pytest.raises(ValueError):
        isometry_test(build_model("mlp"), make_dataset("main", 16, seed=1))
    for trials in (0, 2.5, True):
        with pytest.raises(ValueError, match="trials must be an integer"):
            isometry_test(build_model("mlgp"), make_dataset("main", 16, seed=1), trials=trials)


def test_isometry_test_applies_the_label_rule():
    # unchecked, 2-D labels scored 800% with equality_holds, out-of-range or
    # float labels scored 0%, and a short label vector broke NumPy broadcasting
    model = make_small_trained_mlgp()
    data = make_dataset("main", 64, seed=61)
    for labels in (data.labels[:, None], data.labels + 0.5, np.full(64, 9), np.full(64, -8)):
        with pytest.raises(ValueError, match="^labels must be a vector of integers in 0..7$"):
            isometry_test(model, LabeledShapeSet(data.points, labels), trials=2)
    with pytest.raises(ValueError, match="^got 10 labels for 64 shapes$"):
        isometry_test(model, LabeledShapeSet(data.points, data.labels[:10]), trials=2)


@pytest.fixture
def three_cpus(monkeypatch):
    """Pools of up to three workers, on a machine of any size, for any isometry test."""
    monkeypatch.setattr(experiment, "usable_cpus", lambda: 3)
    monkeypatch.setattr(experiment, "POOL_MIN_SHAPE_TRIALS", 1)


def test_isometry_test_checks_its_inputs_before_any_pool_starts(three_cpus, monkeypatch):
    def no_pool(*args):
        raise AssertionError("a pool started")

    monkeypatch.setattr(experiment, "_map", no_pool)
    data = make_dataset("main", 2 * EVAL_BLOCK + 5, seed=62)
    with pytest.raises(ValueError, match="^weight transform requires an mlgp model"):
        isometry_test(build_model("mlhp"), data, trials=2)
    with pytest.raises(ValueError, match="^labels must be"):
        isometry_test(make_small_trained_mlgp(), LabeledShapeSet(data.points, data.labels + 8),
                      trials=2)


def test_isometry_test_checks_its_seed_before_any_pool_starts(three_cpus, monkeypatch):
    # 1.5 raised SeedSequence's TypeError and -1 NumPy's "expected non-negative
    # integer", neither naming the seed; a NumPy integer seed stays the same seed
    model, data = make_small_trained_mlgp(), make_dataset("main", 64, seed=63)
    want = isometry_test(model, data, trials=2, seed=7).accuracies
    got = isometry_test(model, data, trials=2, seed=np.int64(7)).accuracies
    assert all(np.array_equal(got[name], want[name]) for name in COMBO_NAMES)
    monkeypatch.setattr(experiment, "_map", None)  # a pool would raise TypeError
    for seed in (1.5, -1, True, "3", None):
        with pytest.raises(ValueError, match="^seed must be an integer >= 0, got "):
            isometry_test(model, data, trials=2, seed=seed)


class RecordedPool:
    """A stand-in for ProcessPoolExecutor that runs in this process and records its size."""

    sizes = []

    def __init__(self, workers, context, initializer, initargs):
        self.sizes.append(workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("cpus, fork, short, workers", [
    (2, True, 0, [2]),   # at the constant, two usable CPUs: two forked workers
    (2, True, 1, []),    # one shape-trial under the constant: no pool
    (2, False, 0, []),   # no fork: no pool, and nothing spawned
    (1, True, 0, []),    # one usable CPU: no pool
])
def test_isometry_test_pools_from_the_constant_where_it_can_fork(monkeypatch, cpus, fork, short,
                                                                  workers):
    data = make_dataset("main", 2 * EVAL_BLOCK, seed=65)
    monkeypatch.setattr(experiment, "POOL_MIN_SHAPE_TRIALS", len(data) * 3 + short)
    monkeypatch.setattr(experiment, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(experiment, "_worker", [])
    monkeypatch.setattr(RecordedPool, "sizes", [])
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordedPool)
    if not fork:
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    report = isometry_test(make_small_trained_mlgp(), data, trials=3, seed=65)
    assert RecordedPool.sizes == workers
    assert report.equality_holds


def test_isometry_test_is_the_same_for_every_jobs(monkeypatch):
    # one contiguous run of eval_blocks per worker: counts add exactly and a
    # maximum is exact, so the report is bit-identical, a NaN deviation too
    monkeypatch.setattr(experiment, "POOL_MIN_SHAPE_TRIALS", 1)
    model = make_small_trained_mlgp()
    nan_model = model.copy()
    nan_model.theta[:] = np.nan
    cases = [(model, n) for n in (1, 63, EVAL_BLOCK + 1, 2 * EVAL_BLOCK + 5)]
    for m, n in cases + [(nan_model, 2 * EVAL_BLOCK + 5)]:
        data = make_dataset("main", max(n, 8), noise_a=0.1, seed=n)
        points = data.points[:n].copy()
        points[-EVAL_BLOCK:] *= 100.0  # the largest deviation is in the last worker's blocks
        test_set = LabeledShapeSet(points, data.labels[:n])
        monkeypatch.setattr(experiment, "usable_cpus", lambda: 1)
        want = isometry_test(m, test_set, trials=5, seed=n)
        for cpus in (2, 3):
            monkeypatch.setattr(experiment, "usable_cpus", lambda: cpus)
            got = isometry_test(m, test_set, trials=5, seed=n)
            assert got.trials == want.trials
            for name in COMBO_NAMES:
                assert np.array_equal(got.accuracies[name], want.accuracies[name]), (n, cpus)
            assert repr(got.max_logit_deviation) == repr(want.max_logit_deviation), (n, cpus)
    assert np.isnan(got.max_logit_deviation)  # the NaN model's, merged from three workers


def test_a_runtime_warning_in_a_worker_is_an_error(three_cpus):
    # theta = 1e200 overflows the hidden lift; under the suite's
    # error::RuntimeWarning policy that raises in the worker, and the error
    # reaches the caller with the worker's traceback as its cause
    model = build_model("mlgp", np.random.default_rng(63))
    model.theta[:] = 1e200
    data = make_dataset("main", 2 * EVAL_BLOCK, seed=63)
    with pytest.raises(RuntimeWarning, match="overflow") as raised:
        isometry_test(model, data, trials=2)
    assert type(raised.value.__cause__).__name__ == "_RemoteTraceback"


def test_run_protocol_is_the_same_for_every_jobs(monkeypatch):
    serial_progress, pooled_progress = [], []
    monkeypatch.setattr(experiment, "usable_cpus", lambda: 1)
    serial = run_protocol(TINY, serial_progress.append)
    monkeypatch.setattr(experiment, "usable_cpus", lambda: 2)  # two workers for the six runs
    pooled = run_protocol(TINY, pooled_progress.append)
    assert len(pooled.records) == len(serial.records) == len(pooled_progress)
    for a, b, c in zip(serial.records, pooled.records, pooled_progress):
        assert a.same_outcome(b) and b is c
    order = [(r.model, r.run_id) for r in serial_progress]
    assert [(r.model, r.run_id) for r in pooled_progress] == order
    assert pooled.stats == serial.stats
    assert pooled.chains.keys() == serial.chains.keys()
    for key, model in serial.chains.items():
        assert np.array_equal(pooled.chains[key].theta, model.theta), key


def test_isometry_test_draws_the_same_motions_for_fewer_trials():
    model = make_small_trained_mlgp()
    test_set = make_dataset("main", EVAL_BLOCK + 100, noise_a=0.1, seed=58)
    few = isometry_test(model, test_set, trials=3, seed=59)
    more = isometry_test(model, test_set, trials=6, seed=59)
    for name in COMBO_NAMES:
        assert np.array_equal(few.accuracies[name], more.accuracies[name][:3]), name
    assert few.max_logit_deviation <= more.max_logit_deviation


def test_an_empty_batch_has_no_shapes_to_score():
    model = build_model("mlgp", np.random.default_rng(1))
    empty = LabeledShapeSet(np.empty((0, 4, 3)), np.empty(0, dtype=int))
    # a 0-d input has none either (len() of it raised TypeError)
    for call in (lambda: accuracy(model, empty.points, empty.labels),
                 lambda: predict(model, empty.points),
                 lambda: isometry_test(model, empty, trials=1),
                 lambda: forward(model, 5.0), lambda: accuracy(model, 5.0, [0]),
                 lambda: predict(model, 5.0), lambda: fit(model, 5.0, [0], 1)):
        with pytest.raises(ValueError, match="^no shapes to score$"):
            call()


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
