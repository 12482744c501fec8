"""Training protocol, multi-run statistics, isometry test, sphere export.

The protocol mirrors the reference experiment: each run draws fresh train
and validation sets from a run-specific seed, trains full-batch Adam for a
fixed number of epochs, and evaluates on one test set shared by every run
of the experiment.  Statistics are means and standard deviations of test
accuracy (in percent) over all runs and over the top-K runs ranked by
final-epoch validation accuracy.

Everything is deterministic given the config and master seed: per-purpose
seeds are split from the master seed with counter-keyed sequences, so runs
never share RNG streams and the records reproduce bit for bit (wall times
excepted).
"""

import os
import time
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from . import _serialize, tetris
from .conformal import DegenerateSphereError, RigidMotion, extract_center_radius_sq, lift, point_normalize
from .models import MLGP, MODEL_KINDS, accuracy, build_model, hits, transform_mlgp_weights
from .nn import (Adam, Workspace, backward, check_count, check_labels, check_real, embed_input,
                 eval_blocks, forward, softmax_cross_entropy)
from .tetris import make_dataset

MAIN_EXPERIMENT = "main"
THETA_EXPERIMENT = "theta"
# per experiment, the dataset kind it trains on and the kind it validates and tests on
_SPLIT_KINDS = {MAIN_EXPERIMENT: (tetris.MAIN, tetris.MAIN),
                THETA_EXPERIMENT: (tetris.THETA_TRAIN, tetris.THETA_EVAL)}

STAT_ALL = "all_runs"
STAT_TOP = "top_k"

LOGIT_ISOMETRY_TOL = 1e-9
# an isometry test of fewer shapes x trials runs in the caller: below it, two forked
# workers cost more than they saved (2,000 x 25 on 2 vCPUs: 12.6 ms serial, 23.5 ms pooled)
POOL_MIN_SHAPE_TRIALS = 1 << 19


@dataclass(frozen=True)
class ProtocolConfig:
    """Hyperparameters and sizes for one multi-run experiment.

    The defaults are the reference protocol's; :func:`fit` and the command
    line take theirs from here.
    """

    experiment: str = MAIN_EXPERIMENT
    noise_a: float = 0.0
    models: tuple = MODEL_KINDS
    runs: int = 50
    epochs: int = 20000
    lr: float = 0.001
    train_size: int = 1000
    val_size: int = 9000
    test_size: int = 90000
    top_k: int = 10
    master_seed: int = 0

    def __post_init__(self):
        if self.experiment not in _SPLIT_KINDS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if not self.models or len(set(self.models)) != len(self.models):
            raise ValueError(f"models must be distinct and at least one, got {self.models!r}")
        for kind in self.models:
            if kind not in MODEL_KINDS:
                raise ValueError(f"unknown model kind {kind!r}")
        n = tetris.NUM_CLASSES  # the smallest dataset make_dataset draws
        for name, least in (("runs", 1), ("epochs", 0), ("top_k", 1), ("master_seed", 0),
                            ("train_size", n), ("val_size", n), ("test_size", n)):
            check_count(name, getattr(self, name), least)
        check_real("learning rate", self.lr, 0.0)

    def desk_scale(self):
        """Small-footprint variant: 5 runs, 10000-sample test set."""
        return replace(self, runs=5, test_size=10000, top_k=2)


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one training run; accuracies are fractions in [0, 1]."""

    run_id: int
    model: str
    seed: int
    val_accuracy: float
    test_accuracy: float
    wall_time: float

    def same_outcome(self, other):
        """Equality on everything that determinism promises (not time)."""
        return replace(self, wall_time=0.0) == replace(other, wall_time=0.0)


@dataclass(frozen=True)
class StatRow:
    """One results-table line; mean and std are percentages."""

    model: str
    dataset: str
    noise: float
    stat: str
    mean: float
    std: float


# the records and results tables have one column per field
RECORDS_HEADER = ",".join(f.name for f in fields(RunRecord))
RESULTS_HEADER = ",".join(f.name for f in fields(StatRow))


@dataclass
class ProtocolResult:
    records: list
    stats: list
    chains: dict

    def best_chain(self, model_kind):
        """Trained model with the highest validation accuracy."""
        recs = (r for r in self.records if r.model == model_kind)
        return self.chains[(model_kind, min(recs, key=_validation_rank).run_id)]


def _validation_rank(record):
    """Top-K sort key: highest validation accuracy first, ties to the lower run id."""
    return (-record.val_accuracy, record.run_id)


def derive_seed(master_seed, *key):
    """Deterministic per-purpose seed split from one master seed."""
    ss = np.random.SeedSequence(master_seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


def make_test_set(config):
    """The experiment's fixed test set, derived from the master seed only."""
    _, eval_kind = _SPLIT_KINDS[config.experiment]
    return make_dataset(
        eval_kind, config.test_size, config.noise_a, derive_seed(config.master_seed, 0)
    )


def run_seeds(config, model_kind):
    """Per-run seeds for one model, keyed off the master seed."""
    idx = config.models.index(model_kind)
    return [derive_seed(config.master_seed, 1, idx, r) for r in range(config.runs)]


# fit computes the loss value, which no epoch's step reads, only every this many epochs
LOSS_EVERY = 100


def loss_epochs(epochs):
    """The 1-based epochs whose losses :func:`fit` returns: the first, every
    ``LOSS_EVERY``-th and the last."""
    return sorted({1, *range(LOSS_EVERY, epochs + 1, LOSS_EVERY), epochs}) if epochs else []


def fit(model, points, labels, epochs, lr=ProtocolConfig.lr):
    """Full-batch Adam on softmax cross-entropy; returns the losses of :func:`loss_epochs`.

    Each loss is taken before its epoch's step.  The input lift is made once, and every
    epoch runs in one ``nn.Workspace``, which makes the labels' target once; theta and
    each returned loss are bit for bit those of a loop without one taking every loss.
    """
    check_count("epochs", epochs, 0)
    first = embed_input(model, points)
    labels = check_labels(labels, first.shape[1])
    opt = Adam(model.theta, lr)
    ws = Workspace(model, first.shape[1])
    sampled = set(loss_epochs(epochs))
    losses = []
    for epoch in range(1, epochs + 1):
        logits, trace = forward(model, points, first, ws)
        loss, dlogits = softmax_cross_entropy(logits, labels, ws, epoch in sampled)
        opt.step(backward(model, trace, dlogits, ws))
        if loss is not None:
            losses.append(loss)
    return np.array(losses)


def train(config, model_kind, seed, test_set, run_id=0):
    """One protocol run: fresh train/val data, shared test set.

    The run seed splits into train-data, val-data, and init seeds, so two
    runs differ in both data draw and initialization.
    """
    train_kind, eval_kind = _SPLIT_KINDS[config.experiment]
    data_seed, val_seed, init_seed = (
        derive_seed(seed, i) for i in range(3)
    )
    train_set = make_dataset(train_kind, config.train_size, config.noise_a, data_seed)
    val_set = make_dataset(eval_kind, config.val_size, config.noise_a, val_seed)
    rng = np.random.default_rng(init_seed)
    model = build_model(model_kind, rng)
    start = time.perf_counter()
    fit(model, train_set.points, train_set.labels, config.epochs, config.lr)
    wall = time.perf_counter() - start
    val_acc = accuracy(model, val_set.points, val_set.labels)
    test_acc = accuracy(model, test_set.points, test_set.labels)
    return model, RunRecord(run_id, model_kind, seed, val_acc, test_acc, wall)


def summarize_records(records, config):
    """Results-table rows from run records: all-runs and top-K statistics.

    Percentages; std is the population standard deviation.  Top-K ranks by
    validation accuracy, ties broken by run id.
    """
    rows = []
    for model_kind in config.models:
        recs = [r for r in records if r.model == model_kind]
        if not recs:
            continue
        top = sorted(recs, key=_validation_rank)[: config.top_k]
        for stat, group in ((STAT_ALL, recs), (STAT_TOP, top)):
            accs = np.array([r.test_accuracy for r in group]) * 100.0
            rows.append(StatRow(model_kind, config.experiment, float(config.noise_a), stat,
                                float(accs.mean()), float(accs.std())))
    return rows


_worker = []  # in a pool worker: the function and shared arguments its initializer got


def _start_worker(*fn_and_shared):
    _worker[:] = fn_and_shared


def _run_in_worker(task):
    fn, shared = _worker
    return fn(*shared, task)


def usable_cpus():
    """The CPUs this process may run on: its affinity set where the platform has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _map(fn, tasks, *shared):
    """``fn(*shared, task)`` for each task in order, in ``min(usable_cpus(), len(tasks))``
    forked processes, which inherit the caller's warning filters; ``shared`` reaches each
    worker once, through its initializer.  At one worker, or where the platform cannot fork,
    the tasks run in this process.  Nothing is spawned: a spawned worker imports the caller's
    ``__main__`` again, which breaks a script without an ``if __name__ == "__main__"`` guard.
    """
    workers = min(usable_cpus(), len(tasks)) if len(tasks) > 1 else 1
    if workers > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            fork = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, fork, _start_worker, (fn, shared)) as pool:
                yield from pool.map(_run_in_worker, tasks)
            return
    yield from (fn(*shared, task) for task in tasks)


def _train_task(config, test_set, task):
    model_kind, run_id, seed = task
    return train(config, model_kind, seed, test_set, run_id)


def run_protocol(config, progress=None):
    """Train every configured model for the configured number of runs.

    The runs go to ``_map``'s pool; ``progress(record)`` is called here after each
    run, in run order.  The trained models are kept, keyed by ``(model, run_id)``.
    """
    test_set = make_test_set(config)
    tasks = [(model_kind, run_id, seed) for model_kind in config.models
             for run_id, seed in enumerate(run_seeds(config, model_kind))]
    records = []
    chains = {}
    for model, record in _map(_train_task, tasks, config, test_set):
        records.append(record)
        chains[(record.model, record.run_id)] = model
        if progress is not None:
            progress(record)
    stats = summarize_records(records, config)
    return ProtocolResult(records, stats, chains)


def _load_rows(path, header, row_type):
    """The rows of a table of ``row_type``, each column parsed by its field's type."""
    types = [f.type for f in fields(row_type)]
    return [row_type(*row) for row in _serialize.load_table(path, header, types)]


def save_records(path, records):
    _serialize.save_table(path, RECORDS_HEADER, map(astuple, records))


def load_records(path):
    return _load_rows(path, RECORDS_HEADER, RunRecord)


def save_results(path, stats):
    _serialize.save_table(path, RESULTS_HEADER, map(astuple, stats))


def load_results(path):
    return _load_rows(path, RESULTS_HEADER, StatRow)


COMBO_NAMES = (
    "original_model_original_data",
    "transformed_model_transformed_data",
    "original_model_transformed_data",
    "transformed_model_original_data",
)


@dataclass
class IsometryReport:
    """Per-combination accuracies (percent, one entry per trial)."""

    trials: int
    accuracies: dict
    max_logit_deviation: float

    @property
    def equality_holds(self):
        """Weight-space motion mirrors data motion: exact accuracy match."""
        same = np.array_equal(
            self.accuracies[COMBO_NAMES[1]], self.accuracies[COMBO_NAMES[0]]
        )
        return same and self.max_logit_deviation <= LOGIT_ISOMETRY_TOL


def isometry_test(model, test_set, trials=100, seed=0):
    """Compare weight-space and data-space rigid motions on a trained model.

    Each trial's motion, drawn in one block as successive ``sample_motion``
    calls draw them, moves the first-layer weights; all four model/data
    combinations are scored.  The matched combination must reproduce the
    original logits to within rounding, so its accuracy column is constant; the
    mismatched combinations degrade.  Test blocks are the outer loop and trials
    the inner: a block is checked and lifted once, and per trial its coordinates
    are moved feature-major and lifted, so the call holds one block's
    temporaries and O(trials) moved models (~3 KB each), nothing sized by the
    test set.  From ``POOL_MIN_SHAPE_TRIALS`` shapes x trials on, ``_map``'s pool
    scores one group of consecutive blocks per usable CPU; hit counts add and a
    maximum is exact, so the report is the same for any number of workers.
    """
    check_count("trials", trials, 1)
    check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    rotations, shifts, _ = tetris._draw_motions(rng, tetris.MAIN, trials, 0.0)
    motions = list(map(RigidMotion, rotations, shifts))
    moved_models = [transform_mlgp_weights(model, motion) for motion in motions]
    pts, labels = test_set.points, check_labels(test_set.labels, len(test_set.points))
    blocks = eval_blocks(len(pts))
    k = min(usable_cpus(), len(blocks)) if len(pts) * trials >= POOL_MIN_SHAPE_TRIALS else 1
    groups = [blocks[len(blocks) * i // k: len(blocks) * (i + 1) // k] for i in range(k)]
    hit_counts, devs = zip(*_map(_isometry_hits, groups, model, motions, moved_models, pts, labels))
    accs = sum(hit_counts).T / len(pts) * 100.0
    return IsometryReport(trials, dict(zip(COMBO_NAMES, accs)), float(np.max(devs)))  # keeps a NaN


def _isometry_hits(model, motions, moved_models, pts, labels, blocks):
    """The isometry test's (trials, 4) hit counts and largest logit deviation on ``blocks``."""
    counts = np.zeros((len(motions), len(COMBO_NAMES)), dtype=int)  # hits, one row per trial
    max_dev = 0.0
    for cols in blocks:
        block, truth = pts[cols], labels[cols]
        lifted, n = embed_input(model, block), len(truth)
        # column p * n + j holds point p of shape j: one product moves them all, rounded as
        # in RigidMotion.apply (a product per point would take NumPy's gemv when n is 1)
        xyz = np.ascontiguousarray(block.T, dtype=float).reshape(3, -1)
        base_logits, _ = forward(model, None, lifted)
        counts[:, 0] += hits(base_logits, truth)
        for row, motion, moved_model in zip(counts, motions, moved_models):
            moved = motion.rotation @ xyz
            moved += motion.translation[:, None]
            moved = lift(moved.reshape(3, -1, n).swapaxes(0, 1).reshape(-1, n), 3)
            logits_tt, _ = forward(moved_model, None, moved)
            max_dev = np.maximum(max_dev, np.abs(logits_tt - base_logits).max())  # keeps a NaN
            row[1:] += (hits(logits_tt, truth),
                        hits(forward(model, None, moved)[0], truth),
                        hits(forward(moved_model, None, lifted)[0], truth))
    return counts, max_dev


SPHERES_FORMAT = "mlgp-spheres-v1"
SPHERE_KEYS = ("point_block", "gamma", "degenerate", "center", "radius_sq", "radius",
               "imaginary_radius", "surface")


def export_spheres(model, path=None):
    """Decision spheres of an mlgp model, one per first-layer weight 5-block.

    Each block is point-normalized to recover its scale factor, center, and
    squared radius.  Negative squared radii are preserved (imaginary
    radius); a zero scale factor marks the block degenerate and leaves the
    geometric fields null.  Positive scale factors respond to points inside
    the sphere ("I"), negative ones to points outside ("O").
    """
    if model.kind != MLGP:
        raise ValueError(f"sphere export requires an mlgp model, got {model.kind}")
    first = model.layers[0]
    units = []
    for u in range(first.out_dim):
        blocks = first.w[u].reshape(-1, first.group + 2)
        spheres = []
        for p, raw in enumerate(blocks):
            try:
                normalized, gamma = point_normalize(raw)
            except DegenerateSphereError:
                geometry = (True, None, None, None, False, None)
            else:
                center, r_sq = extract_center_radius_sq(normalized)
                radius = float(np.sqrt(r_sq)) if r_sq >= 0.0 else None
                geometry = (False, [float(c) for c in center], r_sq, radius,
                            r_sq < 0.0, "I" if gamma > 0.0 else "O")
            spheres.append(dict(zip(SPHERE_KEYS, (p, float(raw[-1]), *geometry))))
        units.append({"unit": u, "spheres": spheres})
    report = {"format": SPHERES_FORMAT, "units": units}
    if path is not None:
        _serialize.save(path, report)
    return report
