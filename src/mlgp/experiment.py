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

import numbers
import time
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from . import _serialize, tetris
from .conformal import DegenerateSphereError, extract_center_radius_sq, point_normalize
from .models import MLGP, MODEL_KINDS, accuracy, build_model, hits, transform_mlgp_weights
from .nn import (Adam, backward, check_adam_settings, embed_input, eval_blocks, forward,
                 one_hot, softmax_cross_entropy)
from .tetris import make_dataset, sample_motion

MAIN_EXPERIMENT = "main"
THETA_EXPERIMENT = "theta"
EXPERIMENT_KINDS = (MAIN_EXPERIMENT, THETA_EXPERIMENT)

STAT_ALL = "all_runs"
STAT_TOP = "top_k"

LOGIT_ISOMETRY_TOL = 1e-9


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
        if self.experiment not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if not self.models or len(set(self.models)) != len(self.models):
            raise ValueError(f"models must be distinct and at least one, got {self.models!r}")
        for kind in self.models:
            if kind not in MODEL_KINDS:
                raise ValueError(f"unknown model kind {kind!r}")
        n = tetris.NUM_CLASSES  # the smallest dataset make_dataset draws
        for name, least in (("runs", 1), ("epochs", 0), ("top_k", 1),
                            ("train_size", n), ("val_size", n), ("test_size", n)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        check_adam_settings(self.lr)

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


# per experiment, the dataset kind it trains on and the kind it validates and tests on
_SPLIT_KINDS = {MAIN_EXPERIMENT: (tetris.MAIN, tetris.MAIN),
                THETA_EXPERIMENT: (tetris.THETA_TRAIN, tetris.THETA_EVAL)}


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


def fit(model, points, labels, epochs, lr=ProtocolConfig.lr):
    """Full-batch Adam on softmax cross-entropy; returns per-epoch losses.

    The learning rate defaults to the reference protocol's, and Adam's decay
    rates are ``nn.BETA1`` and ``nn.BETA2``.  The first layer's input
    lift has no parameters and the labels do not change, so the lift and the
    one-hot target are computed once and reused every epoch.
    """
    if not isinstance(epochs, numbers.Integral) or epochs < 0:
        raise ValueError(f"epochs must be an integer >= 0, got {epochs!r}")
    first = embed_input(model.layers[0], points)
    target = one_hot(labels)
    opt = Adam(model.theta, lr)
    losses = np.empty(epochs)
    for epoch in range(epochs):
        logits, trace = forward(model, points, first_embedded=first)
        loss, dlogits = softmax_cross_entropy(logits, target)
        opt.step(backward(model, trace, dlogits))
        losses[epoch] = loss
    return losses


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


def run_protocol(config, progress=None):
    """Train every configured model for the configured number of runs.

    ``progress(record)`` is called after each run.  The trained models are
    kept, keyed by ``(model, run_id)``.
    """
    test_set = make_test_set(config)
    records = []
    chains = {}
    for model_kind in config.models:
        for run_id, seed in enumerate(run_seeds(config, model_kind)):
            model, record = train(config, model_kind, seed, test_set, run_id)
            records.append(record)
            chains[(model_kind, run_id)] = model
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

    Each trial samples one motion, moves the test shapes with it, moves the
    first-layer weights with the same motion, and scores all four
    model/data combinations.  The matched combination must reproduce the
    original logits to within numerical precision, so its accuracy column
    is constant; the mismatched combinations degrade.
    """
    if model.kind != MLGP:
        raise ValueError(f"isometry test requires an mlgp model, got {model.kind}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    pts, labels = test_set.points, test_set.labels
    blocks = eval_blocks(len(pts))
    base = [forward(model, pts[cols])[0] for cols in blocks]
    base_acc = sum(hits(b, labels[cols]) for cols, b in zip(blocks, base)) / len(pts) * 100.0
    accs = np.empty((len(COMBO_NAMES), trials))
    max_dev = 0.0
    for t in range(trials):
        motion = sample_motion(rng)
        moved_model = transform_mlgp_weights(model, motion)
        counts = np.zeros(3, dtype=int)
        # block by block, so no moved copy of the test set is held; each
        # moved block is lifted once for both models that score it
        for cols, base_logits in zip(blocks, base):
            lifted = embed_input(model.layers[0], motion.apply(pts[cols]))
            logits_tt, _ = forward(moved_model, None, lifted)
            max_dev = max(max_dev, float(np.abs(logits_tt - base_logits).max()))
            counts += (hits(logits_tt, labels[cols]),
                       hits(forward(model, None, lifted)[0], labels[cols]),
                       hits(forward(moved_model, pts[cols])[0], labels[cols]))
        accs[:, t] = base_acc, *(counts / len(pts) * 100.0)
    return IsometryReport(trials, dict(zip(COMBO_NAMES, accs)), max_dev)


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
