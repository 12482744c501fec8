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

import csv
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import _serialize, tetris
from .conformal import DegenerateSphereError, extract_center_radius_sq, point_normalize
from .models import (
    MODEL_KINDS,
    accuracy,
    build_model,
    transform_mlgp_weights,
)
from .nn import GEOMETRIC, Adam, backward, embed_input, forward, softmax_cross_entropy
from .tetris import make_dataset, sample_motion

MAIN_EXPERIMENT = "main"
THETA_EXPERIMENT = "theta"
EXPERIMENT_KINDS = (MAIN_EXPERIMENT, THETA_EXPERIMENT)

RECORDS_HEADER = "run_id,model,seed,val_accuracy,test_accuracy,wall_time"
RESULTS_HEADER = "model,dataset,noise,stat,mean,std"
STAT_ALL = "all_runs"
STAT_TOP = "top_k"

LOGIT_ISOMETRY_TOL = 1e-9


@dataclass(frozen=True)
class ProtocolConfig:
    """Hyperparameters and sizes for one multi-run experiment."""

    experiment: str = MAIN_EXPERIMENT
    noise_a: float = 0.0
    models: tuple = MODEL_KINDS
    runs: int = 50
    epochs: int = 20000
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    train_size: int = 1000
    val_size: int = 9000
    test_size: int = 90000
    top_k: int = 10
    master_seed: int = 0

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        for kind in self.models:
            if kind not in MODEL_KINDS:
                raise ValueError(f"unknown model kind {kind!r}")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if not 1 <= self.top_k:
            raise ValueError("top_k must be at least 1")

    def desk_scale(self, **overrides):
        """Small-footprint variant: 5 runs, 10000-sample test set."""
        return replace(self, runs=5, test_size=10000, top_k=2, **overrides)


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
        return (
            self.run_id == other.run_id
            and self.model == other.model
            and self.seed == other.seed
            and self.val_accuracy == other.val_accuracy
            and self.test_accuracy == other.test_accuracy
        )


@dataclass(frozen=True)
class StatRow:
    """One results-table line; mean and std are percentages."""

    model: str
    dataset: str
    noise: float
    stat: str
    mean: float
    std: float


@dataclass
class ProtocolResult:
    config: ProtocolConfig
    records: list
    stats: list
    chains: dict = field(default_factory=dict)

    def best_chain(self, model_kind):
        """Trained chain with the highest validation accuracy (kept runs)."""
        recs = [r for r in self.records if r.model == model_kind]
        if not recs or not self.chains:
            raise ValueError(f"no stored runs for {model_kind!r}")
        best = min(recs, key=lambda r: (-r.val_accuracy, r.run_id))
        return self.chains[(model_kind, best.run_id)]


def derive_seed(master_seed, *key):
    """Deterministic per-purpose seed split from one master seed."""
    ss = np.random.SeedSequence(master_seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


def _split_kinds(experiment):
    if experiment == MAIN_EXPERIMENT:
        return tetris.MAIN, tetris.MAIN
    return tetris.THETA_TRAIN, tetris.THETA_EVAL


def make_test_set(config):
    """The experiment's fixed test set, derived from the master seed only."""
    _, eval_kind = _split_kinds(config.experiment)
    return make_dataset(
        eval_kind, config.test_size, config.noise_a, derive_seed(config.master_seed, 0)
    )


def run_seeds(config, model_kind):
    """Per-run seeds for one model, keyed off the master seed."""
    idx = config.models.index(model_kind)
    return [derive_seed(config.master_seed, 1, idx, r) for r in range(config.runs)]


def fit(layers, points, labels, epochs, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
    """Full-batch Adam on softmax cross-entropy; returns per-epoch losses.

    The first layer's input lift has no parameters, so it is computed once
    and reused every epoch.
    """
    first = embed_input(layers[0], points)
    labels = np.asarray(labels)
    opt = Adam(layers, lr, beta1, beta2, eps)
    losses = np.empty(epochs)
    for epoch in range(epochs):
        logits, trace = forward(layers, points, first_embedded=first)
        loss, dlogits = softmax_cross_entropy(logits, labels)
        grads = backward(layers, trace, dlogits)
        opt.step(layers, grads)
        losses[epoch] = loss
    return losses


def train(config, model_kind, seed, test_set, run_id=0):
    """One protocol run: fresh train/val data, shared test set.

    The run seed splits into train-data, val-data, and init seeds, so two
    runs differ in both data draw and initialization.
    """
    train_kind, eval_kind = _split_kinds(config.experiment)
    data_seed, val_seed, init_seed = (
        derive_seed(seed, i) for i in range(3)
    )
    train_set = make_dataset(train_kind, config.train_size, config.noise_a, data_seed)
    val_set = make_dataset(eval_kind, config.val_size, config.noise_a, val_seed)
    rng = np.random.default_rng(init_seed)
    layers = build_model(model_kind, rng)
    start = time.perf_counter()
    fit(
        layers,
        train_set.points,
        train_set.labels,
        config.epochs,
        config.lr,
        config.beta1,
        config.beta2,
    )
    wall = time.perf_counter() - start
    record = RunRecord(
        run_id=run_id,
        model=model_kind,
        seed=seed,
        val_accuracy=accuracy(layers, val_set.points, val_set.labels),
        test_accuracy=accuracy(layers, test_set.points, test_set.labels),
        wall_time=wall,
    )
    return layers, record


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
        accs = np.array([r.test_accuracy for r in recs]) * 100.0
        rows.append(
            StatRow(
                model_kind,
                config.experiment,
                config.noise_a,
                STAT_ALL,
                float(accs.mean()),
                float(accs.std()),
            )
        )
        k = min(config.top_k, len(recs))
        top = sorted(recs, key=lambda r: (-r.val_accuracy, r.run_id))[:k]
        top_accs = np.array([r.test_accuracy for r in top]) * 100.0
        rows.append(
            StatRow(
                model_kind,
                config.experiment,
                config.noise_a,
                STAT_TOP,
                float(top_accs.mean()),
                float(top_accs.std()),
            )
        )
    return rows


def run_protocol(config, keep_models=False, progress=None):
    """Train every configured model for the configured number of runs.

    ``progress(record)`` is called after each run.  With ``keep_models``
    the trained chains are retained, keyed by ``(model, run_id)``.
    """
    test_set = make_test_set(config)
    records = []
    chains = {}
    for model_kind in config.models:
        for run_id, seed in enumerate(run_seeds(config, model_kind)):
            layers, record = train(config, model_kind, seed, test_set, run_id)
            records.append(record)
            if keep_models:
                chains[(model_kind, run_id)] = layers
            if progress is not None:
                progress(record)
    stats = summarize_records(records, config)
    return ProtocolResult(config, records, stats, chains)


def save_records(path, records):
    with open(path, "w", newline="") as fh:
        fh.write(RECORDS_HEADER + "\n")
        for r in records:
            fh.write(
                f"{r.run_id},{r.model},{r.seed},"
                f"{repr(r.val_accuracy)},{repr(r.test_accuracy)},"
                f"{repr(r.wall_time)}\n"
            )


def load_records(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or ",".join(rows[0]) != RECORDS_HEADER:
        raise ValueError(f"bad records header in {path}")
    return [
        RunRecord(int(a), b, int(c), float(d), float(e), float(f))
        for a, b, c, d, e, f in rows[1:]
    ]


def save_results(path, stats):
    with open(path, "w", newline="") as fh:
        fh.write(RESULTS_HEADER + "\n")
        for s in stats:
            fh.write(
                f"{s.model},{s.dataset},{repr(float(s.noise))},{s.stat},"
                f"{repr(s.mean)},{repr(s.std)}\n"
            )


def load_results(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or ",".join(rows[0]) != RESULTS_HEADER:
        raise ValueError(f"bad results header in {path}")
    return [
        StatRow(a, b, float(c), d, float(e), float(f))
        for a, b, c, d, e, f in rows[1:]
    ]


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

    def mean_std(self, combo):
        a = self.accuracies[combo]
        return float(a.mean()), float(a.std())

    @property
    def equality_holds(self):
        """Weight-space motion mirrors data motion: exact accuracy match."""
        same = np.array_equal(
            self.accuracies[COMBO_NAMES[1]], self.accuracies[COMBO_NAMES[0]]
        )
        return same and self.max_logit_deviation <= LOGIT_ISOMETRY_TOL


def isometry_test(layers, test_set, trials=100, seed=0, t_range=3.0):
    """Compare weight-space and data-space rigid motions on a trained model.

    Each trial samples one motion, moves the test shapes with it, moves the
    first-layer weights with the same motion, and scores all four
    model/data combinations.  The matched combination must reproduce the
    original logits to within numerical precision, so its accuracy column
    is constant; the mismatched combinations degrade.
    """
    if not layers or layers[0].kind != GEOMETRIC:
        raise ValueError("isometry test requires a geometric first layer")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    pts, labels = test_set.points, test_set.labels
    base_logits, _ = forward(layers, pts)
    base_acc = float(np.mean(np.argmax(base_logits, axis=1) == labels)) * 100.0
    accs = {name: np.empty(trials) for name in COMBO_NAMES}
    max_dev = 0.0
    for t in range(trials):
        motion = sample_motion(rng, t_range=t_range)
        moved_pts = motion.apply(pts)
        moved_layers = transform_mlgp_weights(layers, motion)
        logits_tt, _ = forward(moved_layers, moved_pts)
        logits_ot, _ = forward(layers, moved_pts)
        logits_to, _ = forward(moved_layers, pts)
        max_dev = max(max_dev, float(np.abs(logits_tt - base_logits).max()))
        accs[COMBO_NAMES[0]][t] = base_acc
        for name, logits in (
            (COMBO_NAMES[1], logits_tt),
            (COMBO_NAMES[2], logits_ot),
            (COMBO_NAMES[3], logits_to),
        ):
            accs[name][t] = float(np.mean(np.argmax(logits, axis=1) == labels)) * 100.0
    return IsometryReport(trials, accs, max_dev)


SPHERES_FORMAT = "mlgp-spheres-v1"


def export_spheres(layers, path=None):
    """Decision spheres of a geometric first layer, one per weight 5-block.

    Each block is point-normalized to recover its scale factor, center, and
    squared radius.  Negative squared radii are preserved (imaginary
    radius); a zero scale factor marks the block degenerate and leaves the
    geometric fields null.  Positive scale factors respond to points inside
    the sphere ("I"), negative ones to points outside ("O").
    """
    if not layers or layers[0].kind != GEOMETRIC:
        raise ValueError("sphere export requires a geometric first layer")
    first = layers[0]
    units = []
    for u in range(first.out_dim):
        blocks = first.w[u].reshape(-1, first.group + 2)
        spheres = []
        for p, raw in enumerate(blocks):
            entry = {"point_block": p, "gamma": float(raw[-1])}
            try:
                normalized, gamma = point_normalize(raw)
            except DegenerateSphereError:
                entry.update(
                    degenerate=True,
                    center=None,
                    radius_sq=None,
                    radius=None,
                    imaginary_radius=False,
                    surface=None,
                )
                spheres.append(entry)
                continue
            center, r_sq = extract_center_radius_sq(normalized)
            entry.update(
                degenerate=False,
                center=[float(c) for c in center],
                radius_sq=float(r_sq),
                radius=float(np.sqrt(r_sq)) if r_sq >= 0.0 else None,
                imaginary_radius=bool(r_sq < 0.0),
                surface="I" if gamma > 0.0 else "O",
            )
            spheres.append(entry)
        units.append({"unit": u, "spheres": spheres})
    report = {"format": SPHERES_FORMAT, "units": units}
    if path is not None:
        _serialize.save(path, report)
    return report
