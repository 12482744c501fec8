"""The three benchmark workloads, their inputs, their timed passes and their checks.

Each workload derives every input from the benchmark seed and drives mlgp
only through its public API, looking functions up at call time so that the
tracer's wrappers are used when installed.

* ``train``: a reduced ``run_protocol`` on the main experiment (noise 0): all
  three models, one run each, full-batch Adam for 4000 epochs on 1000
  shapes, 100-shape validation and a 2000-shape test set.  Chosen for ``nn``
  and the ``fit`` loop, which take over 90% of its time.
* ``sample_eval``: the reference protocol's data and scoring shape on the
  theta experiment with noise 0.2: 1000/9000/90000 splits, both branches of
  ``make_dataset`` (interval union and noise), scoring at batch 9000 and
  90000, and only 2000 epochs.  Chosen for ``tetris`` sampling and
  large-batch inference.
* ``analysis``: the post-training path through ``mlgp.cli.main``: gen-data
  for a 10000-shape test CSV, isometry-test with 200 trials, export-spheres,
  and checkpoint and CSV reloads.  Set-up trains the checkpoints.  Chosen
  for the weight transform, rigid motions, serialization, CSV I/O and the
  CLI, with no training and no protocol sampling in its passes.

A pass is one unit of the workload; its stages are timed where the
benchmark calls them.  Every check counts as one attempted operation, as
does every protocol run, isometry trial and CLI command.
"""

import contextlib
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from mlgp import cli, experiment, models, nn, tetris

MODEL_KINDS = ("mlp", "mlhp", "mlgp")
ISOMETRY_TOL = 1e-9
LN8 = math.log(8.0)

GOLDENS_PATH = Path(__file__).with_name("goldens.json")

# Fixed dataset grid whose SHA-256 hashes were recorded with the seed code;
# sampling must reproduce them bit for bit.  Independent of --seed.
GOLDEN_GRID = tuple(
    (kind, noise, seed, 200)
    for kind in ("main", "theta_train", "theta_eval")
    for noise in (0.0, 0.2)
    for seed in (0, 1, 20061)
)


def dataset_sha256(data):
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(data.points, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(data.labels, dtype="<i8").tobytes())
    return h.hexdigest()


def golden_key(kind, noise, seed, size):
    return f"{kind}/{noise!r}/{seed}/{size}"


def record_goldens():
    """SHA-256 of every dataset in the golden grid, keyed by golden_key."""
    return {
        golden_key(*spec): dataset_sha256(tetris.make_dataset(spec[0], spec[3], spec[1], spec[2]))
        for spec in GOLDEN_GRID
    }


class Checks:
    """Attempted and failed operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def op(self, count=1):
        """Count operations that raise on failure (runs, trials)."""
        self.attempted += count

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def seeds_from(seed, purpose, n):
    """``n`` 63-bit seeds for one purpose, split from the benchmark seed."""
    ss = np.random.SeedSequence(seed, spawn_key=(purpose,))
    return [int(x) >> 1 for x in ss.generate_state(n, np.uint64)]


def time_import(src_dir, env):
    """Seconds for a fresh interpreter to import mlgp, as every CLI call does."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-B", "-c", "import mlgp"],
        env=dict(env, PYTHONPATH=str(src_dir)),
        check=True,
    )
    return time.perf_counter() - start


def check_golden_grid(checks):
    goldens = json.loads(GOLDENS_PATH.read_text())["datasets"]
    for spec in GOLDEN_GRID:
        key = golden_key(*spec)
        got = dataset_sha256(tetris.make_dataset(spec[0], spec[3], spec[1], spec[2]))
        checks.check(got == goldens[key], f"dataset {key} differs from its seed-code SHA-256")


class _Workload:
    def __init__(self, seed, out_dir, src_dir, env):
        self.seed = seed
        self.out_dir = out_dir
        self.src_dir = src_dir
        self.env = env

    def setup(self, checks):
        """One set-up; returns stage timings (``fit`` for analysis)."""
        time_import(self.src_dir, self.env)
        return {}

    def final_checks(self, checks):
        check_golden_grid(checks)


class ProtocolWorkload(_Workload):
    """A reduced protocol: shared test set, one run per model, then scoring."""

    experiment_kind = "main"
    noise = 0.0
    epochs = 4000
    sizes = (1000, 100, 2000)
    isometry_trials = 10
    # Lowest acceptable test accuracy per model, checked with a test loss
    # below ln 8; None for runs too short to beat chance.
    accuracy_floor = None

    def __init__(self, seed, out_dir, src_dir, env):
        super().__init__(seed, out_dir, src_dir, env)
        train_size, val_size, test_size = self.sizes
        self.config = experiment.ProtocolConfig(
            experiment=self.experiment_kind,
            noise_a=self.noise,
            models=MODEL_KINDS,
            runs=1,
            epochs=self.epochs,
            train_size=train_size,
            val_size=val_size,
            test_size=test_size,
            top_k=1,
            master_seed=seeds_from(seed, 0, 1)[0],
        )
        self.run_seeds = dict(zip(MODEL_KINDS, seeds_from(seed, 1, len(MODEL_KINDS))))
        self.isometry_seed = seeds_from(seed, 2, 1)[0]
        self.first = None  # outputs of the first pass, for determinism checks

    def run_pass(self, checks):
        cfg = self.config
        t = time.perf_counter
        timings = {"fit": {}}
        out = {"runs": {}}
        start = t()
        test_set = experiment.make_test_set(cfg)
        timings["sample"] = (t() - start, len(test_set))
        out["test_set"] = test_set
        eval_s = 0.0
        records = []
        for kind in MODEL_KINDS:
            layers, record = experiment.train(cfg, kind, self.run_seeds[kind], test_set)
            timings["fit"][kind] = (record.wall_time, cfg.epochs)
            start = t()
            acc = models.accuracy(layers, test_set.points, test_set.labels)
            eval_s += t() - start
            records.append(record)
            out["runs"][kind] = (layers, record, acc)
        timings["eval"] = (eval_s, len(test_set) * len(MODEL_KINDS))
        start = t()
        report = experiment.isometry_test(
            out["runs"]["mlgp"][0], test_set, self.isometry_trials, self.isometry_seed
        )
        timings["isometry"] = (t() - start, self.isometry_trials)
        out["isometry"] = report
        out["stats"] = experiment.summarize_records(records, cfg)
        return timings, out

    def check_pass(self, out, checks):
        test_set = out["test_set"]
        checks.op(len(MODEL_KINDS) + out["isometry"].trials)
        for kind, (layers, record, acc) in out["runs"].items():
            logits, _ = nn.forward(layers, test_set.points)
            checks.check(
                bool(np.all(np.isfinite(logits))), f"{kind}: non-finite logits (diverged run)"
            )
            checks.check(
                acc == record.test_accuracy,
                f"{kind}: accuracy {acc!r} differs from run record {record.test_accuracy!r}",
            )
            if self.accuracy_floor is not None:
                loss, _ = nn.softmax_cross_entropy(logits, test_set.labels)
                checks.check(loss < LN8, f"{kind}: test loss {loss:.4f} not below ln 8")
                floor = self.accuracy_floor[kind]
                checks.check(
                    record.test_accuracy >= floor,
                    f"{kind}: test accuracy {record.test_accuracy:.4f} below floor {floor}",
                )
        report = out["isometry"]
        checks.check(
            report.equality_holds and report.max_logit_deviation <= ISOMETRY_TOL,
            f"isometry: max logit deviation {report.max_logit_deviation:.3e}",
        )
        checks.check(len(out["stats"]) == 2 * len(MODEL_KINDS), "summary rows missing")
        if self.first is None:
            self.first = {
                "test_sha": dataset_sha256(test_set),
                "records": {k: v[1] for k, v in out["runs"].items()},
            }
            return
        checks.check(
            dataset_sha256(test_set) == self.first["test_sha"],
            "test set differs between passes with the same seed",
        )
        for kind, (_, record, _) in out["runs"].items():
            checks.check(
                record.same_outcome(self.first["records"][kind]),
                f"{kind}: run outcome differs between passes with the same seed",
            )


class TrainWorkload(ProtocolWorkload):
    name = "train"
    # Over --seed 0..19 the seed code's test accuracies after 4000 epochs
    # range over 0.620-0.710 (mlp), 0.621-0.868 (mlhp) and 0.699-0.880
    # (mlgp).  Each floor sits 0.15 below the lowest of these, rounded down:
    # loose enough for unseen seeds and last-bit float changes, tight enough
    # to catch a broken optimizer, which stays near chance (0.125).
    accuracy_floor = {"mlp": 0.46, "mlhp": 0.47, "mlgp": 0.54}


class SampleEvalWorkload(ProtocolWorkload):
    name = "sample_eval"
    experiment_kind = "theta"
    noise = 0.2
    epochs = 2000
    sizes = (1000, 9000, 90000)
    isometry_trials = 2  # 2000 epochs, scored on unseen angles: no accuracy floor


class AnalysisWorkload(_Workload):
    """gen-data, isometry-test, export-spheres and reloads through the CLI."""

    name = "analysis"
    setup_epochs = 1000
    test_size = 10000
    isometry_trials = 200

    def __init__(self, seed, out_dir, src_dir, env):
        super().__init__(seed, out_dir, src_dir, env)
        (
            self.train_seed,
            self.test_seed,
            self.isometry_seed,
            *init_seeds,
        ) = seeds_from(seed, 3, 3 + len(MODEL_KINDS))
        self.init_seeds = dict(zip(MODEL_KINDS, init_seeds))
        self.csv = out_dir / "test.csv"
        self.csv_copy = out_dir / "test-resaved.csv"
        self.spheres = out_dir / "spheres.json"
        self.first_csv_sha = None

    def checkpoint(self, kind, suffix=""):
        return self.out_dir / f"{kind}{suffix}.ckpt.json"

    def setup(self, checks):
        """Train and save one checkpoint per model; the passes read them."""
        time_import(self.src_dir, self.env)
        data = tetris.make_dataset("main", 1000, 0.0, self.train_seed)
        self.trained = {}
        fit = {}
        for kind in MODEL_KINDS:
            layers = models.build_model(kind, np.random.default_rng(self.init_seeds[kind]))
            start = time.perf_counter()
            losses = experiment.fit(layers, data.points, data.labels, self.setup_epochs)
            fit[kind] = (time.perf_counter() - start, self.setup_epochs)
            checks.check(
                bool(np.all(np.isfinite(losses))) and losses[-1] < losses[0],
                f"{kind}: set-up training diverged or did not reduce the loss",
            )
            models.save_checkpoint(self.checkpoint(kind), kind, layers, adam_step=self.setup_epochs)
            self.trained[kind] = layers
        return {"fit": fit}

    def _cli(self, argv, checks):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        checks.check(code == 0, f"mlgp {argv[0]} exited {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def run_pass(self, checks):
        t = time.perf_counter
        timings = {}
        out = {}
        start = t()
        self._cli(
            ["gen-data", "--kind", "main", "--size", str(self.test_size), "--noise", "0.0",
             "--seed", str(self.test_seed), "--out", str(self.csv)],
            checks,
        )
        timings["sample"] = (t() - start, self.test_size)
        start = t()
        out["isometry_stdout"] = self._cli(
            ["isometry-test", "--checkpoint", str(self.checkpoint("mlgp")),
             "--test", str(self.csv), "--trials", str(self.isometry_trials),
             "--seed", str(self.isometry_seed)],
            checks,
        )
        timings["isometry"] = (t() - start, self.isometry_trials)
        self._cli(
            ["export-spheres", "--checkpoint", str(self.checkpoint("mlgp")),
             "--out", str(self.spheres)],
            checks,
        )
        test_set = tetris.load_dataset(self.csv)
        tetris.save_dataset(test_set, self.csv_copy)
        out["reloaded"] = {}
        eval_s = 0.0
        for kind in MODEL_KINDS:
            loaded_kind, layers, step = models.load_checkpoint(self.checkpoint(kind))
            models.save_checkpoint(self.checkpoint(kind, ".resaved"), loaded_kind, layers, step)
            start = t()
            models.accuracy(layers, test_set.points, test_set.labels)
            eval_s += t() - start
            out["reloaded"][kind] = (loaded_kind, layers, step)
        timings["eval"] = (eval_s, len(test_set) * len(MODEL_KINDS))
        out["test_set"] = test_set
        return timings, out

    def check_pass(self, out, checks):
        checks.op(self.isometry_trials)
        match = re.search(r"max logit deviation: (\S+)", out["isometry_stdout"])
        deviation = float(match.group(1)) if match else math.inf
        checks.check(deviation <= ISOMETRY_TOL, f"isometry: max logit deviation {deviation:.3e}")
        report = json.loads(self.spheres.read_text())
        checks.check(
            report == experiment.export_spheres(self.trained["mlgp"]),
            "sphere report does not reload bit for bit",
        )
        csv_bytes = self.csv.read_bytes()
        checks.check(csv_bytes == self.csv_copy.read_bytes(), "dataset CSV does not round-trip")
        csv_sha = hashlib.sha256(csv_bytes).hexdigest()
        if self.first_csv_sha is None:
            self.first_csv_sha = csv_sha
        checks.check(csv_sha == self.first_csv_sha, "gen-data output differs between passes")
        points = out["test_set"].points
        for kind, (loaded_kind, layers, step) in out["reloaded"].items():
            checks.check(
                loaded_kind == kind and step == self.setup_epochs,
                f"{kind}: checkpoint reloads as {loaded_kind} at step {step}",
            )
            checks.check(
                self.checkpoint(kind).read_bytes()
                == self.checkpoint(kind, ".resaved").read_bytes(),
                f"{kind}: checkpoint does not re-save byte for byte",
            )
            reloaded, _ = nn.forward(layers, points)
            trained, _ = nn.forward(self.trained[kind], points)
            checks.check(
                np.array_equal(reloaded, trained), f"{kind}: reloaded checkpoint changes the logits"
            )


WORKLOADS = {w.name: w for w in (TrainWorkload, SampleEvalWorkload, AnalysisWorkload)}
