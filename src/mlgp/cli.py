"""Command-line entry points for data generation, training, and experiments.

Subcommands:

* ``gen-data``       - sample one labeled shape dataset to a CSV file.
* ``train``          - train one model on a dataset file, save a checkpoint.
* ``protocol``       - the full multi-run experiment with a results table.
* ``isometry-test``  - weight-space vs data-space motion comparison.
* ``export-spheres`` - decision-sphere report from a trained checkpoint.

Protocol and Adam flags take their defaults from
:class:`mlgp.experiment.ProtocolConfig`, the reference protocol, and each
protocol flag stores to the field it sets; ``--desk-scale`` shrinks the
protocol to 5 runs and a 10000-sample test set.  Exit status is nonzero
when an invariant check fails.
"""

import argparse
import sys
from dataclasses import fields

import numpy as np

from . import experiment, models, tetris


_REFERENCE = experiment.ProtocolConfig()


def _add_adam_flags(p):
    p.add_argument("--epochs", type=int, default=_REFERENCE.epochs)
    p.add_argument("--lr", type=float, default=_REFERENCE.lr)
    p.add_argument("--beta1", type=float, default=_REFERENCE.beta1)
    p.add_argument("--beta2", type=float, default=_REFERENCE.beta2)


def _model_list(text):
    return tuple(k.strip() for k in text.split(",") if k.strip())


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mlgp",
        description="Geometric and hypersphere perceptrons on 3D Tetris shapes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="sample a labeled shape dataset to CSV")
    p.add_argument("--kind", choices=sorted(tetris.DATASET_ANGLES), default=tetris.MAIN)
    p.add_argument("--size", type=int, default=1000)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train one model on a dataset file")
    p.add_argument("--model", choices=models.MODEL_KINDS, required=True)
    p.add_argument("--train", dest="train_path", required=True)
    p.add_argument("--val", dest="val_path")
    p.add_argument("--test", dest="test_path")
    _add_adam_flags(p)
    p.add_argument("--seed", type=int, default=0, help="initialization seed")
    p.add_argument("--out", required=True, help="checkpoint output path")

    p = sub.add_parser("protocol", help="multi-run experiment with statistics")
    p.add_argument(
        "--experiment", choices=experiment.EXPERIMENT_KINDS, default=_REFERENCE.experiment
    )
    p.add_argument("--noise", dest="noise_a", type=float, default=_REFERENCE.noise_a)
    p.add_argument(
        "--models",
        type=_model_list,
        default=",".join(_REFERENCE.models),
        help="comma-separated subset of mlp,mlhp,mlgp",
    )
    p.add_argument("--runs", type=int, default=_REFERENCE.runs)
    _add_adam_flags(p)
    p.add_argument("--train-size", type=int, default=_REFERENCE.train_size)
    p.add_argument("--val-size", type=int, default=_REFERENCE.val_size)
    p.add_argument("--test-size", type=int, default=_REFERENCE.test_size)
    p.add_argument("--top-k", type=int, default=_REFERENCE.top_k)
    p.add_argument("--seed", dest="master_seed", type=int, default=_REFERENCE.master_seed)
    p.add_argument(
        "--desk-scale",
        action="store_true",
        help="5 runs, 10000-sample test set, top-2 selection",
    )
    p.add_argument("--results", required=True, help="results table output path")
    p.add_argument("--records", help="optional per-run records output path")

    p = sub.add_parser("isometry-test", help="weight-space motion comparison")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", dest="test_path", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("export-spheres", help="decision-sphere report")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)

    return parser


def _cmd_gen_data(args):
    data = tetris.make_dataset(args.kind, args.size, args.noise, args.seed)
    tetris.save_dataset(data, args.out)
    print(f"wrote {len(data)} shapes ({args.kind}, noise {args.noise}) to {args.out}")
    return 0


def _cmd_train(args):
    train_set = tetris.load_dataset(args.train_path)
    rng = np.random.default_rng(args.seed)
    model = models.build_model(args.model, rng)
    losses = experiment.fit(
        model,
        train_set.points,
        train_set.labels,
        args.epochs,
        args.lr,
        args.beta1,
        args.beta2,
    )
    final_loss = float(losses[-1]) if len(losses) else float("nan")
    print(f"trained {args.model} for {args.epochs} epochs, final loss {final_loss:.6f}")
    print(
        "train accuracy "
        f"{models.accuracy(model, train_set.points, train_set.labels) * 100:.2f}%"
    )
    for name, path in (("val", args.val_path), ("test", args.test_path)):
        if path:
            data = tetris.load_dataset(path)
            acc = models.accuracy(model, data.points, data.labels)
            print(f"{name} accuracy {acc * 100:.2f}%")
    models.save_checkpoint(args.out, args.model, model, adam_step=args.epochs)
    print(f"checkpoint saved to {args.out}")
    return 0


def _cmd_protocol(args):
    names = (f.name for f in fields(experiment.ProtocolConfig))
    config = experiment.ProtocolConfig(**{name: getattr(args, name) for name in names})
    if args.desk_scale:
        config = config.desk_scale()

    def progress(record):
        print(
            f"{record.model} run {record.run_id}: "
            f"val {record.val_accuracy * 100:.2f}% "
            f"test {record.test_accuracy * 100:.2f}% "
            f"({record.wall_time:.1f}s)",
            flush=True,
        )

    result = experiment.run_protocol(config, progress=progress)
    experiment.save_results(args.results, result.stats)
    if args.records:
        experiment.save_records(args.records, result.records)
    print(experiment.RESULTS_HEADER)
    for s in result.stats:
        print(f"{s.model},{s.dataset},{s.noise},{s.stat},{s.mean:.2f},{s.std:.2f}")
    print(f"results table saved to {args.results}")
    return 0


def _cmd_isometry_test(args):
    _, model, _ = models.load_checkpoint(args.checkpoint)
    test_set = tetris.load_dataset(args.test_path)
    report = experiment.isometry_test(model, test_set, args.trials, args.seed)
    for combo in experiment.COMBO_NAMES:
        mean, std = report.mean_std(combo)
        print(f"{combo}: {mean:.2f} +- {std:.2f}")
    print(f"max logit deviation: {report.max_logit_deviation:.3e}")
    if not report.equality_holds:
        print("invariant failure: weight-space motion changed the outputs", file=sys.stderr)
        return 1
    return 0


def _cmd_export_spheres(args):
    _, model, _ = models.load_checkpoint(args.checkpoint)
    report = experiment.export_spheres(model, args.out)
    n = sum(len(u["spheres"]) for u in report["units"])
    print(f"wrote {n} spheres from {len(report['units'])} units to {args.out}")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "protocol": _cmd_protocol,
    "isometry-test": _cmd_isometry_test,
    "export-spheres": _cmd_export_spheres,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
