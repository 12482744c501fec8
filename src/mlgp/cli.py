"""Command-line entry points for data generation, training, and experiments.

Subcommands:

* ``gen-data``       - sample one labeled shape dataset to a CSV file.
* ``train``          - train one model on a dataset file, save a checkpoint.
* ``protocol``       - the full multi-run experiment with a results table.
* ``isometry-test``  - weight-space vs data-space motion comparison.
* ``export-spheres`` - decision-sphere report from a trained checkpoint.

Each protocol flag, and ``train``'s ``--epochs`` and ``--lr``, sets one field
of :class:`mlgp.experiment.ProtocolConfig`, which validates it and whose value
in the reference protocol is its default; ``--desk-scale`` shrinks the protocol
to 5 runs and a 10000-sample test set.  Exit status is nonzero
when an invariant check fails or a training fit diverges.
"""

import argparse
import sys
from dataclasses import fields

import numpy as np

from . import experiment, models, tetris


_REFERENCE = experiment.ProtocolConfig()
_CONFIG_FIELDS = tuple(f.name for f in fields(experiment.ProtocolConfig))
# the flags not named after their field
_FLAG_NAMES = {"noise_a": "--noise", "master_seed": "--seed"}


def _model_list(text):
    return tuple(k.strip() for k in text.split(",") if k.strip())


def _add_config_flags(p, names):
    """One flag per named ``ProtocolConfig`` field, typed and defaulted from the reference."""
    for name in names:
        default = getattr(_REFERENCE, name)
        flag = _FLAG_NAMES.get(name, "--" + name.replace("_", "-"))
        if name == "models":
            p.add_argument(flag, type=_model_list, default=default,
                           help="comma-separated subset of " + ",".join(default))
        else:
            p.add_argument(flag, dest=name, type=type(default), default=default)


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
    _add_config_flags(p, ("epochs", "lr"))
    p.add_argument("--seed", type=int, default=0, help="initialization seed")
    p.add_argument("--out", required=True, help="checkpoint output path")

    p = sub.add_parser("protocol", help="multi-run experiment with statistics")
    _add_config_flags(p, _CONFIG_FIELDS)
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
    # every dataset loads before the fit, so a bad --val or --test costs no training
    paths = {"train": args.train_path, "val": args.val_path, "test": args.test_path}
    sets = {name: tetris.load_dataset(path) for name, path in paths.items() if path}
    rng = np.random.default_rng(args.seed)
    model = models.build_model(args.model, rng)
    # a diverging fit overflows on its way to NaN; it is reported below instead
    with np.errstate(over="ignore", invalid="ignore"):
        losses = experiment.fit(model, sets["train"].points, sets["train"].labels, args.epochs, args.lr)
    if not np.all(np.isfinite(losses)):
        epoch = int(np.argmin(np.isfinite(losses)))
        raise ValueError(f"training diverged at epoch {epoch + 1} (loss {losses[epoch]}); "
                         f"no checkpoint written to {args.out}")
    final_loss = float(losses[-1]) if len(losses) else float("nan")
    print(f"trained {args.model} for {args.epochs} epochs, final loss {final_loss:.6f}")
    for name, data in sets.items():
        print(f"{name} accuracy {models.accuracy(model, data.points, data.labels) * 100:.2f}%")
    models.save_checkpoint(args.out, args.model, model, adam_step=args.epochs)
    print(f"checkpoint saved to {args.out}")
    return 0


def _cmd_protocol(args):
    config = experiment.ProtocolConfig(**{name: getattr(args, name) for name in _CONFIG_FIELDS})
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
    for combo, accs in report.accuracies.items():
        print(f"{combo}: {accs.mean():.2f} +- {accs.std():.2f}")
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
