"""Project whole-protocol wall times from saved benchmark results (not gated).

Reads the untraced results that run.py saved under ``.perfbench_out/``,
takes the median of each metric over the saved runs of each workload, and
prints the projected time of the reference protocol (50 runs) and of the
desk-scale protocol (5 runs) for each experiment.  Run from the repository
root after at least one untraced ``train`` and one ``sample_eval`` run:

    python3 perfbench/project.py
"""

import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / ".perfbench_out"
MODEL_KINDS = ("mlp", "mlhp", "mlgp")
EPOCHS = 20000
TRAIN_SIZE = 1000
PROTOCOLS = {"reference": (50, 9000, 90000), "desk": (5, 9000, 10000)}  # runs, val, test
# Sampling cost per experiment: main draws noise-free shapes over all angles
# (as train does); noise and theta take the noise path (as sample_eval does).
SAMPLE_SOURCE = {"main": "train", "noise": "sample_eval", "theta": "sample_eval"}
FORMULA = (
    "protocol_s = runs * 20000 * sum(fit_epoch_us[train]) / 1e6"
    " + (test + 3 * runs * (1000 + val)) * sample_us_per_shape[src] / 1e6"
    " + 3 * runs * (val + test) * eval_ns_per_shape[sample_eval] / 1e9"
)


def load_medians():
    values = {}
    for path in OUT.glob("result-*-trace0.json"):
        workload = path.name[len("result-"):].split("-seed")[0]
        for name, metric in json.loads(path.read_text())["metrics"].items():
            values.setdefault(workload, {}).setdefault(name, []).append(metric["value"])
    return {w: {n: statistics.median(v) for n, v in m.items()} for w, m in values.items()}


def protocol_s(runs, val, test, fit_epoch_us, sample_us, eval_ns):
    return (
        runs * EPOCHS * sum(fit_epoch_us) / 1e6
        + (test + 3 * runs * (TRAIN_SIZE + val)) * sample_us / 1e6
        + 3 * runs * (val + test) * eval_ns / 1e9
    )


def main():
    med = load_medians()
    if "train" not in med or "sample_eval" not in med:
        print("error: need saved untraced results of train and sample_eval", file=sys.stderr)
        return 1
    fit = [med["train"][f"fit_epoch_us.{k}"] for k in MODEL_KINDS]
    eval_ns = med["sample_eval"]["eval_ns_per_shape"]
    print(FORMULA)
    print(f"  fit_epoch_us (train) = {', '.join(f'{v:.1f}' for v in fit)}; "
          f"eval_ns_per_shape (sample_eval) = {eval_ns:.1f}")
    for experiment, src in SAMPLE_SOURCE.items():
        sample_us = med[src]["sample_us_per_shape"]
        projected = {
            name: protocol_s(*sizes, fit, sample_us, eval_ns) for name, sizes in PROTOCOLS.items()
        }
        print(f"  {experiment:5s}: reference_protocol_s {projected['reference']:8.1f}  "
              f"desk_protocol_s {projected['desk']:6.1f}  "
              f"(sample_us_per_shape[{src}] = {sample_us:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
