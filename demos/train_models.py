"""Train the three architectures on the same data and compare them.

Uses a shortened run (10000 epochs instead of 20000) so the demo finishes
in seconds; accuracies land a little below the full-protocol numbers.

Run with:  python3 demos/train_models.py
"""

import time

import numpy as np

from mlgp import MODEL_KINDS, accuracy, build_model, fit, make_dataset

EPOCHS = 10000

train_set = make_dataset("main", 1000, seed=1)
test_set = make_dataset("main", 5000, seed=2)
print(f"train {len(train_set)} shapes, test {len(test_set)} shapes")

print(f"{'model':6s} {'params':>6s} {'loss':>8s} {'test acc':>9s} {'time':>6s}")
for kind in MODEL_KINDS:
    rng = np.random.default_rng(3)
    model = build_model(kind, rng)
    start = time.perf_counter()
    losses = fit(model, train_set.points, train_set.labels, EPOCHS)
    wall = time.perf_counter() - start
    acc = accuracy(model, test_set.points, test_set.labels)
    print(
        f"{kind:6s} {model.theta.size:6d} {losses[-1]:8.4f} "
        f"{acc * 100:8.2f}% {wall:5.1f}s"
    )

print()
print("the two sphere-based models separate the chiral pair; the plain")
print("dense network has to memorize poses and trails them by ~20 points")
