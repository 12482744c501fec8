"""Moving the weights instead of the data: exact activation isometry.

A geometric first layer stores four 5-blocks per unit, each acting like a
(scaled) sphere.  Applying one rigid motion to every block and the same
motion to the input points leaves all activations unchanged to rounding.

Run with:  python3 demos/weight_space_motion.py
"""

import numpy as np

from mlgp import (
    build_model,
    fit,
    forward,
    isometry_test,
    make_dataset,
    sample_motion,
    transform_mlgp_weights,
)
from mlgp.experiment import COMBO_NAMES

rng = np.random.default_rng(5)

print("1. Train a small geometric model")
train_set = make_dataset("main", 1000, seed=10)
model = build_model("mlgp", rng)
fit(model, train_set.points, train_set.labels, 5000)

print("2. One motion, applied to data and weights together")
motion = sample_motion(rng)
moved = transform_mlgp_weights(model, motion)
pts = make_dataset("main", 64, seed=11).points
base, _ = forward(model, pts)
same, _ = forward(moved, motion.apply(pts))
print(f"   max |logit difference| = {np.abs(same - base).max():.2e}")

print("3. Mismatched combinations break the agreement")
crossed, _ = forward(model, motion.apply(pts))
print(f"   original weights on moved data: max diff {np.abs(crossed - base).max():.2f}")

print("4. Over many sampled motions (the quantitative experiment)")
test_set = make_dataset("main", 2000, seed=12)
report = isometry_test(model, test_set, trials=25, seed=13)
for combo in COMBO_NAMES:
    accs = report.accuracies[combo]
    print(f"   {combo:36s} {accs.mean():6.2f} +- {accs.std():.2f}")
print(f"   max logit deviation across all trials: {report.max_logit_deviation:.2e}")
print(f"   equality invariant holds: {report.equality_holds}")
