"""Reading the decision surfaces out of a trained geometric layer.

Each first-layer unit owns four weight 5-blocks.  Point-normalizing a
block (dividing by its last entry) exposes a sphere: a center, a squared
radius, and a scale factor whose sign says whether the unit fires for
points inside (I) or outside (O) the surface.  Squared radii may come out
negative; those spheres have no Euclidean surface but are kept as is.

Run with:  python3 demos/decision_spheres.py
"""

import tempfile
from pathlib import Path

import numpy as np

from mlgp import build_model, export_spheres, fit, make_dataset

rng = np.random.default_rng(21)

print("1. Train a geometric model briefly")
train_set = make_dataset("main", 1000, seed=20)
model = build_model("mlgp", rng)
fit(model, train_set.points, train_set.labels, 5000)

print("2. Extract the spheres")
report = export_spheres(model)
print(f"   {'unit':>4s} {'block':>5s} {'gamma':>8s} {'center':>26s} {'r^2':>8s} kind")
for unit in report["units"]:
    for s in unit["spheres"]:
        if s["degenerate"]:
            print(f"   {unit['unit']:4d} {s['point_block']:5d} {s['gamma']:8.3f} "
                  f"{'(degenerate)':>26s}")
            continue
        center = "(" + ", ".join(f"{c:6.2f}" for c in s["center"]) + ")"
        tag = s["surface"] + (" imaginary" if s["imaginary_radius"] else "")
        print(f"   {unit['unit']:4d} {s['point_block']:5d} {s['gamma']:8.3f} "
              f"{center:>26s} {s['radius_sq']:8.2f} {tag}")

n_imag = sum(s["imaginary_radius"] for u in report["units"] for s in u["spheres"])
n_o = sum(s["surface"] == "O" for u in report["units"] for s in u["spheres"]
          if not s["degenerate"])
print(f"   {n_o} O-spheres, {n_imag} imaginary radii out of 16")

print("3. The report serializes for downstream plotting")
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "spheres.json"
    export_spheres(model, path)
    print(f"   wrote {path.stat().st_size} bytes, starts with:")
    print("   " + path.read_text().splitlines()[1].strip())
