"""The eight 3D Tetris shapes and the seeded dataset generator.

Run with:  python3 demos/tetris_dataset.py
"""

import tempfile
from pathlib import Path

import numpy as np

from mlgp import SHAPE_NAMES, canonical_shapes, load_dataset, make_dataset, save_dataset
from mlgp.tetris import DATASET_ANGLES

print("1. Canonical shapes (4 integer-grid points each)")
shapes = canonical_shapes()
for name, pts in zip(SHAPE_NAMES, shapes):
    print(f"   {name:12s} {pts.astype(int).tolist()}")
print("   chiral_one and chiral_two are mirror images: no rotation maps one")
print("   onto the other, which is what makes the first two classes hard.")

print("2. A dataset applies a random rotation and translation per sample")
data = make_dataset("main", size=16, noise_a=0.0, seed=7)
print(f"   {len(data)} samples, labels {data.labels.tolist()}")
print(f"   sample 0 (label {data.labels[0]}, {SHAPE_NAMES[data.labels[0]]}):")
print(np.round(data.points[0], 3))

print("3. The theta-split restricts training angles to probe generalization")
print(f"   theta_train intervals: {DATASET_ANGLES['theta_train']}")
print(f"   theta_eval  intervals: {DATASET_ANGLES['theta_eval']}")

print("4. Coordinate noise is added after the rigid motion")
noisy = make_dataset("main", size=512, noise_a=0.2, seed=7)
devs = []
for pts, label in zip(noisy.points, noisy.labels):
    ref = shapes[label]
    for i in range(4):
        for j in range(i + 1, 4):
            devs.append(
                abs(np.linalg.norm(pts[i] - pts[j]) - np.linalg.norm(ref[i] - ref[j]))
            )
print(f"   max pairwise-distance deviation from the canonical shapes: {max(devs):.3f}")
print("   (exactly 0 for a=0; each coordinate moves at most a=0.2)")

print("5. Datasets round-trip through CSV without losing a bit")
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo.csv"
    save_dataset(data, path)
    again = load_dataset(path)
    print(f"   header: {path.read_text().splitlines()[0]}")
    print(f"   reload identical: {np.array_equal(again.points, data.points)}")
