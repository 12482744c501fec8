"""Multilayer geometric and hypersphere perceptrons for 3D point clouds.

The package turns points and hyperspheres into vectors whose dot product
measures incidence, builds small classifiers from that primitive, and
reproduces the 3D Tetris experiments: train/val/test protocol statistics,
rigid-motion weight transforms with exact activation isometry, and
decision-sphere extraction.

The root holds the names the demos and the README use; every other name is
imported from its submodule, e.g. ``mlgp.models.load_checkpoint``.
"""

from .conformal import (
    RigidMotion,
    classify_point,
    conformal_dot,
    embed_point,
    extract_center_radius_sq,
    motor_matrix_point,
    motor_matrix_sphere,
    point_normalize,
    rotation_about_axis,
    sphere_from_center_radius,
)
from .experiment import ProtocolConfig, export_spheres, fit, isometry_test, run_protocol
from .models import MODEL_KINDS, accuracy, build_model, transform_mlgp_weights
from .nn import forward
from .tetris import (
    SHAPE_NAMES,
    canonical_shapes,
    load_dataset,
    make_dataset,
    sample_motion,
    save_dataset,
)
