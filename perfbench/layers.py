"""Per-layer metrics derived from the spans of a traced run.

The layers are mlgp's modules: nn, tetris, conformal, models, experiment,
_serialize (spans and metrics named ``serialize``) and cli.  Latency
percentiles use every traced span, set-up included: the analysis workload
trains only in set-up.  Shares are taken over the traced passes only, as a
fraction of their summed wall time.  An operation a workload never runs
reports 0.
"""

import numpy as np

MODEL_KINDS = ("mlp", "mlhp", "mlgp")
MODULES = ("nn", "tetris", "conformal", "models", "experiment", "serialize", "cli")
FIT_OPS = ("forward.train", "softmax_cross_entropy", "backward", "adam_step")
CLI_COMMANDS = ("gen-data", "isometry-test", "export-spheres")

# (in_dim, out_dim) of each layer's matmul, after the lift: the paper's
# 134/126/128-parameter architectures.
ARCHITECTURES = {
    "mlp": ((12, 6), (6, 8)),
    "mlhp": ((14, 5), (7, 8)),
    "mlgp": ((20, 4), (6, 8)),
}
FLOAT_BYTES = 8


def epoch_matmul_cost(kind, batch):
    """Computed flops and bytes of one full-batch epoch's matmuls.

    Forward ``X @ W.T``, weight gradient ``dZ.T @ X`` and, past the first
    layer, input gradient ``dZ @ W``: 2 flops per multiply-add, each operand
    read once and each result written once, float64.  Elementwise work (lifts,
    loss, Adam) is not counted.
    """
    flops = 0
    floats = 0
    for i, (n_in, n_out) in enumerate(ARCHITECTURES[kind]):
        matmuls = 3 if i > 0 else 2
        flops += matmuls * 2 * batch * n_in * n_out
        floats += matmuls * (batch * n_in + n_in * n_out + batch * n_out)
    return flops, floats * FLOAT_BYTES


def names_and_units():
    """Every per-layer metric, in order, with its unit."""
    out = []
    for op in FIT_OPS:
        for kind in MODEL_KINDS:
            out += [(f"nn.{op}.{kind}.us_p50", "us"), (f"nn.{op}.{kind}.us_p99", "us")]
    for kind in MODEL_KINDS:
        out += [(f"nn.epoch.{kind}.flops", "flop"), (f"nn.epoch.{kind}.bytes", "B")]
    out += [
        ("nn.forward.eval.ns_per_shape", "ns"),
        ("models.predict.self_share", "frac"),
        ("experiment.fit.self_share", "frac"),
        ("tetris.make_dataset.us_per_shape.train", "us"),
        ("tetris.make_dataset.us_per_shape.val", "us"),
        ("tetris.make_dataset.us_per_shape.test", "us"),
        ("tetris.make_dataset.shapes", "count"),
        ("models.transform_mlgp_weights.us", "us"),
        ("conformal.rigid_motion_apply.us", "us"),
        ("experiment.isometry_test.self_ms_per_trial", "ms"),
        ("serialize.save.us", "us"),
        ("serialize.load.us", "us"),
        ("serialize.bytes", "B"),
        ("tetris.save_dataset.MB_per_s", "MB/s"),
        ("tetris.load_dataset.MB_per_s", "MB/s"),
        ("models.save_checkpoint.us", "us"),
        ("models.load_checkpoint.us", "us"),
        ("experiment.export_spheres.us", "us"),
    ]
    out += [(f"cli.main.{cmd}.s", "s") for cmd in CLI_COMMANDS]
    out += [(f"{module}.self_share", "frac") for module in MODULES]
    out += [("untraced.self_share", "frac"), ("trace.overhead_frac", "frac")]
    return out


class _Spans:
    def __init__(self, tracer, pass_roots):
        self.a = tracer.arrays()
        self.names = tracer.names
        self.tags = tracer.tags
        self.in_pass = np.isin(self.a["root"], pass_roots)
        self.wall_ns = float(self.a["dur_ns"][pass_roots].sum())
        self.n_passes = len(pass_roots)
        parent = self.a["parent"]
        self.parent_name = np.where(parent >= 0, self.a["name"][np.maximum(parent, 0)], -1)

    def _id(self, table, value):
        return table.index(value) if value in table else -2

    def named(self, name, tag=None, parent=None):
        mask = self.a["name"] == self._id(self.names, name)
        if tag is not None:
            mask &= self.a["tag"] == self._id(self.tags, tag)
        if parent is not None:
            mask &= self.parent_name == self._id(self.names, parent)
        return mask

    def module(self, module):
        ids = [i for i, n in enumerate(self.names) if n.startswith(module + ".")]
        return np.isin(self.a["name"], ids)

    def pct_us(self, mask, q):
        d = self.a["dur_ns"][mask]
        return float(np.percentile(d, q)) / 1e3 if d.size else 0.0

    def share(self, mask):
        if not self.wall_ns:
            return 0.0
        return float(self.a["self_ns"][mask & self.in_pass].sum()) / self.wall_ns

    def cover(self, mask):
        """Summed duration of ``mask`` spans in passes, over the pass wall time."""
        if not self.wall_ns:
            return 0.0
        return float(self.a["dur_ns"][mask & self.in_pass].sum()) / self.wall_ns

    def rate(self, mask, scale):
        """Summed duration in ns per summed count, times ``scale``."""
        n = self.a["count"][mask].sum()
        return float(self.a["dur_ns"][mask].sum()) / n * scale if n else 0.0

    def dataset_roles(self, mask):
        """train / val / test role of each make_dataset span in ``mask``."""
        roles = {}
        seen = {}
        for i in np.flatnonzero(mask):
            p = int(self.a["parent"][i])
            parent = self.names[self.a["name"][p]] if p >= 0 else ""
            if parent == "experiment.train":
                k = seen.get(p, 0)
                seen[p] = k + 1
                roles[i] = "train" if k == 0 else "val"
            elif parent == "setup":
                roles[i] = "train"
            else:  # make_test_set, or gen-data writing a test CSV
                roles[i] = "test"
        return roles


def per_layer_metrics(workload, tracer, pass_roots, overhead_frac):
    """``(metrics, design checks)`` for the traced passes ``pass_roots``."""
    s = _Spans(tracer, pass_roots)
    m = {}
    for kind in MODEL_KINDS:
        masks = {
            "forward.train": s.named("nn.forward", kind, "experiment.fit"),
            "softmax_cross_entropy": s.named("nn.softmax_cross_entropy", kind, "experiment.fit"),
            "backward": s.named("nn.backward", kind, "experiment.fit"),
            "adam_step": s.named("nn.adam_step", kind, "experiment.fit"),
        }
        for op, mask in masks.items():
            m[f"nn.{op}.{kind}.us_p50"] = s.pct_us(mask, 50)
            m[f"nn.{op}.{kind}.us_p99"] = s.pct_us(mask, 99)
        batches = s.a["count"][masks["forward.train"]]
        batch = int(np.median(batches)) if batches.size else 0
        m[f"nn.epoch.{kind}.flops"], m[f"nn.epoch.{kind}.bytes"] = epoch_matmul_cost(kind, batch)

    eval_forward = s.named("nn.forward") & ~s.named("nn.forward", parent="experiment.fit")
    m["nn.forward.eval.ns_per_shape"] = s.rate(eval_forward, 1.0)
    m["models.predict.self_share"] = s.share(s.named("models.predict"))
    m["experiment.fit.self_share"] = s.share(s.named("experiment.fit"))

    sampled = s.named("tetris.make_dataset")
    roles = s.dataset_roles(sampled)
    for role in ("train", "val", "test"):
        mask = np.zeros_like(sampled)
        mask[[i for i, r in roles.items() if r == role]] = True
        m[f"tetris.make_dataset.us_per_shape.{role}"] = s.rate(mask, 1e-3)
    shapes = s.a["count"][sampled & s.in_pass].sum()
    m["tetris.make_dataset.shapes"] = int(shapes) // max(s.n_passes, 1)

    m["models.transform_mlgp_weights.us"] = s.pct_us(s.named("models.transform_mlgp_weights"), 50)
    m["conformal.rigid_motion_apply.us"] = s.pct_us(
        s.named("conformal.rigid_motion_apply", parent="experiment.isometry_test"), 50
    )
    iso = s.named("experiment.isometry_test")
    trials = s.a["count"][iso].sum()
    m["experiment.isometry_test.self_ms_per_trial"] = (
        float(s.a["self_ns"][iso].sum()) / trials / 1e6 if trials else 0.0
    )

    save, load = s.named("serialize.save"), s.named("serialize.load")
    m["serialize.save.us"] = s.pct_us(save, 50)
    m["serialize.load.us"] = s.pct_us(load, 50)
    io_counts = s.a["count"][save | load]
    m["serialize.bytes"] = float(io_counts.mean()) if io_counts.size else 0.0
    for op in ("save", "load"):
        ns_per_byte = s.rate(s.named(f"tetris.{op}_dataset"), 1.0)
        m[f"tetris.{op}_dataset.MB_per_s"] = 1e3 / ns_per_byte if ns_per_byte else 0.0
    for name in ("models.save_checkpoint", "models.load_checkpoint", "experiment.export_spheres"):
        m[f"{name}.us"] = s.pct_us(s.named(name), 50)
    for cmd in CLI_COMMANDS:
        m[f"cli.main.{cmd}.s"] = s.pct_us(s.named("cli.main", cmd), 50) / 1e6

    for module in MODULES:
        m[f"{module}.self_share"] = s.share(s.module(module))
    m["untraced.self_share"] = s.share(s.named("pass"))
    m["trace.overhead_frac"] = overhead_frac
    return m, _design_checks(workload, s, m)


def _design_checks(workload, s, m):
    """Whether the traced passes spend their time where the workload aims."""
    if workload == "train":
        share = m["nn.self_share"] + m["experiment.fit.self_share"]
        return [(f"nn spans plus fit self time cover {share:.1%} of wall_s (>= 90%)", share >= 0.9)]
    if workload == "sample_eval":
        share = s.cover(s.named("tetris.make_dataset"))
        return [(f"tetris.make_dataset covers {share:.1%} of wall_s (>= 50%)", share >= 0.5)]
    training = s.named("experiment.fit") | s.named("experiment.train") | s.named("nn.backward")
    training &= s.in_pass
    sampled = s.named("tetris.make_dataset") & s.in_pass
    outside_cli = (sampled & ~s.named("tetris.make_dataset", "gen-data")).sum()
    return [
        (f"training spans in passes: {int(training.sum())} (0)", not training.any()),
        (f"sampling spans outside gen-data in passes: {int(outside_cli)} (0)", not outside_cli),
    ]
