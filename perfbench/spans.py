"""In-memory span tracer that wraps mlgp's public functions at their import sites.

``Tracer.install()`` replaces each target function with a wrapper in every
``mlgp`` module that binds it (``mlgp.experiment.forward``,
``mlgp.models.forward``, ``mlgp.nn.forward``, the package re-export, ...), and
patches the two methods on their classes.  Every call then records one span:
name, parent span, start and end in ns, a count (batch size, shapes, bytes,
epochs or trials, depending on the target) and a tag (the model kind for
training spans, the command for ``cli.main``).  ``uninstall()`` restores the
originals, so untraced passes run the program untouched.

Spans live in flat arrays until ``flush`` writes them once, at the end of
the run.  A target missing from the program is skipped and reported, so a
later refactor of an internal name costs per-layer detail, never the run.
"""

import contextlib
import functools
import importlib
import os
import sys
from array import array
from time import perf_counter_ns

import numpy as np

NO_TAG = ""

# (module, attribute, span name).  "Class.method" attributes patch the class.
TARGETS = (
    ("mlgp.nn", "forward", "nn.forward"),
    ("mlgp.nn", "softmax_cross_entropy", "nn.softmax_cross_entropy"),
    ("mlgp.nn", "backward", "nn.backward"),
    ("mlgp.nn", "Adam.step", "nn.adam_step"),
    ("mlgp.tetris", "make_dataset", "tetris.make_dataset"),
    ("mlgp.tetris", "save_dataset", "tetris.save_dataset"),
    ("mlgp.tetris", "load_dataset", "tetris.load_dataset"),
    ("mlgp.conformal", "RigidMotion.apply", "conformal.rigid_motion_apply"),
    ("mlgp.models", "build_model", "models.build_model"),
    ("mlgp.models", "predict", "models.predict"),
    ("mlgp.models", "accuracy", "models.accuracy"),
    ("mlgp.models", "transform_mlgp_weights", "models.transform_mlgp_weights"),
    ("mlgp.models", "save_checkpoint", "models.save_checkpoint"),
    ("mlgp.models", "load_checkpoint", "models.load_checkpoint"),
    ("mlgp.experiment", "fit", "experiment.fit"),
    ("mlgp.experiment", "train", "experiment.train"),
    ("mlgp.experiment", "make_test_set", "experiment.make_test_set"),
    ("mlgp.experiment", "summarize_records", "experiment.summarize_records"),
    ("mlgp.experiment", "isometry_test", "experiment.isometry_test"),
    ("mlgp.experiment", "export_spheres", "experiment.export_spheres"),
    ("mlgp._serialize", "save", "serialize.save"),
    ("mlgp._serialize", "load", "serialize.load"),
    ("mlgp.cli", "main", "cli.main"),
)


def _file_bytes(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _arg(args, kwargs, pos, key):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else None


def _batch(points):
    shape = np.shape(points)
    return shape[0] if len(shape) == 3 else 1


def _len(obj):
    try:
        return len(obj)
    except TypeError:
        return 0


class Tracer:
    """Spans of one process, kept in memory; see the module docstring."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.tags = [NO_TAG]
        self._tag_ids = {NO_TAG: 0}
        self.name = array("i")
        self.tag = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.count = array("q")
        self._stack = [-1]
        self._models = {}  # id(layers) -> (layers, kind), filled by build/load
        self._patches = []
        self.missing = []

    # -- recording -------------------------------------------------------

    def _intern(self, table, ids, value):
        if value not in ids:
            ids[value] = len(table)
            table.append(value)
        return ids[value]

    def _open(self, name_id, tag_id):
        idx = len(self.start)
        parent = self._stack[-1]
        self.name.append(name_id)
        self.tag.append(tag_id if tag_id or parent < 0 else self.tag[parent])
        self.parent.append(parent)
        self.start.append(0)
        self.end.append(0)
        self.count.append(0)
        self._stack.append(idx)
        return idx

    def span(self, name):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self._intern(self.names, self._name_ids, name))

    @contextlib.contextmanager
    def root(self, name):
        """Trace one root span: wrappers installed on entry, removed on exit."""
        self.install()
        try:
            with self.span(name) as span:
                yield span
        finally:
            self.uninstall()

    def _model_tag(self, layers):
        entry = self._models.get(id(layers))
        kind = entry[1] if entry is not None and entry[0] is layers else NO_TAG
        return self._intern(self.tags, self._tag_ids, kind)

    def _register(self, layers, kind):
        self._models[id(layers)] = (layers, str(kind))

    def _wrap(self, fn, span_name, count_fn, tag_fn):
        name_id = self._intern(self.names, self._name_ids, span_name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag_id = tag_fn(args, kwargs) if tag_fn is not None else 0
            idx = tracer._open(name_id, tag_id)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if count_fn is not None:
                try:
                    tracer.count[idx] = int(count_fn(args, kwargs, result))
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # an API whose shape changed leaves the count at 0
            return result

        return traced

    # -- per-target counts and tags --------------------------------------

    def _hooks(self, span_name):
        """(count_fn, tag_fn) for one target; both optional."""
        tag_of = self._model_tag
        intern_tag = functools.partial(self._intern, self.tags, self._tag_ids)

        def register_built(args, kwargs, result):
            self._register(result, _arg(args, kwargs, 0, "kind"))
            return _len(result)

        def register_loaded(args, kwargs, result):
            kind, layers = result[0], result[1]
            self._register(layers, kind)
            return _file_bytes(_arg(args, kwargs, 0, "path"))

        hooks = {
            "nn.forward": (lambda a, k, r: _batch(_arg(a, k, 1, "points")), None),
            "experiment.fit": (
                lambda a, k, r: _len(r),
                lambda a, k: tag_of(_arg(a, k, 0, "layers")),
            ),
            "tetris.make_dataset": (lambda a, k, r: _len(r), None),
            "tetris.save_dataset": (lambda a, k, r: _file_bytes(_arg(a, k, 1, "path")), None),
            "tetris.load_dataset": (lambda a, k, r: _file_bytes(_arg(a, k, 0, "path")), None),
            "conformal.rigid_motion_apply": (
                lambda a, k, r: np.size(_arg(a, k, 1, "points")) // 3,
                None,
            ),
            "models.build_model": (register_built, None),
            "models.load_checkpoint": (register_loaded, None),
            "models.save_checkpoint": (lambda a, k, r: _file_bytes(_arg(a, k, 0, "path")), None),
            "models.predict": (lambda a, k, r: _batch(_arg(a, k, 1, "points")), None),
            "experiment.isometry_test": (lambda a, k, r: getattr(r, "trials", 0), None),
            "serialize.save": (lambda a, k, r: _file_bytes(_arg(a, k, 0, "path")), None),
            "serialize.load": (lambda a, k, r: _file_bytes(_arg(a, k, 0, "path")), None),
            "cli.main": (
                None,
                lambda a, k: intern_tag(str((_arg(a, k, 0, "argv") or ["?"])[0])),
            ),
        }
        return hooks.get(span_name, (None, None))

    # -- installing ------------------------------------------------------

    def install(self):
        """Wrap every target at every import site inside ``mlgp``."""
        for module_name, attr, span_name in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self._note_missing(f"{module_name}.{attr}")
                continue
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, name, None)
            if not callable(original):
                self._note_missing(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, span_name, *self._hooks(span_name))
            if owner_name:  # a method: patch the class
                self._patch(owner, name, wrapper)
                continue
            for site in [m for n, m in sys.modules.items() if n == "mlgp" or n.startswith("mlgp.")]:
                for site_name, value in list(vars(site).items()):
                    if value is original:
                        self._patch(site, site_name, wrapper)

    def _note_missing(self, target):
        if target not in self.missing:
            self.missing.append(target)

    def _patch(self, owner, name, wrapper):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- output ----------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays, with self time and root span per span."""
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        dur = (end - start).astype(float)
        n = len(dur)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        root = np.where(has_parent, parent, np.arange(n))
        while True:
            up = parent[root]
            nxt = np.where(up >= 0, up, root)
            if np.array_equal(nxt, root):
                break
            root = nxt
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "tag": np.frombuffer(self.tag, dtype=np.int32),
            "parent": parent,
            "dur_ns": dur,
            "self_ns": dur - covered,
            "count": np.frombuffer(self.count, dtype=np.int64),
            "root": root,
        }

    def flush(self, path):
        """Write every span once, as CSV, after measuring has ended."""
        with open(path, "w") as fh:
            fh.write("span,name,tag,parent,start_ns,end_ns,count\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name[i]]},{self.tags[self.tag[i]]},"
                    f"{self.parent[i]},{self.start[i]},{self.end[i]},{self.count[i]}\n"
                )


class _Span:
    def __init__(self, tracer, name_id):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        self.idx = self.tracer._open(self.name_id, 0)
        self.t0 = perf_counter_ns()
        return self

    def __exit__(self, *exc):
        t1 = perf_counter_ns()
        self.tracer._stack.pop()
        self.tracer.start[self.idx] = self.t0
        self.tracer.end[self.idx] = t1
        return False
