"""mlgp benchmark: one workload per process, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 0 --seconds 30 --trace 0

Workloads: ``train``, ``sample_eval``, ``analysis`` (see workloads.py).  The
BLAS and OpenMP thread count is pinned to 1 before NumPy loads.  The run sets
up five times, then repeats passes of the workload for about ``--seconds``,
then checks the outputs.  With ``--trace 0`` it prints every end-to-end
metric, with times scaled to a reference host speed that the kernel in
calibrate.py measures around the set-ups and passes.  With ``--trace 1`` it
alternates untraced and traced passes and prints the per-layer metrics
(layers.py), unscaled.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
environment, the result and, for traced runs, every span are written under
``.perfbench_out/``.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUPS = 5
MODEL_KINDS = ("mlp", "mlhp", "mlgp")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "fit_epoch_us.mlp": "us",
    "fit_epoch_us.mlhp": "us",
    "fit_epoch_us.mlgp": "us",
    "sample_us_per_shape": "us",
    "eval_ns_per_shape": "ns",
    "isometry_trial_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train", "sample_eval", "analysis"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads_in_use():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment(np):
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    sources = sorted((SRC / "mlgp").glob("*.py"))
    src_hash = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        src_hash.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_use": _blas_threads_in_use(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "git_sha": _git_sha(),
        "src_sha256": src_hash.hexdigest(),
        "src_mlgp_lines": lines,
    }


def end_to_end(setups, passes, setup_speed, pass_speed):
    """Medians over the run's set-ups and untraced passes, times scaled by
    the host speed measured around the set-ups or the passes."""
    fit = {k: [] for k in MODEL_KINDS}
    for timings, speed in [(s, setup_speed) for s in setups] + [
        (p["timings"], pass_speed) for p in passes
    ]:
        for kind, (seconds, epochs) in timings.get("fit", {}).items():
            fit[kind].append(seconds * speed / epochs * 1e6)

    def per_unit(stage, scale):
        return statistics.median(
            [p["timings"][stage][0] / p["timings"][stage][1] for p in passes]
        ) * pass_speed * scale

    m = {
        "setup_s": statistics.median([s["seconds"] for s in setups]) * setup_speed,
        "wall_s": statistics.median([p["wall_s"] for p in passes]) * pass_speed,
    }
    for kind in MODEL_KINDS:
        m[f"fit_epoch_us.{kind}"] = statistics.median(fit[kind])
    m["sample_us_per_shape"] = per_unit("sample", 1e6)
    m["eval_ns_per_shape"] = per_unit("eval", 1e9)
    m["isometry_trial_ms"] = per_unit("isometry", 1e3)
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return m


def check_declared(units, trace):
    """The metrics and units must be exactly those BENCHMARK.json declares."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    spec = json.loads(path.read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if declared != units:
        raise SystemExit(f"error: metrics {sorted(set(units.items()) ^ set(declared.items()))}"
                         " differ from BENCHMARK.json")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "mlgp" / "__init__.py").is_file():
        print(f"error: no mlgp package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import calibrate
    import layers
    import workloads
    from spans import Tracer

    env = environment(np)
    if not BLAS_THREADS <= env["nproc"]:
        print(f"error: {BLAS_THREADS} BLAS threads exceed nproc {env['nproc']}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"{tag}-{os.getpid()}"
    work_dir.mkdir()
    checks = workloads.Checks()
    tracer = Tracer() if args.trace else None
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work_dir, SRC, dict(os.environ))
        setups = []
        kernel_s = {"setup": [], "pass": []}
        for _ in range(SETUPS):
            kernel_s["setup"] += calibrate.kernel_seconds()
            start = time.perf_counter()
            with tracer.root("setup") if tracer else contextlib.nullcontext():
                timings = workload.setup(checks)
            setups.append(dict(timings, seconds=time.perf_counter() - start))

        passes = []
        begin = time.perf_counter()
        # Stop when half the last pass would no longer fit, so runs end close
        # to --seconds on average; a traced run needs one pass of each kind.
        while (
            not passes
            or time.perf_counter() - begin + passes[-1]["wall_s"] / 2 < args.seconds
            or (tracer and len(passes) < 2)
        ):
            traced = bool(tracer) and len(passes) % 2 == 1
            kernel_s["pass"] += calibrate.kernel_seconds()
            with tracer.root("pass") if traced else contextlib.nullcontext() as root:
                start = time.perf_counter()
                timings, out = workload.run_pass(checks)
                wall = time.perf_counter() - start
            passes.append({"traced": traced, "wall_s": wall, "timings": timings,
                           "root": root.idx if traced else None})
            workload.check_pass(out, checks)
        kernel_s["pass"] += calibrate.kernel_seconds()
        workload.final_checks(checks)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    untraced = [p for p in passes if not p["traced"]]
    speed = {k: calibrate.REFERENCE_S / statistics.median(v) for k, v in kernel_s.items()}
    raw = {}
    design = []
    if tracer:
        traced = [p for p in passes if p["traced"]]
        overhead = (
            statistics.median([p["wall_s"] for p in traced])
            / statistics.median([p["wall_s"] for p in untraced])
            - 1
        )
        metrics, design = layers.per_layer_metrics(
            args.workload, tracer, [p["root"] for p in traced], overhead
        )
        units = dict(layers.names_and_units())
        tracer.flush(OUT / f"trace-{tag}.csv")
    else:
        raw = end_to_end(setups, untraced, 1.0, 1.0)
        metrics = end_to_end(setups, untraced, speed["setup"], speed["pass"])
        units = END_TO_END_UNITS
    check_declared(units, args.trace)

    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} passes "
          f"({len(untraced)} untraced), {SETUPS} set-ups")
    print("env " + json.dumps(env))
    if not tracer:
        print(f"host speed: times scaled by {speed['setup']:.4f} (set-ups) and "
              f"{speed['pass']:.4f} (passes), the reference kernel time "
              f"{calibrate.REFERENCE_S} s over the median measured around them")
    for name, value in metrics.items():
        measured = f"  (raw {raw[name]:.6g})" if raw.get(name, value) != value else ""
        print(f"  {name:48s} {value:14.6g} {units[name]}{measured}")
    failed_frac = checks.failed / checks.attempted
    print(f"  {'failed_frac':48s} {failed_frac:14.6g} failed/attempted "
          f"({checks.failed}/{checks.attempted} runs, trials, commands and checks)")
    for what in checks.failures:
        print(f"  FAILED: {what}")
    for statement, holds in design:
        print(f"  design {'ok' if holds else 'NOT MET'}: {statement}")
    if tracer and tracer.missing:
        print(f"  not traced (missing in mlgp): {', '.join(tracer.missing)}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    saved = dict(result, env=env, failures=checks.failures, raw=raw, kernel_s=kernel_s)
    (OUT / f"result-{tag}.json").write_text(json.dumps(saved, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
