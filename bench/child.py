"""One measured fedprof run in a fresh process, started by ``bench/run.py``.

    python3 bench/child.py MODE CONFIG_JSON WORK_DIR LAUNCHED_AT

MODE is ``setup`` (import fedprof and validate the config, then stop),
``run`` (then ``harness.run_experiment(cfg, WORK_DIR/run)``, as ``fedprof
run`` does, between two timings of a fixed calibration kernel) or ``trace``
(the run with spans recorded around fedprof's public functions).
LAUNCHED_AT is the parent's ``time.monotonic()`` just before it started this
process; both processes read the same system-wide monotonic clock, so set-up
time covers interpreter start-up too.  The result goes to
WORK_DIR/result.json.
"""

import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Repetitions of the calibration kernel: about 0.5 s on a 2.1 GHz Xeon vCPU.
CALIBRATION_REPS = 1000


def main(mode: str, config_path: str, work_dir: str, launched_at: str) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import fedprof
    from fedprof import harness

    if Path(fedprof.__file__).resolve().parent != ROOT / "src" / "fedprof":
        sys.exit(f"imported fedprof from {fedprof.__file__}, not from {ROOT / 'src'}")
    cfg = harness.validate_config(Path(config_path).read_text())
    result = {"setup_s": time.monotonic() - float(launched_at)}
    work = Path(work_dir)

    def timed_run() -> float:
        t0 = time.monotonic()
        harness.run_experiment(cfg, work / "run")
        return time.monotonic() - t0

    if mode == "setup":
        result["env"] = environment()
    elif mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(fedprof)
        result["run_s"] = timed_run()
        result["layers"] = tracer.layer_metrics()
        (work / "spans.json").write_text(json.dumps(tracer.spans))
    else:
        cal_before = calibrate()
        result["run_s"] = timed_run()
        result["cal_s"] = (cal_before + calibrate()) / 2
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    (work / "result.json").write_text(json.dumps(result))


def calibrate() -> float:
    """Wall time of a fixed numpy kernel shaped like fedprof's hot paths.

    The machine's speed drifts by tens of percent over seconds to minutes
    (shared cores).  Timed just before and after a run, this kernel slows
    down with the machine, so run time divided by it drifts less.  Each
    repetition does a dense forward/backward step on a 150-row batch, a 3x3
    convolution of 32 6x6 images by einsum, and eight one-row forwards, the
    shapes of the MLP, CNN and per-example DP paths.
    """
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    rng = np.random.default_rng(0)
    x, w1, w2 = (rng.standard_normal(s) for s in ((150, 16), (16, 32), (32, 10)))
    images, kernels = rng.standard_normal((32, 1, 6, 6)), rng.standard_normal((8, 1, 3, 3))
    t0 = time.monotonic()
    for _ in range(CALIBRATION_REPS):
        h = np.maximum(x @ w1, 0.0)
        z = h @ w2
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        h.T @ p
        windows = sliding_window_view(images, (3, 3), axis=(2, 3))
        np.einsum("nchwij,ocij->nohw", windows, kernels)
        for i in range(8):
            np.maximum(x[i:i + 1] @ w1, 0.0) @ w2
    return time.monotonic() - t0


def environment() -> dict:
    """Interpreter, numpy and BLAS versions plus the BLAS thread count."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 cannot return the config as a dict
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if it cannot be read."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


if __name__ == "__main__":
    main(*sys.argv[1:])
