"""One round of a workload in a fresh interpreter, so every round pays the
imports and starts with the program's caches empty, as a CLI call does.

Prints "ready" once the imports are done, then, unless --probe is given,
runs the job list with each job timed, checks the outputs, and prints one
JSON line with the timings, the checks and (with --trace 1) the per-layer
metrics.  Run by run.py; not meant to be called by hand.
"""

from time import perf_counter

import hostspeed

# run.py times the set-up until the "ready" line; the host is sampled during
# the imports, which are what the set-up time measures
SETUP_SAMPLER = hostspeed.Sampler(hostspeed.PYTHON_GAUGE)
SETUP_SAMPLER.start()
try:
    import argparse
    import ctypes
    import glob
    import json
    import os
    import resource
    import sys
    import traceback

    import numpy
    import scipy

    import workloads  # imports intermit
    from layers import Tracer
finally:
    SETUP_SAMPLER.stop()


def _blas_threads() -> int | None:
    """OpenBLAS thread count of the numpy build, when it can be read."""
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def main() -> int:
    print("ready", flush=True)
    setup = {"setup_overhead_s": SETUP_SAMPLER.overhead, "setup_speeds": SETUP_SAMPLER.speeds}
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    if args.probe:
        print(json.dumps(setup), flush=True)
        return 0

    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    gauge = hostspeed.numpy_gauge()
    before = gauge.burst()
    times, outputs, errors, speeds = [], [], [], []
    for job in workload.jobs:
        sampler = hostspeed.Sampler(gauge)
        if not tracer:  # the traced run reports the layers' own times
            sampler.start()
        t0 = perf_counter()
        try:
            out, err = job.run(), None
        except Exception as exc:  # a failed job is counted, the round goes on
            out, err = None, f"{type(exc).__name__}: {exc}"
        finally:
            sampler.stop()
        times.append(perf_counter() - t0 - sampler.overhead)
        after = gauge.burst()
        speeds.append(before + sampler.speeds + after)
        before = after
        outputs.append(out)
        errors.append(err)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layers = None
    if tracer:
        tracer.uninstall()
        layers = tracer.metrics()

    passed = {}
    for i, job in enumerate(workload.jobs):
        if errors[i] is None and job.check is not None:
            try:
                job.check(outputs[i])
            except workloads.CheckError as exc:
                errors[i] = f"check: {exc}"
        if errors[i] is None:
            passed[job.name] = outputs[i]
    cross_error = None
    try:
        workload.cross_check(passed)
    except workloads.CheckError as exc:
        cross_error = str(exc)

    print(json.dumps({
        **setup,
        "jobs": [{"name": j.name, "s": t, "error": e, "speeds": v}
                 for j, t, e, v in zip(workload.jobs, times, errors, speeds)],
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "cross_check_error": cross_error,
        "layers": layers,
        "sample": workload.sample,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "blas_threads": _blas_threads(),
    }), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
