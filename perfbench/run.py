"""Benchmark of intermit: runs one workload for a set time and prints its
metrics, checked outputs and job counts.

    python3 perfbench/run.py --workload rate-curves --seed 1 --seconds 30 --trace 0

Workloads, metrics and bounds are listed in BENCHMARK.json at the root of
the repository and explained in perfbench/README.md.  Each round of a
workload runs in a fresh interpreter (worker.py) and executes the whole job
list once; another round starts while it would end within --seconds, and at
least one runs.  With --trace 0 the end-to-end metrics are printed, with
--trace 1 the per-layer metrics of a run whose layer entry points are
wrapped.  End-to-end times are scaled by the host's speed, which each
worker samples while it works (hostspeed.py), to seconds of a reference
host.  The last line of standard output is one JSON object; a fuller
record goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4  # each round adds one more set-up sample
TAIL_MIN_JOBS = 40  # a tail needs at least ten jobs beyond it
TAIL_BEYOND = 10
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed job)."""


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn_worker(args: list, deadline: float):
    """Start worker.py; return (seconds from start until its imports were
    done, its result record)."""
    start = perf_counter()
    # unbuffered, so that reading the "ready" line reads nothing after it
    # and communicate() gets the rest
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                            env=_worker_env(), stdout=subprocess.PIPE, bufsize=0)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(deadline - monotonic(), 0.0))
        line = proc.stdout.readline() if ready else b""
        setup = perf_counter() - start
        if line.strip() != b"ready":
            raise BenchError("worker did not start (is intermit importable from src/?)")
        out, _ = proc.communicate(timeout=max(deadline - monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the run's time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError("worker printed no record")
    return setup, json.loads(lines[-1])


def job_tail(times: list) -> float:
    """The highest percentile with ten jobs beyond it.  Fewer than forty
    jobs have no such tail, and the median stands in for it."""
    if len(times) < TAIL_MIN_JOBS:
        return statistics.median(times)
    return sorted(times)[-1 - TAIL_BEYOND]


def scaled(seconds: float, speeds: list) -> float:
    """`seconds` in reference-host seconds, given the host's speeds sampled
    around and during them (hostspeed.py)."""
    return seconds * statistics.fmean(speeds)


def setup_time(seconds: float, record: dict) -> float:
    """A worker's set-up time without its sampling, in reference-host seconds."""
    return scaled(seconds - record["setup_overhead_s"], record["setup_speeds"])


def end_to_end(starts: list, rounds: list) -> dict:
    """Every round repeats the same jobs on the same inputs, so a job's
    times differ between rounds only by the host's speed, which on a shared
    host switches by half within a second and drifts for minutes.  Each time
    is therefore scaled by the speed measured around and during it in the
    same worker, and a job counts with its median round.  Set-up time is
    scaled by the samples taken during the imports, and counts with its
    median over the run's interpreter starts."""
    jobs = [statistics.median(scaled(r["jobs"][i]["s"], r["jobs"][i]["speeds"])
                              for r in rounds)
            for i in range(len(rounds[0]["jobs"]))]
    return {
        "setup_s": statistics.median(setup_time(s, r) for s, r in starts),
        "wall_s": sum(jobs),
        "job_p50_s": statistics.median(jobs),
        "job_tail_s": job_tail(jobs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def unscaled(starts: list, rounds: list) -> dict:
    """The same figures in plain seconds, kept in the run record."""
    setups = [s for s, _ in starts]
    jobs = [statistics.median(r["jobs"][i]["s"] for r in rounds)
            for i in range(len(rounds[0]["jobs"]))]
    return {"setup_s": statistics.median(setups), "wall_s": sum(jobs),
            "job_p50_s": statistics.median(jobs), "job_tail_s": job_tail(jobs)}


def per_layer(rounds: list) -> dict:
    return {name: statistics.median(r["layers"][name] for r in rounds)
            for name in rounds[0]["layers"]}


def git_hash() -> str:
    """HEAD of the repository this benchmark sits at the root of, if any."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]] + ["selftest"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    deadline = monotonic() + RUN_LIMIT_S
    worker_args = ["--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace)]
    starts = [] if args.trace else [spawn_worker(["--probe", *worker_args], deadline)
                                    for _ in range(SETUP_PROBES)]
    rounds = []
    started = monotonic()
    while True:
        round_start = monotonic()
        setup, record = spawn_worker(worker_args, deadline)
        starts.append((setup, record))
        rounds.append(record)
        last = monotonic() - round_start
        if monotonic() - started + last > args.seconds or monotonic() + last > deadline:
            break

    raw = None
    if args.trace:
        values, specs = per_layer(rounds), bench["per_layer"]
    else:
        values, specs = end_to_end(starts, rounds), bench["end_to_end"]
        raw = unscaled(starts, rounds)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    jobs = [j for r in rounds for j in r["jobs"]]
    failures = [f"{j['name']}: {j['error']}" for j in jobs if j["error"]]
    cross = [r["cross_check_error"] for r in rounds if r["cross_check_error"]]
    result = {"correct": not cross, "attempted": len(jobs), "failed": len(failures),
              "metrics": metrics}
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git": git_hash(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "blas_threads": rounds[0]["blas_threads"],
            **rounds[0]["versions"], "rounds": len(rounds),
            "jobs_per_round": len(rounds[0]["jobs"]), "inputs": rounds[0]["sample"]}

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    record = {"meta": meta, "result": result, "unscaled": raw, "failures": failures,
              "cross_check": cross, "setup_s": [s for s, _ in starts],
              "setup_speeds": [r["setup_speeds"] for _, r in starts],
              "rounds": rounds}
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print("meta " + json.dumps(meta))
    for line in failures + cross:
        print("FAILED " + line)
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # a terminated run still kills and reaps its worker on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
