"""The benchmark's workloads: for each, a fixed list of jobs built from the
workload seed, a check of each job's output, and checks across jobs.

A job is one user-visible computation (a rate point, a CLI command, a batch
of decoded blocks).  Jobs call intermit through module attributes looked up
at call time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import intermit
from intermit import blahut, cli, rates, sim
from intermit.prob import Dmc

import reference as ref


class CheckError(Exception):
    """An output contradicts the independent computation or a property the
    method must have."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None] | None = None


@dataclass
class Workload:
    jobs: list
    # takes {job name: output} of the jobs that passed and raises CheckError
    cross_check: Callable[[dict], None] = lambda outputs: None
    sample: dict = field(default_factory=dict)


# ----------------------------------------------------------------- rate-curves

BSC_P = 0.05
BSC_ALPHAS = (1.06, 1.16)
ZERO_ALPHA = 1.15
ALPHA_JITTER = 0.02  # below half the grid step, so the grid stays ordered
TOL = 1e-9


def _rate_point_check(capacity: float, alpha: float, w: Dmc):
    def check(res) -> None:
        r1 = ref.r1(capacity, alpha)
        got_r1 = rates.exhaustive_decoding_rate(w, alpha)
        require(abs(got_r1 - r1) <= 1e-8, f"R1={got_r1} but (C - a h(1/a))^+ = {r1}")
        require(r1 - TOL <= res.rate <= capacity + TOL,
                f"R2={res.rate} outside [R1={r1}, C={capacity}] at alpha={alpha}")
    return check


def _noiseless_check(alpha: float):
    def check(res) -> None:
        require(ref.r1(1.0, alpha) - TOL <= res.rate <= 1.0 + TOL,
                f"noiseless rate {res.rate} outside [R1, 1] at alpha={alpha}")
    return check


def rate_curves(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 1])

    def jitter(alphas):
        return [round(a + rng.uniform(-ALPHA_JITTER, ALPHA_JITTER), 6) for a in alphas]

    bsc_alphas, (zero_alpha,) = jitter(BSC_ALPHAS), jitter([ZERO_ALPHA])
    bsc, noiseless = Dmc.bsc(BSC_P), Dmc.bsc(0.0)
    c_bsc = 1.0 - ref.h2(BSC_P)

    jobs = []
    for a in bsc_alphas:
        jobs.append(Job(f"r2-bsc{BSC_P}-a{a}", lambda a=a: rates.pattern_decoding_rate(bsc, a),
                        _rate_point_check(c_bsc, a, bsc)))
    jobs.append(Job("r2-bsc0", lambda: rates.pattern_decoding_rate(noiseless, zero_alpha),
                    _rate_point_check(1.0, zero_alpha, noiseless)))
    jobs.append(Job("noiseless", lambda: rates.noiseless_binary_rate(zero_alpha),
                    _noiseless_check(zero_alpha)))

    def cross_check(out: dict) -> None:
        for p in (BSC_P, 0.0):
            cap = blahut.blahut_capacity(Dmc.bsc(p)).capacity
            require(abs(cap - (1.0 - ref.h2(p))) <= 1e-8,
                    f"Blahut capacity of BSC({p}) is {cap}, not 1 - h(p)")
        curve = [out[f"r2-bsc{BSC_P}-a{a}"].rate for a in bsc_alphas
                 if f"r2-bsc{BSC_P}-a{a}" in out]
        require(all(b <= a + TOL for a, b in zip(curve, curve[1:])),
                f"R2 on BSC({BSC_P}) increases with alpha: {curve}")
        if "r2-bsc0" in out and "noiseless" in out:
            r2, nl = out["r2-bsc0"].rate, out["noiseless"].rate
            require(abs(r2 - nl) <= TOL,
                    f"R2 on BSC(0) {r2} != noiseless_binary_rate {nl} at alpha={zero_alpha}")

    return Workload(jobs, cross_check, {"bsc_alphas": bsc_alphas, "zero_alpha": zero_alpha})


# ---------------------------------------------------------------- genie-bounds

C1_LIMIT_REF = 0.6739  # the paper's long-window limit at s=9, b_max=17
# each sweep adds one to two seconds of new (a, b) losses to those cached by
# the sweeps before it
SWEEPS = (("c1", 7, 14), ("c2", 12, None), ("c1", 6, 16))


def _cli(argv):
    """Run one CLI command in-process; returns its CSV rows (header dropped)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"intermit {' '.join(argv)} exited {code}")
    lines = buf.getvalue().splitlines()
    if not lines or not lines[0].startswith("# config_hash="):
        raise RuntimeError("CLI output lacks its config_hash line")
    return list(csv.DictReader(lines[1:]))


def _bound_check(which: str, s: int, b_max: int | None):
    def check(rows) -> None:
        alphas = [float(r["alpha"]) for r in rows]
        bounds = [float(r["bound"]) for r in rows]
        require(alphas and alphas[0] == 1.0, "sweep does not start at alpha = 1")
        require(abs(bounds[0] - 1.0) <= TOL, f"{which} at alpha=1 is {bounds[0]}, not 1")
        for a, b in zip(alphas, bounds):
            require(0.0 <= b <= 1.0 + TOL, f"{which} bound {b} outside [0, 1] at alpha={a}")
            require(b >= ref.r1(1.0, a) - TOL, f"{which} bound {b} below noiseless R1 at alpha={a}")
        if which == "c1":
            require(all(y <= x + TOL for x, y in zip(bounds, bounds[1:])),
                    f"c1 increases with alpha: {bounds}")
            limit = intermit.bounds.c1_limit(s, b_max, allow_large=True)
            require(min(bounds) >= limit - TOL, f"c1 falls below its limit {limit}")
    return check


def _limit_check(rows) -> None:
    value = float(rows[0]["bound"])
    require(abs(value - C1_LIMIT_REF) <= 5e-4, f"c1 limit {value} is not {C1_LIMIT_REF} +- 5e-4")


def genie_bounds(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    # the losses are computed once per (a, b) whatever the grid, so the grid
    # step changes the bound values checked, not the work
    step = round(float(rng.uniform(0.1, 0.25)), 4)
    grid = f"1:3:{step}"
    jobs = [Job("c1-s9-b17-limit",
                lambda: _cli(["upper-bound", "c1", "--s", "9", "--bmax", "17", "--limit"]),
                _limit_check)]
    for which, s, b_max in SWEEPS:
        argv = ["upper-bound", which, "--s", str(s), "--alpha-grid", grid]
        if b_max is not None:
            argv += ["--bmax", str(b_max)]
        name = f"{which}-s{s}" + (f"-b{b_max}" if b_max else "")
        jobs.append(Job(name, lambda argv=argv: _cli(argv), _bound_check(which, s, b_max)))
    return Workload(jobs, sample={"alpha_grid": grid})


# -------------------------------------------------------------------- simulate

K, ALPHA = 9, 1.25
MU = 0.09  # >= 1/(2k); no empirical frequency of a k=9 block lands on it exactly
DECODE_JOBS = 32
REFERENCE_MAX_N = 12  # blocks this short are also decoded by the reference
ZERO_RATE = dict(k=(200, 300, 400, 500) * 2, trials=800, alpha=1.25, p=0.1)
# one block at each decile midpoint of the received-length law, so every
# seed decodes the same C(n, k) pattern counts
LENGTHS = [ref.length_quantile((i + 0.5) / 10, K, ALPHA) for i in range(10)]
CHANNELS = (Dmc.bsc(0.05), Dmc.identity(2))  # alternating over the blocks
UNIFORM = np.array([0.5, 0.5])


def _blocks(rng):
    """Blocks of the fixed lengths, on alternating channels, with codebooks,
    messages, instants and channel noise drawn from `rng`.  Given N = n the
    instant pattern is uniform over those ending on the last output symbol."""
    out = []
    for i, n in enumerate(LENGTHS):
        w = CHANNELS[i % 2]
        cb = rng.integers(0, w.input_size, size=(2, K))
        msg = (i // 2) % 2
        pos = np.append(np.sort(rng.choice(n - 1, size=K - 1, replace=False)), n - 1)
        x = np.full(n, w.star, dtype=np.int64)
        x[pos] = cb[msg]
        cum = np.cumsum(w.rows, axis=1)[x]
        y = np.minimum((rng.random(n)[:, None] > cum).sum(axis=1), w.output_size - 1)
        out.append((w, y, cb, msg))
    return out


def _decode_job(blocks):
    """Both decoders on every block; every job has the same make-up."""
    return [(sim.decode_exhaustive(y, K, cb, w, MU), sim.decode_pattern(y, K, cb, w, MU, UNIFORM))
            for w, y, cb, _ in blocks]


def _decode_check(blocks):
    def check(results) -> None:
        for (w, y, cb, msg), pair in zip(blocks, results):
            n = y.size
            for scheme, res in zip(("exhaustive", "pattern"), pair):
                if res.message is not None:
                    require(res.choices_examined == math.comb(n, K),
                            f"{scheme} declared after {res.choices_examined} of C({n},{K}) patterns")
                if n <= REFERENCE_MAX_N:
                    want = ref.decode(y, K, cb, w.rows.tolist(), w.star, MU,
                                      UNIFORM.tolist() if scheme == "pattern" else None)
                    require(res.message == want, f"{scheme} decoded {res.message}, reference {want}")
            if w.output_size == w.input_size and np.array_equal(w.rows, np.eye(w.input_size)):
                require(pair[0].message in (None, msg),
                        "exhaustive decoder declared a wrong message on the noiseless channel")
    return check


def _zero_rate_check(k: int):
    def check(res) -> None:
        p = 1.0 / ZERO_RATE["alpha"]
        se = math.sqrt(k * (1.0 - p) / p ** 2 / res.trials)
        require(abs(res.mean_n - k / p) <= 4.0 * se,
                f"mean received length {res.mean_n} is not within 4 SE of {k / p}")
        require(len(res.outcomes) == res.trials, "outcome count differs from trials")
        wrong = sum(o.decoded != t % 2 for t, o in enumerate(res.outcomes))
        require(wrong == res.errors, f"{res.errors} errors reported, {wrong} in outcomes")
    return check


def simulate(seed: int) -> Workload:
    jobs = []
    for j in range(DECODE_JOBS):
        blocks = _blocks(np.random.default_rng([seed, 3, j]))
        jobs.append(Job(f"decode-{j}", lambda b=blocks: _decode_job(b), _decode_check(blocks)))
    w01 = Dmc.bsc(ZERO_RATE["p"])
    for j, k in enumerate(ZERO_RATE["k"]):
        cfg = sim.SimConfig(k=k, alpha=ZERO_RATE["alpha"], trials=ZERO_RATE["trials"],
                            seed=int(np.random.default_rng([seed, 4, j]).integers(2**31)),
                            mu=0.1)
        jobs.append(Job(f"zero_rate-k{k}-{j}",
                        lambda cfg=cfg: sim.monte_carlo_error("zero_rate", cfg, w01),
                        _zero_rate_check(k)))
    return Workload(jobs, sample={"lengths": LENGTHS, "mu": MU})


# -------------------------------------------------------------------- selftest

def selftest(seed: int) -> Workload:
    """Two cheap jobs and one the program refuses, for selftest.py."""
    w = Dmc.bsc(0.1)

    def check(res) -> None:
        require(abs(res.capacity - (1.0 - ref.h2(0.1))) <= 1e-8, "BSC capacity")

    return Workload([
        Job("capacity", lambda: blahut.blahut_capacity(w), check),
        Job("refused", lambda: intermit.insertion.insertion_capacity(3, 40)),
        Job("noiseless-a1.5", lambda: rates.noiseless_binary_rate(1.5, outer_coarse=9),
            _noiseless_check(1.5)),
    ])


WORKLOADS = {
    "rate-curves": rate_curves,
    "genie-bounds": genie_bounds,
    "simulate": simulate,
    "selftest": selftest,
}
