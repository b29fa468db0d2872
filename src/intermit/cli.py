"""Command-line interface.

Subcommands compute figure-ready CSV data: partial-divergence curves,
achievable-rate curves, insertion-channel capacities, genie upper bounds,
capacity per unit cost, and Monte-Carlo decoding runs.  Output is
deterministic for a fixed command line (no timestamps; every file carries a
hash of the resolved configuration), so reruns are byte-identical.

Exit codes: 0 success, 2 invalid arguments, 3 size-guard refusal, 1 anything
else.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .blahut import blahut_capacity
from .bounds import (CostModel, GenieBoundConfig, c1_limit, c1_upper, c2_upper,
                     cpuc_lower, cpuc_upper)
from .errors import ConvergenceError, SizeGuardError
from .insertion import insertion_capacity, insertion_capacity_upper, insertion_counts
from .partialdiv import partial_divergence
from .prob import Dmc, Pmf
from .rates import (exhaustive_decoding_rate, intermittency_overhead,
                    noiseless_binary_rate, pattern_decoding_rate)
from .sim import SimConfig, monte_carlo_error


class UsageError(ValueError):
    """Invalid command-line arguments (exit code 2)."""


@dataclass
class SweepSpec:
    """A resolved parameter sweep: grid values plus the fixed parameters that
    define the run (hashed into every output file)."""

    command: str
    params: dict = field(default_factory=dict)

    @property
    def config_hash(self) -> str:
        blob = json.dumps({"command": self.command, "params": self.params},
                          sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


@dataclass
class BoundReport:
    """Tabular output of one command: column names, rows, and the sweep that
    produced them."""

    columns: tuple
    rows: list
    sweep: SweepSpec

    def write_csv(self, stream) -> None:
        stream.write(f"# config_hash={self.sweep.config_hash}\n")
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_fmt(v) for v in row])


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if v is None:
        return "nan"
    f = float(v)
    if math.isnan(f):
        return "nan"
    if math.isinf(f):
        return "inf" if f > 0 else "-inf"
    return format(f, ".12g")


def _fmt_vec(vec) -> str:
    return "|".join(_fmt(float(v)) for v in np.asarray(vec, dtype=float))


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",")], dtype=float)
    except ValueError as e:
        raise UsageError(f"cannot parse vector {text!r}: {e}") from None


def _parse_grid(text: str) -> list:
    """Parse 'lo:hi:step' (inclusive of hi when it lands on the grid) or a
    single value."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) != 3:
            raise ValueError("expected lo:hi:step")
        lo, hi, step = (float(p) for p in parts)
        if step <= 0 or hi < lo:
            raise ValueError("need step > 0 and hi >= lo")
    except ValueError as e:
        raise UsageError(f"cannot parse grid {text!r}: {e}") from None
    count = int(math.floor((hi - lo) / step + 1e-9))
    return [lo + i * step for i in range(count + 1)]


def _parse_alpha_grid(text: str) -> list:
    alphas = _parse_grid(text)
    if not all(alpha >= 1.0 for alpha in alphas):
        raise UsageError(f"alpha grid {text!r} has a value below 1")
    return alphas


def _parse_channel(spec: str, star: int | None) -> Dmc:
    kind, _, arg = spec.partition(":")
    try:
        if kind == "bsc":
            return Dmc.bsc(float(arg), star=0 if star is None else star)
        if kind == "noiseless":
            return Dmc.identity(int(arg), star=0 if star is None else star)
        if kind == "json":
            with open(arg) as fh:
                obj = json.load(fh)
            if star is not None:
                obj["star"] = star
            return Dmc.from_json(obj)
    except (OSError, KeyError, ValueError) as e:
        raise UsageError(f"cannot build channel from {spec!r}: {e}") from None
    raise UsageError(f"unknown channel spec {spec!r} (use bsc:<p>, noiseless:<n>, json:<path>)")


def _emit(report: BoundReport, out: str | None) -> None:
    if out is None:
        report.write_csv(sys.stdout)
    else:
        path = Path(out)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            report.write_csv(fh)


def _cmd_partial_div(args) -> int:
    p = _parse_vector(args.p)
    q = _parse_vector(args.q)
    if p.size != q.size:
        raise UsageError("--p and --q must have the same length")
    for flag, vec in (("--p", p), ("--q", q)):
        try:
            Pmf(vec)
        except ValueError as e:
            raise UsageError(f"{flag} is not a pmf: {e}") from None
    rhos = _parse_grid(args.rho_grid)
    sweep = SweepSpec("partial-div", {"p": p.tolist(), "q": q.tolist(),
                                      "rho_grid": args.rho_grid})
    rows = []
    for rho in rhos:
        res = partial_divergence(p, q, rho)
        # d/drho = log2(c (1 - rho)/rho); +inf at the boundary rho = P(supp Q)
        if res.tilt is not None and 0.0 < rho < 1.0:
            deriv = math.log2(res.tilt * (1.0 - rho) / rho)
        else:
            deriv = math.nan
        rows.append((rho, res.value, deriv, res.tilt))
    _emit(BoundReport(("rho", "d", "d_deriv", "c_star"), rows, sweep), args.out)
    return 0


def _cmd_rate(args) -> int:
    alphas = _parse_alpha_grid(args.alpha_grid)
    sweep = SweepSpec("rate", {"scheme": args.scheme, "channel": args.channel,
                               "star": args.star, "alpha_grid": args.alpha_grid})
    rows = []
    if args.scheme == "insertion":
        for alpha in alphas:
            res = noiseless_binary_rate(alpha)
            rows.append((alpha, res.rate, res.beta, _fmt(res.p_zero)))
    else:
        w = _parse_channel(args.channel, args.star)
        if w.star is None:
            raise UsageError("scheme needs a designated noise input; pass --star")
        if args.scheme == "r1":
            cap = blahut_capacity(w)
            if not cap.converged:
                raise ConvergenceError(
                    f"Blahut-Arimoto did not converge on the channel {args.channel}")
            for alpha in alphas:
                rate = exhaustive_decoding_rate(w, alpha, capacity=cap.capacity)
                rows.append((alpha, rate, math.nan, _fmt_vec(cap.input_dist.probs)))
        else:
            for alpha in alphas:
                res = pattern_decoding_rate(w, alpha)
                beta = intermittency_overhead(res.input_dist.probs, w, alpha).beta_star
                rows.append((alpha, res.rate, beta, _fmt_vec(res.input_dist.probs)))
    _emit(BoundReport(("alpha", "rate", "beta_star", "p_star"), rows, sweep), args.out)
    return 0


def _cmd_aux_g(args) -> int:
    pairs = []
    if args.grid_b is not None:
        for b in range(1, args.grid_b + 1):
            for a in range(1, b + 1):
                pairs.append((a, b))
    else:
        if args.a is None or args.b is None:
            raise UsageError("need --a and --b (or --grid-b)")
        pairs.append((args.a, args.b))
    sweep = SweepSpec("aux-g", {"pairs": pairs, "allow_large": args.allow_large})
    rows = []
    for a, b in pairs:
        cap = insertion_capacity(a, b, allow_large=args.allow_large)
        if not cap.converged:
            raise ConvergenceError(
                f"Blahut-Arimoto did not converge on the ({a}, {b}) insertion channel")
        ub = insertion_capacity_upper(a, b, allow_large=args.allow_large)
        rows.append((a, b, cap.capacity, ub, cap.loss))
    if args.dump_channel is not None:
        _dump_channel_counts(pairs[-1], args.dump_channel, sweep, args.allow_large)
    _emit(BoundReport(("a", "b", "g_exact", "g_upper_bound", "phi"), rows, sweep), args.out)
    return 0


def _dump_channel_counts(pair, out, sweep, allow_large: bool) -> None:
    a, b = pair
    counts = insertion_counts(a, b, allow_large=allow_large)
    denom = math.comb(b, a)
    rows = []
    for i in range(1 << a):
        lo, hi = counts.indptr[i], counts.indptr[i + 1]
        for j, c in zip(counts.indices[lo:hi], counts.data[lo:hi]):
            rows.append((format(i, f"0{a}b"), format(j, f"0{b}b"), c, denom))
    report = BoundReport(("input", "output", "count", "denominator"), rows, sweep)
    with open(out, "w", newline="") as fh:
        report.write_csv(fh)


def _cmd_upper_bound(args) -> int:
    # A typed --bmax/--s is consent to its size: only the hard limit on b
    # applies.
    if args.which == "c1":
        sweep = SweepSpec("upper-bound-c1", {"s": args.s, "bmax": args.bmax,
                                             "alpha_grid": args.alpha_grid,
                                             "limit": args.limit})
        rows = []
        if args.limit:
            rows.append((args.s, args.bmax, "inf", c1_limit(args.s, args.bmax,
                                                            allow_large=True)))
        else:
            for alpha in _parse_alpha_grid(args.alpha_grid):
                cfg = GenieBoundConfig(s=args.s, b_max=args.bmax, alpha=alpha)
                rows.append((args.s, args.bmax, alpha, c1_upper(cfg, allow_large=True)))
        _emit(BoundReport(("s", "b_max", "alpha", "bound"), rows, sweep), args.out)
    else:
        sweep = SweepSpec("upper-bound-c2", {"s": args.s, "alpha_grid": args.alpha_grid})
        rows = []
        for alpha in _parse_alpha_grid(args.alpha_grid):
            rows.append((args.s, alpha, c2_upper(args.s, alpha, allow_large=True)))
        _emit(BoundReport(("s", "alpha", "bound"), rows, sweep), args.out)
    return 0


def _cmd_cpuc(args) -> int:
    w = _parse_channel(args.channel, args.star)
    if w.star is None:
        raise UsageError("capacity per unit cost needs a noise input; pass --star")
    gamma = _parse_vector(args.gamma)
    try:
        cost = CostModel(gamma, star=w.star)
        upper = cpuc_upper(w, cost)
    except ValueError as e:
        raise UsageError(str(e)) from None
    if upper.degenerate_symbols:
        print(f"warning: zero-cost informative symbols {upper.degenerate_symbols} "
              "make the bound infinite", file=sys.stderr)
    sweep = SweepSpec("cpuc", {"channel": args.channel, "star": args.star,
                               "gamma": gamma.tolist(), "alpha_grid": args.alpha_grid})
    rows = []
    for alpha in _parse_alpha_grid(args.alpha_grid):
        rows.append((alpha, cpuc_lower(w, cost, alpha).value, upper.value))
    _emit(BoundReport(("alpha", "lower", "upper"), rows, sweep), args.out)
    return 0


def _cmd_simulate(args) -> int:
    w = _parse_channel(args.channel, args.star)
    if w.star is None:
        raise UsageError("simulation needs a designated noise input; pass --star")
    try:
        cfg = SimConfig(k=args.k, alpha=args.alpha, trials=args.trials,
                        seed=args.seed, mu=args.mu, epsilon=args.epsilon)
    except ValueError as e:
        raise UsageError(str(e)) from None
    sweep = SweepSpec("simulate", {
        "scheme": args.scheme, "channel": args.channel, "star": args.star,
        "k": args.k, "alpha": args.alpha, "trials": args.trials,
        "seed": args.seed, "mu": args.mu, "epsilon": args.epsilon,
        "messages": args.messages, "leading_trailing": args.leading_trailing,
    })
    if args.scheme != "zero_rate" and args.mu < 1.0 / (2 * args.k):
        print(f"warning: mu={args.mu:g} is below 1/(2k)={1.0 / (2 * args.k):g}; empirical "
              "frequencies move in steps of 1/k, so mu rather than the channel may "
              "decide the error rate", file=sys.stderr)
    result = monte_carlo_error(args.scheme, cfg, w, n_messages=args.messages,
                               leading_and_trailing=args.leading_trailing)
    tripped = sum(o.choices_examined == 0 for o in result.outcomes)
    if tripped:
        print(f"warning: {tripped} of {result.trials} trials exceeded the enumeration guard "
              "and count as errors", file=sys.stderr)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = [
        (t, o.n_received, -1 if o.decoded is None else o.decoded,
         int(o.decoded == t % (2 if args.scheme == "zero_rate" else args.messages)),
         o.choices_examined)
        for t, o in enumerate(result.outcomes)
    ]
    report = BoundReport(("trial", "n_received", "decoded", "correct",
                          "choices_examined"), rows, sweep)
    with open(outdir / "trials.csv", "w", newline="") as fh:
        report.write_csv(fh)
    summary = {
        "config_hash": sweep.config_hash,
        "params": sweep.params,
        "error_rate": result.error_rate,
        "ci_low": result.ci_low,
        "ci_high": result.ci_high,
        "errors": result.errors,
        "trials": result.trials,
        "mean_n": result.mean_n,
        "version": __version__,
    }
    with open(outdir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def _cmd_figures(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    fast = args.fast
    files = {}

    def emit(name: str, columns, rows, params) -> None:
        sweep = SweepSpec(f"figures:{name}", params)
        with open(outdir / name, "w", newline="") as fh:
            BoundReport(tuple(columns), rows, sweep).write_csv(fh)
        files[name] = {"rows": len(rows), "config_hash": sweep.config_hash}

    # Partial-divergence curves: one reference input law against two output laws.
    p = [0.25, 0.25, 0.25, 0.25]
    q1 = [0.1, 0.1, 0.1, 0.7]
    q2 = [0.1, 0.4, 0.1, 0.4]
    step = 0.1 if fast else 0.01
    rows = []
    for rho in _parse_grid(f"0:1:{step}"):
        rows.append((rho,
                     partial_divergence(p, q1, rho).value,
                     partial_divergence(p, q2, rho).value))
    emit("partial_divergence.csv", ("rho", "d_q1", "d_q2"),
         rows, {"p": p, "q1": q1, "q2": q2, "step": step})

    # Achievable rates over BSCs, plus the noiseless-binary curve.
    ps = [0.1] if fast else [0.0, 0.05, 0.1]
    astep = 0.5 if fast else 0.1
    alphas = _parse_grid(f"1:2:{astep}")
    rows = []
    for pc in ps:
        w = Dmc.bsc(pc, star=0)
        cap = blahut_capacity(w).capacity
        for alpha in alphas:
            rows.append((pc, alpha,
                         exhaustive_decoding_rate(w, alpha, capacity=cap),
                         pattern_decoding_rate(w, alpha).rate))
    emit("rates_bsc.csv", ("p", "alpha", "r1", "r2"),
         rows, {"ps": ps, "alphas": alphas})
    rows = [(alpha, noiseless_binary_rate(alpha).rate) for alpha in alphas]
    emit("rate_insertion.csv", ("alpha", "rate"), rows, {"alphas": alphas})

    # Genie upper bounds.
    s_list = [2, 3] if fast else [2, 3, 4, 5]
    bmax = 6 if fast else 10
    galphas = _parse_grid("1:2:0.5" if fast else "1:4:0.25")
    rows = []
    for s in s_list:
        for alpha in galphas:
            cfg = GenieBoundConfig(s=s, b_max=bmax, alpha=alpha)
            rows.append((s, bmax, alpha, c1_upper(cfg)))
    emit("genie_c1.csv", ("s", "b_max", "alpha", "bound"),
         rows, {"s_list": s_list, "bmax": bmax, "alphas": galphas})
    s2_list = [2, 3] if fast else [2, 4, 6, 8, 10]
    rows = []
    for s in s2_list:
        for alpha in galphas:
            rows.append((s, alpha, c2_upper(s, alpha)))
    emit("genie_c2.csv", ("s", "alpha", "bound"),
         rows, {"s_list": s2_list, "alphas": galphas})

    # Capacity per unit cost for BSC(0.1) with unit-cost signalling.
    w = Dmc.bsc(0.1, star=0)
    cost = CostModel(np.array([0.0, 1.0]), star=0)
    upper = cpuc_upper(w, cost).value
    calphas = _parse_grid("1:2:0.5" if fast else "1:5:0.25")
    rows = [(alpha, cpuc_lower(w, cost, alpha).value, upper) for alpha in calphas]
    emit("cpuc_bsc.csv", ("alpha", "lower", "upper"), rows, {"alphas": calphas})

    manifest = {"version": __version__, "fast": fast, "files": files}
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intermit",
        description="Capacity bounds, rates, and simulations for intermittent channels",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("partial-div", help="partial-divergence curve d_rho(P||Q)")
    sp.add_argument("--p", required=True, help="comma-separated pmf")
    sp.add_argument("--q", required=True, help="comma-separated pmf")
    sp.add_argument("--rho-grid", default="0:1:0.01", help="lo:hi:step")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_partial_div)

    sp = sub.add_parser("rate", help="achievable-rate curve over alpha")
    sp.add_argument("--scheme", required=True, choices=["r1", "r2", "insertion"])
    sp.add_argument("--channel", default="bsc:0.1",
                    help="bsc:<p> | noiseless:<n> | json:<path>")
    sp.add_argument("--star", type=int, default=None, help="noise input index")
    sp.add_argument("--alpha-grid", default="1:2:0.1", help="lo:hi:step")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_rate)

    sp = sub.add_parser("aux-g", help="insertion-channel capacity g and bounds")
    sp.add_argument("--a", type=int)
    sp.add_argument("--b", type=int)
    sp.add_argument("--grid-b", type=int, help="emit all 1 <= a <= b <= GRID_B")
    sp.add_argument("--allow-large", action="store_true",
                    help="permit b beyond the desk guard (up to the hard cap)")
    sp.add_argument("--dump-channel", help="also write exact channel counts CSV here")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_aux_g)

    sp = sub.add_parser("upper-bound", help="genie-aided converse bounds")
    sp.add_argument("which", choices=["c1", "c2"])
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--bmax", type=int, default=10)
    sp.add_argument("--alpha-grid", default="1:2:0.1", help="lo:hi:step")
    sp.add_argument("--limit", action="store_true",
                    help="c1 only: emit the alpha -> infinity limit")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_upper_bound)

    sp = sub.add_parser("cpuc", help="capacity per unit cost bounds")
    sp.add_argument("--channel", default="bsc:0.1")
    sp.add_argument("--star", type=int, default=None)
    sp.add_argument("--gamma", required=True, help="comma-separated symbol costs")
    sp.add_argument("--alpha-grid", default="1:5:0.25", help="lo:hi:step")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_cpuc)

    sp = sub.add_parser("simulate", help="Monte-Carlo decoding error estimation")
    sp.add_argument("--scheme", required=True,
                    choices=["zero_rate", "exhaustive", "pattern"])
    sp.add_argument("--channel", default="bsc:0.1")
    sp.add_argument("--star", type=int, default=None)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--mu", type=float, default=0.05)
    sp.add_argument("--epsilon", type=float, default=0.2)
    sp.add_argument("--messages", type=int, default=2)
    sp.add_argument("--leading-trailing", action="store_true",
                    help="also draw a trailing noise run after the last symbol")
    sp.add_argument("--out", required=True, help="output directory")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("figures", help="write all figure-data CSVs")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--fast", action="store_true", help="small grids (for smoke tests)")
    sp.set_defaults(func=_cmd_figures)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SizeGuardError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"failed: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
