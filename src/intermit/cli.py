"""Command-line interface.

Subcommands compute figure-ready CSV data: partial-divergence curves,
achievable-rate curves, insertion-channel capacities, genie upper bounds,
capacity per unit cost, and Monte-Carlo decoding runs.  Output is
deterministic for a fixed command line (no timestamps; every file carries a
hash of the resolved configuration), so reruns are byte-identical under the
same numpy/OpenBLAS build and BLAS thread count.  Another thread count can
move the last printed digits of a converse bound; each value printed is
still a certified bound.  Of Blahut-Arimoto's BLAS products only the Newton
step's Hessian (`neg_hess += scaled @ block.T` in `blahut._newton_step`)
rounds by the thread split: on a 38 x 365 weight class, rW, W log(rW) and
r.d gave the same bytes under one and two OpenBLAS threads.  A fixed-order
Hessian outside BLAS would cost k^2 n multiply-adds per Newton step, too
slow at the k = 2048 inputs a Newton step may hold.

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
from pathlib import Path

import numpy as np

from . import __version__
from .blahut import blahut_capacity
# c1_limit is not called here; it stays importable as intermit.cli.c1_limit,
# where perfbench/layers.py wraps it.
from .bounds import (CostModel, c1_limit, c1_upper, c2_upper, cpuc_lower,  # noqa: F401
                     cpuc_upper)
from .errors import SizeGuardError
from .insertion import insertion_capacity, insertion_capacity_upper, insertion_counts
from .partialdiv import partial_divergence
from .prob import Dmc, Pmf
from .rates import (exhaustive_decoding_rate, intermittency_overhead,
                    noiseless_binary_rate, pattern_decoding_rate)
from .sim import SimConfig, monte_carlo_error


class UsageError(ValueError):
    """Invalid command-line arguments (exit code 2)."""


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
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
    """Parse 'lo:hi:step' (finite parts, inclusive of hi when it lands on the
    grid) or a single value, which may be inf."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) != 3:
            raise ValueError("expected lo:hi:step")
        lo, hi, step = (float(p) for p in parts)
        if not all(math.isfinite(v) for v in (lo, hi, step)):
            raise ValueError("need finite lo, hi and step")
        if step <= 0 or hi < lo:
            raise ValueError("need step > 0 and hi >= lo")
    except ValueError as e:
        raise UsageError(f"cannot parse grid {text!r}: {e}") from None
    count = int(math.floor((hi - lo) / step + 1e-9))
    return [lo + i * step for i in range(count + 1)]


def _at_least(flag: str, value: int, low: int, low_name: str | None = None) -> None:
    if value < low:
        bound = f"{low_name} = {low}" if low_name else str(low)
        raise UsageError(f"{flag} must be >= {bound}, got {value}")


def _refuse(flags, applies: str, given_to: str) -> None:
    """Refuse the first given flag of `flags`, (flag, given) pairs: it
    applies to `applies` only."""
    for flag, given in flags:
        if given:
            raise UsageError(f"{flag} applies to {applies} only, not to {given_to}")


def _parse_alpha_grid(text: str, *, allow_inf: bool = False) -> list:
    """The alphas of --alpha-grid, each >= 1; inf only where `allow_inf`
    (the genie bounds, whose alpha -> infinity limit is defined)."""
    alphas = _parse_grid(text)
    bad = [alpha for alpha in alphas if not alpha >= 1.0]  # NaN included
    if bad:
        need = "a number >= 1, inf included" if allow_inf else "finite and >= 1"
        raise UsageError(f"alpha grid {text!r} has {_fmt(bad[0])}; alpha must be {need}")
    if not allow_inf and math.inf in alphas:
        raise UsageError(f"alpha grid {text!r} has inf, which only upper-bound accepts")
    return alphas


def _parse_channel(spec: str, star: int | None) -> Dmc:
    """The channel of --channel, with --star as its noise input; every
    command that takes a channel needs one."""
    kind, _, arg = spec.partition(":")
    if kind not in ("bsc", "noiseless", "json"):
        raise UsageError(f"unknown channel spec {spec!r} (use bsc:<p>, noiseless:<n>, json:<path>)")
    try:
        if kind == "bsc":
            w = Dmc.bsc(float(arg), star=0 if star is None else star)
        elif kind == "noiseless":
            w = Dmc.identity(int(arg), star=0 if star is None else star)
        else:
            with open(arg) as fh:
                obj = json.load(fh)
            if star is not None:
                obj["star"] = star
            w = Dmc.from_json(obj)
    except (OSError, KeyError, ValueError) as e:
        raise UsageError(f"cannot build channel from {spec!r}: {e}") from None
    if w.star is None:
        raise UsageError(f"channel {spec!r} has no noise input; pass --star")
    return w


def _write_csv(out, command: str, params: dict, columns, rows) -> str:
    """Write one table to `out` (stdout when None; a file's directories are
    created), headed by the hash of `command` and `params`, and return that
    hash."""
    blob = json.dumps({"command": command, "params": params},
                      sort_keys=True, separators=(",", ":"))
    config_hash = hashlib.sha256(blob.encode()).hexdigest()[:12]

    def write(stream) -> None:
        stream.write(f"# config_hash={config_hash}\n")
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(v) for v in row] for row in rows)

    if out is None:
        write(sys.stdout)
    else:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", newline="") as fh:
            write(fh)
    return config_hash


def _write_json(out: Path, obj: dict) -> None:
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    if not all(0.0 <= rho <= 1.0 for rho in rhos):  # NaN fails it
        raise UsageError(f"rho grid {args.rho_grid!r} has a value outside [0, 1]")
    rows = []
    for rho in rhos:
        res = partial_divergence(p, q, rho)
        # d/drho = log2(c (1 - rho)/rho); +inf at the boundary rho = P(supp Q)
        if res.tilt is not None and 0.0 < rho < 1.0:
            deriv = math.log2(res.tilt * (1.0 - rho) / rho)
        else:
            deriv = math.nan
        rows.append((rho, res.value, deriv, res.tilt))
    _write_csv(args.out, "partial-div",
               {"p": p.tolist(), "q": q.tolist(), "rho_grid": args.rho_grid},
               ("rho", "d", "d_deriv", "c_star"), rows)
    return 0


def _cmd_rate(args) -> int:
    alphas = _parse_alpha_grid(args.alpha_grid)
    channel = "bsc:0.1" if args.channel is None else args.channel
    rows = []
    if args.scheme == "insertion":
        _refuse((("--channel", args.channel is not None), ("--star", args.star is not None)),
                "r1 and r2", "insertion")
        for alpha in alphas:
            res = noiseless_binary_rate(alpha)
            rows.append((alpha, res.rate, res.beta, _fmt(res.p_zero)))
    else:
        w = _parse_channel(channel, args.star)
        if args.scheme == "r1":
            cap = blahut_capacity(w)
            for alpha in alphas:
                rate = exhaustive_decoding_rate(w, alpha, capacity=cap.capacity)
                rows.append((alpha, rate, math.nan, _fmt_vec(cap.input_dist.probs)))
        else:
            for alpha in alphas:
                res = pattern_decoding_rate(w, alpha)
                beta = intermittency_overhead(res.input_dist.probs, w, alpha).beta_star
                rows.append((alpha, res.rate, beta, _fmt_vec(res.input_dist.probs)))
    _write_csv(args.out, "rate", {"scheme": args.scheme, "channel": channel,
                                  "star": args.star, "alpha_grid": args.alpha_grid},
               ("alpha", "rate", "beta_star", "p_star"), rows)
    return 0


def _cmd_aux_g(args) -> int:
    pairs = []
    if args.grid_b is not None:
        given = [flag for flag, v in (("--a", args.a), ("--b", args.b)) if v is not None]
        if given:
            raise UsageError(f"{' and '.join(given)} cannot be combined with --grid-b")
        _at_least("--grid-b", args.grid_b, 1)
        for b in range(1, args.grid_b + 1):
            for a in range(1, b + 1):
                pairs.append((a, b))
    else:
        if args.a is None or args.b is None:
            raise UsageError("need --a and --b (or --grid-b)")
        _at_least("--a", args.a, 1)
        _at_least("--b", args.b, args.a, "--a")
        pairs.append((args.a, args.b))
    params = {"pairs": pairs, "allow_large": args.allow_large}
    rows = []
    for a, b in pairs:
        cap = insertion_capacity(a, b, allow_large=args.allow_large)
        ub = insertion_capacity_upper(a, b, allow_large=args.allow_large)
        rows.append((a, b, cap.capacity, ub, cap.loss))
    if args.dump_channel is not None:
        # the exact counts of the last pair, over the common denominator C(b, a)
        a, b = pairs[-1]
        counts = insertion_counts(a, b, allow_large=args.allow_large)
        dump = []
        for i in range(1 << a):
            lo, hi = counts.indptr[i], counts.indptr[i + 1]
            for j, c in zip(counts.indices[lo:hi], counts.data[lo:hi]):
                dump.append((format(i, f"0{a}b"), format(j, f"0{b}b"), c, math.comb(b, a)))
        _write_csv(args.dump_channel, "aux-g", params,
                   ("input", "output", "count", "denominator"), dump)
    _write_csv(args.out, "aux-g", params, ("a", "b", "g_exact", "g_upper_bound", "phi"), rows)
    return 0


def _cmd_upper_bound(args) -> int:
    # A typed --bmax/--s is consent to its size: only the hard limit on b
    # applies.
    _at_least("--s", args.s, 1)
    grid = "1:2:0.1" if args.alpha_grid is None else args.alpha_grid
    if args.which == "c1":
        if args.limit:
            if args.alpha_grid is not None:
                raise UsageError("--alpha-grid cannot be combined with --limit, which emits "
                                 "alpha = inf only")
            grid = "inf"  # the same table, under the same hash, as --alpha-grid inf
        bmax = 10 if args.bmax is None else args.bmax
        _at_least("--bmax", bmax, args.s, "--s")
        rows = [(args.s, bmax, alpha, c1_upper(args.s, bmax, alpha, allow_large=True))
                for alpha in _parse_alpha_grid(grid, allow_inf=True)]
        # "limit" stays in the hashed parameters, always false, so that the
        # hashes of the alpha sweeps do not change
        _write_csv(args.out, "upper-bound-c1",
                   {"s": args.s, "bmax": bmax, "alpha_grid": grid, "limit": False},
                   ("s", "b_max", "alpha", "bound"), rows)
    else:
        _refuse((("--limit", args.limit), ("--bmax", args.bmax is not None)), "c1", "c2")
        rows = [(args.s, alpha, c2_upper(args.s, alpha, allow_large=True))
                for alpha in _parse_alpha_grid(grid, allow_inf=True)]
        _write_csv(args.out, "upper-bound-c2", {"s": args.s, "alpha_grid": grid},
                   ("s", "alpha", "bound"), rows)
    return 0


def _cmd_cpuc(args) -> int:
    alphas = _parse_alpha_grid(args.alpha_grid)
    w = _parse_channel(args.channel, args.star)
    gamma = _parse_vector(args.gamma)
    try:
        cost = CostModel(gamma, star=w.star)
        upper = cpuc_upper(w, cost)
    except ValueError as e:
        raise UsageError(str(e)) from None
    if upper.degenerate_symbols:
        print(f"warning: zero-cost informative symbols {upper.degenerate_symbols} "
              "make the bound infinite", file=sys.stderr)
    rows = [(alpha, cpuc_lower(w, cost, alpha).value, upper.value) for alpha in alphas]
    _write_csv(args.out, "cpuc", {"channel": args.channel, "star": args.star,
                                  "gamma": gamma.tolist(), "alpha_grid": args.alpha_grid},
               ("alpha", "lower", "upper"), rows)
    return 0


def _cmd_simulate(args) -> int:
    if args.scheme == "zero_rate":
        _refuse((("--messages", args.messages is not None),), "exhaustive and pattern", "zero_rate")
    else:
        _refuse((("--epsilon", args.epsilon is not None),), "zero_rate", args.scheme)
    messages = 2 if args.messages is None else args.messages
    epsilon = 0.2 if args.epsilon is None else args.epsilon
    w = _parse_channel(args.channel, args.star)
    try:
        cfg = SimConfig(k=args.k, alpha=args.alpha, trials=args.trials,
                        seed=args.seed, mu=args.mu, epsilon=epsilon)
    except ValueError as e:
        raise UsageError(str(e)) from None
    _at_least("--messages", messages, 1)
    params = {
        "scheme": args.scheme, "channel": args.channel, "star": args.star,
        "k": args.k, "alpha": args.alpha, "trials": args.trials,
        "seed": args.seed, "mu": args.mu, "epsilon": epsilon,
        "messages": messages, "leading_trailing": args.leading_trailing,
    }
    if args.scheme != "zero_rate" and args.mu < 1.0 / (2 * args.k):
        print(f"warning: mu={args.mu:g} is below 1/(2k)={1.0 / (2 * args.k):g}; empirical "
              "frequencies move in steps of 1/k, so mu rather than the channel may "
              "decide the error rate", file=sys.stderr)
    result = monte_carlo_error(args.scheme, cfg, w, n_messages=messages,
                               leading_and_trailing=args.leading_trailing)
    tripped = sum(o.choices_examined == 0 for o in result.outcomes)
    if tripped:
        print(f"warning: {tripped} of {result.trials} trials exceeded the enumeration guard "
              "and count as errors", file=sys.stderr)
    rows = [
        (t, o.n_received, -1 if o.decoded is None else o.decoded,
         int(o.decoded == t % messages),
         o.choices_examined)
        for t, o in enumerate(result.outcomes)
    ]
    outdir = Path(args.out)
    config_hash = _write_csv(outdir / "trials.csv", "simulate", params,
                             ("trial", "n_received", "decoded", "correct", "choices_examined"),
                             rows)
    _write_json(outdir / "summary.json", {
        "config_hash": config_hash,
        "params": params,
        "error_rate": result.error_rate,
        "ci_low": result.ci_low,
        "ci_high": result.ci_high,
        "errors": result.errors,
        "trials": result.trials,
        "mean_n": result.mean_n,
        "version": __version__,
    })
    return 0


def _cmd_figures(args) -> int:
    fast = args.fast
    # every table (columns, rows, params) is computed before any file is
    # written, so a refused run leaves the output directory as it was
    tables = {}

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
    tables["partial_divergence.csv"] = (("rho", "d_q1", "d_q2"), rows,
                                        {"p": p, "q1": q1, "q2": q2, "step": step})

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
    tables["rates_bsc.csv"] = (("p", "alpha", "r1", "r2"), rows, {"ps": ps, "alphas": alphas})
    rows = [(alpha, noiseless_binary_rate(alpha).rate) for alpha in alphas]
    tables["rate_insertion.csv"] = (("alpha", "rate"), rows, {"alphas": alphas})

    # Genie upper bounds.
    s_list = [2, 3] if fast else [2, 3, 4, 5]
    bmax = 6 if fast else 10
    galphas = _parse_grid("1:2:0.5" if fast else "1:4:0.25")
    rows = []
    for s in s_list:
        for alpha in galphas:
            rows.append((s, bmax, alpha, c1_upper(s, bmax, alpha)))
    tables["genie_c1.csv"] = (("s", "b_max", "alpha", "bound"), rows,
                              {"s_list": s_list, "bmax": bmax, "alphas": galphas})
    s2_list = [2, 3] if fast else [2, 4, 6, 8, 10]
    rows = []
    for s in s2_list:
        for alpha in galphas:
            rows.append((s, alpha, c2_upper(s, alpha)))
    tables["genie_c2.csv"] = (("s", "alpha", "bound"), rows,
                              {"s_list": s2_list, "alphas": galphas})

    # Capacity per unit cost for BSC(0.1) with unit-cost signalling.
    w = Dmc.bsc(0.1, star=0)
    cost = CostModel(np.array([0.0, 1.0]), star=0)
    upper = cpuc_upper(w, cost).value
    calphas = _parse_grid("1:2:0.5" if fast else "1:5:0.25")
    rows = [(alpha, cpuc_lower(w, cost, alpha).value, upper) for alpha in calphas]
    tables["cpuc_bsc.csv"] = (("alpha", "lower", "upper"), rows, {"alphas": calphas})

    outdir = Path(args.out)
    files = {}
    for name, (columns, rows, params) in tables.items():
        config_hash = _write_csv(outdir / name, f"figures:{name}", params, columns, rows)
        files[name] = {"rows": len(rows), "config_hash": config_hash}
    _write_json(outdir / "manifest.json", {"version": __version__, "fast": fast, "files": files})
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
    sp.add_argument("--channel",
                    help="r1 and r2 only: bsc:<p> | noiseless:<n> | json:<path> (default bsc:0.1)")
    sp.add_argument("--star", type=int, help="r1 and r2 only: noise input index")
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
    sp.add_argument("--bmax", type=int, help="c1 only (default 10)")
    sp.add_argument("--alpha-grid", help="lo:hi:step (default 1:2:0.1)")
    sp.add_argument("--limit", action="store_true",
                    help="c1 only: emit the alpha -> infinity limit instead of an alpha grid "
                         "(the table of --alpha-grid inf)")
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
    sp.add_argument("--epsilon", type=float, help="zero_rate only (default 0.2)")
    sp.add_argument("--messages", type=int, help="exhaustive and pattern only (default 2)")
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
