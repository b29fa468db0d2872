"""The Monte-Carlo loop one trial at a time through the single-sequence entry
points: the cross-check for the batched `intermit.sim.monte_carlo_error`.

Trial t draws from a generator on np.random.PCG64(seed).jumped(t), built
afresh for every trial, in the order the package does (codebook, noise gaps,
trailing run, channel uniforms), then goes through `transmit_intermittent`,
`apply_dmc` and its decoder on its own.
"""

import numpy as np

import intermit.sim as sim
from intermit import SimResult, SizeGuardError, TrialOutcome, wilson_interval


def monte_carlo_error(scheme: str, cfg, w, *, n_messages: int = 2,
                      leading_and_trailing: bool = False) -> SimResult:
    if scheme == "zero_rate":
        fixed_cb, n_msg = sim.zero_rate_codebook(w, cfg.k), 2
    else:
        fixed_cb, n_msg = None, n_messages
    pvec = np.full(w.input_size, 1.0 / w.input_size)
    errors = 0
    total_n = 0
    outcomes = []
    for t in range(cfg.trials):
        rng = np.random.Generator(np.random.PCG64(cfg.seed).jumped(t))
        m = t % n_msg
        if fixed_cb is None:
            cb = rng.integers(w.input_size, size=(n_msg, cfg.k))
        else:
            cb = fixed_cb
        x = sim.transmit_intermittent(cb[m], cfg.alpha, w.star, rng,
                                      leading_and_trailing=leading_and_trailing)
        y = sim.apply_dmc(x, w, rng)
        if scheme == "zero_rate":
            decoded = sim.decode_zero_rate(y, w, cfg)
            examined = 1
        else:
            try:
                if scheme == "exhaustive":
                    res = sim.decode_exhaustive(y, cfg.k, cb, w, cfg.mu)
                else:
                    res = sim.decode_pattern(y, cfg.k, cb, w, cfg.mu, pvec)
                decoded, examined = res.message, res.choices_examined
            except SizeGuardError:
                decoded, examined = None, 0
        if decoded != m:
            errors += 1
        total_n += int(y.size)
        outcomes.append(TrialOutcome(int(y.size), decoded, examined))
    lo, hi = wilson_interval(errors, cfg.trials)
    return SimResult(
        error_rate=errors / cfg.trials,
        ci_low=lo,
        ci_high=hi,
        errors=errors,
        trials=cfg.trials,
        mean_n=total_n / cfg.trials,
        outcomes=tuple(outcomes),
    )
