"""The batched typicality tests as they stood with the counts taken in their
given order, (..., |X|) and (..., |X|, |Y|), every reduction along the last
axes: the bit-for-bit cross-check for the transposed tests in
`intermit.prob`."""

import numpy as np

from intermit.prob import Dmc, _vec


def typical_rows(counts, p, mu: float) -> np.ndarray:
    if not mu > 0.0:  # NaN included
        raise ValueError(f"typicality slack mu must be positive, got {mu}")
    pv = _vec(p)
    c = np.asarray(counts)
    if c.shape[-1] != pv.size:
        raise ValueError("counts do not match the alphabet size")
    length = c.sum(axis=-1, keepdims=True)
    freq = c / np.maximum(length, 1)
    return (np.abs(freq - pv).max(axis=-1) <= mu) | (length[..., 0] == 0)


def cond_typical_rows(joint_counts, w, mu: float) -> np.ndarray:
    if not mu > 0.0:  # NaN included
        raise ValueError(f"typicality slack mu must be positive, got {mu}")
    wr = w.rows if isinstance(w, Dmc) else np.asarray(w, dtype=float)
    c = np.asarray(joint_counts)
    if c.shape[-2:] != wr.shape:
        raise ValueError("joint counts do not match the channel shape")
    length = c.sum(axis=(-2, -1), keepdims=True)
    joint = c / np.maximum(length, 1)
    marg = joint.sum(axis=-1)
    dev = np.abs(joint - marg[..., None] * wr).max(axis=(-2, -1))
    return (dev <= mu) | (length[..., 0, 0] == 0)
