"""Importing intermit loads numpy, not scipy's heavy submodules.

scipy.stats, scipy.optimize, scipy.special, scipy.linalg and scipy.sparse
together take most of a second to import, and every CLI call would pay for
them.  scipy.sparse is needed only by `insertion_counts`, the full count
table; every weight class is a small dense matrix, so even the paper-scale
(9, 17) channel must not load it.
The tilt solve behind the partial divergence and `figures` is numpy only.
The check runs in a fresh interpreter, so modules imported by other tests
do not count.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys

import numpy as np

import intermit
import intermit.cli

HEAVY = {"scipy.stats", "scipy.optimize", "scipy.special", "scipy.linalg", "scipy.sparse"}
print(sorted(HEAVY & set(sys.modules)))

w = intermit.Dmc.bsc(0.05)
# alpha = 2.5 puts R2 on its binding case, which computes per-input offsets
intermit.pattern_decoding_rate(w, 2.5)
intermit.c1_upper(3, 10, 1.5)
rng = np.random.default_rng(1)
codebook = rng.integers(0, 2, size=(4, 6))
y = rng.integers(0, 2, size=9)
intermit.decode_pattern(y, 6, codebook, w, 0.1, np.array([0.5, 0.5]))
intermit.insertion_capacity(9, 17, allow_large=True)
intermit.partial_divergence([0.5, 0.3, 0.2], [0.0, 0.5, 0.5], 0.4)
intermit.tilting_constant([0.25] * 4, [0.1, 0.1, 0.1, 0.7], 0.5)
intermit.mismatch_exponent([0.7, 0.3], [0.6, 0.4], [0.3, 0.7], 0.5)
assert intermit.cli.main(["figures", "--fast", "--out", sys.argv[1]]) == 0
print(sorted(HEAVY & set(sys.modules)))
"""


def test_import_and_jobs_load_no_heavy_scipy_module(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path / "figs")], env=env,
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out == ["[]", "[]"]
