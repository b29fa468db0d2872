"""Every consumer of Blahut-Arimoto refuses a run that exhausts its
iteration cap: the library raises ConvergenceError, and the CLI exits 1
without writing its output."""

import json

import numpy as np
import pytest

import intermit.blahut as blahut_mod
import intermit.insertion as insertion_mod
from intermit import (ConvergenceError, Dmc, blahut_capacity, exhaustive_decoding_rate,
                      insertion_capacity, insertion_loss, pattern_decoding_rate)
from intermit.cli import main

# The Z-channel's capacity-achieving input is not uniform, so two iterations
# from the uniform start cannot certify it; a symmetric channel would certify
# at once.  The (3, 5) insertion channel has such classes too.
Z_ROWS = [[1.0, 0.0], [0.3, 0.7]]
Z = Dmc(np.array(Z_ROWS), star=0)


@pytest.fixture(autouse=True)
def two_iterations(monkeypatch):
    monkeypatch.setattr(blahut_mod, "_MAX_ITER", 2)
    monkeypatch.setattr(insertion_mod, "_loss_cache", {})


# an insertion channel's refusal names its (a, b) pair and weight class
INSERTION = r"insertion channel a=3, b=5, weight class \d: .*stopped after 2 iterations"


@pytest.mark.parametrize("call, match", [
    (lambda: blahut_capacity(Z), "stopped after 2 iterations"),
    (lambda: insertion_capacity(3, 5), INSERTION),
    (lambda: insertion_loss(3, 5), INSERTION),
    (lambda: pattern_decoding_rate(Z, 1.2), "stopped after 2 iterations"),
    (lambda: exhaustive_decoding_rate(Z, 1.2), "stopped after 2 iterations"),
], ids=["blahut_capacity", "insertion_capacity", "insertion_loss",
        "pattern_decoding_rate", "exhaustive_decoding_rate"])
def test_library_refuses_unconverged_run(call, match):
    with pytest.raises(ConvergenceError, match=match):
        call()
    assert insertion_mod._loss_cache == {}


@pytest.mark.parametrize("argv", [
    ["rate", "--scheme", "r1", "--channel", "json:{z}", "--alpha-grid", "1:2:0.5"],
    ["rate", "--scheme", "r2", "--channel", "json:{z}", "--alpha-grid", "1:2:0.5"],
    ["aux-g", "--grid-b", "5"],
    ["upper-bound", "c1", "--s", "3", "--bmax", "5", "--limit"],
], ids=["rate-r1", "rate-r2", "aux-g", "upper-bound-c1-limit"])
def test_cli_refuses_unconverged_run(capsys, tmp_path, argv):
    z = tmp_path / "z.json"
    z.write_text(json.dumps({"rows": Z_ROWS, "star": 0}))
    out_file = tmp_path / "out.csv"
    code = main([arg.format(z=z) for arg in argv] + ["--out", str(out_file)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert not out_file.exists()
    assert "ConvergenceError" in err


def test_figures_refuses_unconverged_run(capsys, tmp_path):
    # the tables computed before the refusal must not reach the disk either:
    # a new directory is not made, and a file already there stays as it was
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    old.mkdir()
    stale = old / "rates_bsc.csv"
    stale.write_text("stale\n")
    for outdir in (fresh, old):
        code = main(["figures", "--fast", "--out", str(outdir)])
        _, err = capsys.readouterr()
        assert code == 1
        assert "ConvergenceError" in err
    assert not fresh.exists()
    assert list(old.iterdir()) == [stale]
    assert stale.read_text() == "stale\n"
