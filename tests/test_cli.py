"""Command-line interface: CSV shape, determinism, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import intermit.sim as sim_mod
from insertion_oracle import all_blocks, insertion_table
from intermit import (blahut_capacity, c1_limit, c2_upper, cpuc_upper, CostModel,
                      partial_divergence_deriv)
from intermit.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def parse_csv(text):
    lines = text.strip().split("\n")
    assert lines[0].startswith("# config_hash=")
    digest = lines[0].split("=", 1)[1]
    assert len(digest) == 12
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def test_partial_div_stdout(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "partial-div",
            "--p", "0.25,0.25,0.25,0.25",
            "--q", "0.1,0.1,0.1,0.7",
            "--rho-grid", "0:1:0.25",
        ],
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["rho", "d", "d_deriv", "c_star"]
    assert len(rows) == 5
    assert rows[0][1] == "0"
    assert float(rows[-1][1]) == pytest.approx(0.6200893643729612, abs=1e-9)
    deriv = partial_divergence_deriv([0.25] * 4, [0.1, 0.1, 0.1, 0.7], 0.5)
    assert float(rows[2][2]) == pytest.approx(deriv, rel=1e-11)


def test_partial_div_deterministic_output(capsys):
    argv = ["partial-div", "--p", "0.5,0.5", "--q", "0.25,0.75", "--rho-grid", "0:1:0.1"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


# a NaN entry used to pass the pmf check and fail later, with exit 1
@pytest.mark.parametrize("p, q", [("0.5,0.7", "0.5,0.5"), ("0.5,0.5", "1.5,-0.5"),
                                  ("nan,1", "0.5,0.5")])
def test_partial_div_rejects_non_pmf(capsys, p, q):
    code, out, err = run_cli(capsys, ["partial-div", "--p", p, "--q", q, "--rho-grid", "0.5"])
    assert code == 2
    assert "error:" in err
    assert out == ""


def test_rate_r1_matches_library(capsys, bsc01):
    code, out, _ = run_cli(
        capsys, ["rate", "--scheme", "r1", "--channel", "bsc:0.1", "--alpha-grid", "1"]
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["alpha", "rate", "beta_star", "p_star"]
    c = blahut_capacity(bsc01).capacity
    assert float(rows[0][1]) == pytest.approx(c, abs=1e-9)
    assert rows[0][3] == "0.5|0.5"


def test_rate_insertion_row(capsys):
    code, out, _ = run_cli(capsys, ["rate", "--scheme", "insertion", "--alpha-grid", "1.2"])
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0][1]) == pytest.approx(0.41997309402197525, abs=1e-9)
    assert float(rows[0][3]) == pytest.approx(0.4, abs=1e-4)


def test_rate_r2_row(capsys, bsc01):
    code, out, _ = run_cli(
        capsys, ["rate", "--scheme", "r2", "--channel", "bsc:0.1", "--alpha-grid", "1.05"]
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0][1]) == pytest.approx(0.2675494277009187, abs=1e-6)


def test_aux_g_single_pair(capsys):
    code, out, _ = run_cli(capsys, ["aux-g", "--a", "2", "--b", "3"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["a", "b", "g_exact", "g_upper_bound", "phi"]
    assert float(rows[0][2]) == pytest.approx(1.84293903978736, abs=1e-9)
    assert float(rows[0][4]) == pytest.approx(2 - 1.84293903978736, abs=1e-9)


def test_aux_g_triangle(capsys):
    code, out, _ = run_cli(capsys, ["aux-g", "--grid-b", "5"])
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 15  # all 1 <= a <= b <= 5


def test_aux_g_dump_channel_exact(capsys, tmp_path):
    dump = tmp_path / "counts.csv"
    code, _, _ = run_cli(
        capsys, ["aux-g", "--a", "2", "--b", "3", "--dump-channel", str(dump)]
    )
    assert code == 0
    header, rows = parse_csv(dump.read_text())
    assert header == ["input", "output", "count", "denominator"]
    table = [(r[0], r[1], int(r[2])) for r in rows]
    assert table == [
        ("00", "000", 3),
        ("01", "001", 2),
        ("01", "010", 1),
        ("10", "010", 1),
        ("10", "100", 2),
        ("11", "011", 1),
        ("11", "101", 1),
        ("11", "110", 1),
    ]
    assert all(int(r[3]) == 3 for r in rows)


def test_aux_g_dump_channel_matches_oracle(capsys, tmp_path):
    dump = tmp_path / "counts.csv"
    code, _, _ = run_cli(
        capsys, ["aux-g", "--a", "3", "--b", "5", "--dump-channel", str(dump)]
    )
    assert code == 0
    _, rows = parse_csv(dump.read_text())
    inputs = all_blocks(3)
    table = insertion_table(inputs, 3, 5)
    expect = [
        ["".join(map(str, x)), "".join(map(str, y)), str(c), "10"]
        for x in inputs
        for y, c in sorted(table[x].items())
    ]
    assert rows == expect


def test_aux_g_dump_channel_pinned_bytes(capsys, tmp_path):
    # the full 2^6 x 2^10 count table, pinned byte for byte from the kept-set
    # enumeration
    dump = tmp_path / "counts.csv"
    code, _, _ = run_cli(capsys, ["aux-g", "--a", "6", "--b", "10", "--dump-channel", str(dump)])
    assert code == 0
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == (
        "39c2d1e3d8b696a96cee4c39064c9917c35b8b1cede3e12394f585830ecbdd8e")


def test_upper_bound_c1_limit(capsys):
    code, out, _ = run_cli(capsys, ["upper-bound", "c1", "--s", "3", "--bmax", "8", "--limit"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["s", "b_max", "alpha", "bound"]
    assert rows[0][2] == "inf"
    assert float(rows[0][3]) == pytest.approx(c1_limit(3, 8), abs=1e-12)
    # the sweep at alpha = inf prints the same bytes, config hash included
    # (--limit used to hash as a table of its own)
    code, sweep, _ = run_cli(capsys, ["upper-bound", "c1", "--s", "3", "--bmax", "8",
                                      "--alpha-grid", "inf"])
    assert code == 0
    assert sweep == out


def test_upper_bound_c2(capsys):
    code, out, _ = run_cli(capsys, ["upper-bound", "c2", "--s", "3", "--alpha-grid", "1.5"])
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0][2]) == pytest.approx(c2_upper(3, 1.5), abs=1e-12)


def test_upper_bound_c2_at_infinite_alpha(capsys):
    code, out, _ = run_cli(capsys, ["upper-bound", "c2", "--s", "3", "--alpha-grid", "inf"])
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][:2] == ["3", "inf"]
    assert float(rows[0][2]) == c2_upper(3, math.inf)
    assert float(rows[0][2]) == pytest.approx(c2_upper(3, 1e12), abs=1e-9)


@pytest.mark.parametrize("grid", ["1:inf:1", "1:3:nan", "nan:3:1", "-inf:3:1", "1:3:inf",
                                  "1:3:-inf"])
def test_grid_refuses_non_finite_range_parts(capsys, grid):
    code, out, err = run_cli(capsys, ["upper-bound", "c2", "--s", "3", f"--alpha-grid={grid}"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and repr(grid) in err


# SHA-256 of the stdout of converse-bound and insertion-capacity sweeps: any
# change to a printed digit of g or phi shows here
PINNED_STDOUT = [
    (["upper-bound", "c1", "--s", "7", "--bmax", "12", "--alpha-grid", "1:3:0.25"],
     "8a2e96114a9349ed377f518368f5b8828cbe4f78eeda336d0ce7c6138af54e08"),
    (["upper-bound", "c2", "--s", "10", "--alpha-grid", "1:3:0.25"],
     "f6127da09634531d1c1f10795592b38e92c4ef305dba0e46f2a2f5aa6d71b2b2"),
    (["aux-g", "--grid-b", "9"],
     "db1425025defd4855f0b9e22dfdcff4b1a33a4fa1b97c0a4d5eb685fc2d0ab1b"),
]


@pytest.mark.parametrize("argv, digest", PINNED_STDOUT,
                         ids=[" ".join(argv) for argv, _ in PINNED_STDOUT])
def test_pinned_stdout_bytes(capsys, argv, digest):
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.paper_scale
def test_c1_limit_agrees_across_blas_thread_counts():
    # One of Blahut-Arimoto's BLAS products, the Newton step's Hessian
    # (neg_hess += scaled @ block.T in blahut._newton_step), sums in an
    # order that follows the thread count; rW, W log(rW) and r.d do not.
    # So this command prints 0.673883733405 with one OpenBLAS thread and
    # 0.67388373339 with two.  Both are certified upper bounds, so bytes
    # repeat only for the same numpy build and thread count, while the
    # values must agree within the certificate's tolerance.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")]))
    bounds = []
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = threads
        out = subprocess.run([sys.executable, "-m", "intermit.cli", "upper-bound", "c1", "--s",
                              "9", "--bmax", "17", "--limit"], env=env, capture_output=True,
                             text=True, check=True).stdout
        header, rows = parse_csv(out)
        bounds.append(float(rows[0][header.index("bound")]))
    assert abs(bounds[0] - bounds[1]) <= 1e-9, bounds


def test_cpuc_rows(capsys, bsc01):
    code, out, _ = run_cli(
        capsys,
        ["cpuc", "--channel", "bsc:0.1", "--gamma", "0,1", "--alpha-grid", "1:2:0.5"],
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["alpha", "lower", "upper"]
    up = cpuc_upper(bsc01, CostModel(gamma=(0.0, 1.0), star=0)).value
    assert all(float(r[2]) == pytest.approx(up, abs=1e-9) for r in rows)
    assert float(rows[0][1]) == pytest.approx(up / 2, abs=1e-9)


def test_cpuc_degenerate_warning(capsys, tmp_path):
    ch = tmp_path / "w.json"
    ch.write_text(
        json.dumps(
            {"rows": [[0.8, 0.2], [0.1, 0.9], [0.6, 0.4]], "star": 0}
        )
    )
    code, out, err = run_cli(
        capsys,
        ["cpuc", "--channel", f"json:{ch}", "--gamma", "0,1,0", "--alpha-grid", "1"],
    )
    assert code == 0
    assert "zero-cost" in err
    _, rows = parse_csv(out)
    assert rows[0][2] == "inf"


def test_simulate_writes_deterministic_artifacts(capsys, tmp_path):
    argv = [
        "simulate", "--scheme", "zero_rate", "--channel", "bsc:0.1",
        "--k", "30", "--alpha", "1.5", "--trials", "40", "--seed", "3",
    ]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli(capsys, argv + ["--out", str(out1)])[0] == 0
    assert run_cli(capsys, argv + ["--out", str(out2)])[0] == 0
    t1 = (out1 / "trials.csv").read_bytes()
    t2 = (out2 / "trials.csv").read_bytes()
    assert t1 == t2
    s1 = (out1 / "summary.json").read_bytes()
    assert s1 == (out2 / "summary.json").read_bytes()
    summary = json.loads(s1)
    assert summary["trials"] == 40
    assert 0.0 <= summary["error_rate"] <= 1.0
    header, rows = parse_csv(t1.decode())
    assert header == ["trial", "n_received", "decoded", "correct", "choices_examined"]
    assert len(rows) == 40


# SHA-256 of trials.csv for each simulate scheme: any change to a trial's
# draws, its channel outputs or its decision shows here
PINNED_TRIALS = [
    (["--scheme", "zero_rate", "--channel", "bsc:0.05", "--k", "40", "--alpha", "1.5",
      "--trials", "200", "--seed", "11"],
     "9cfb622ffd2186c04cd08509da0078722154b964c3aea9f370ebd22d51a2a19b"),
    (["--scheme", "exhaustive", "--channel", "noiseless:2", "--k", "6", "--alpha", "1.3",
      "--trials", "100", "--seed", "5", "--mu", "0.1"],
     "0eb84f9aa960394cdc916ef4746d632483a1eaaa388d211c7e15b7e9eddb1fc3"),
    (["--scheme", "pattern", "--channel", "bsc:0.05", "--k", "6", "--alpha", "1.3",
      "--trials", "100", "--seed", "7", "--mu", "0.1", "--leading-trailing"],
     "b950a86f6ff0298b09a21257f7d357a5a947e01349d029ca4ff104c3324b2904"),
]


@pytest.mark.parametrize("argv, digest", PINNED_TRIALS, ids=[a[1] for a, _ in PINNED_TRIALS])
def test_pinned_simulate_trials_bytes(capsys, tmp_path, argv, digest):
    assert run_cli(capsys, ["simulate", *argv, "--out", str(tmp_path)])[0] == 0
    assert hashlib.sha256((tmp_path / "trials.csv").read_bytes()).hexdigest() == digest


# a 3-input, 9-output channel: the conditional typicality test sums a
# row of 9 joint counts for each input's marginal
CHANNEL_3X9 = {"rows": [[0.6, 0.2, 0.1, 0.02, 0.02, 0.02, 0.02, 0.01, 0.01],
                        [0.02, 0.02, 0.1, 0.6, 0.2, 0.02, 0.02, 0.01, 0.01],
                        [0.01, 0.01, 0.02, 0.02, 0.02, 0.1, 0.2, 0.02, 0.6]], "star": 0}
PINNED_TRIALS_3X9 = [
    (["--scheme", "exhaustive", "--k", "6", "--alpha", "1.3", "--trials", "100", "--seed", "13",
      "--mu", "0.15"],
     "bc5b84d002996671adcb49e5e039619e984b1e420e2a4e6ba14c4e327ece677d"),
    (["--scheme", "pattern", "--k", "6", "--alpha", "1.3", "--trials", "100", "--seed", "17",
      "--mu", "0.25"],
     "0b90d2fdad25c1d6f83039a6d2d5bd6ac37898df887c4b730bb2f84ecc5973e4"),
    # counted per output from the uniforms, without placing the blocks
    (["--scheme", "zero_rate", "--k", "30", "--alpha", "1.3", "--trials", "200", "--seed", "19",
      "--mu", "0.1"],
     "69f7a55e64e7fbd3ecc444fbb186c3fedad83d3d2a01b60ccd0712542bb0e8f3"),
]


@pytest.mark.parametrize("argv, digest", PINNED_TRIALS_3X9, ids=["exhaustive", "pattern", "zero_rate"])
def test_pinned_simulate_trials_bytes_on_a_9_output_channel(capsys, tmp_path, monkeypatch,
                                                            argv, digest):
    # the channel path is part of the config hash, so it is given relative
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ch3x9.json").write_text(json.dumps(CHANNEL_3X9))
    argv = ["simulate", *argv, "--channel", "json:ch3x9.json", "--out", "run"]
    assert run_cli(capsys, argv)[0] == 0
    assert hashlib.sha256((tmp_path / "run" / "trials.csv").read_bytes()).hexdigest() == digest


def test_simulate_rejects_negative_seed(capsys, tmp_path):
    code, _, err = run_cli(capsys, [
        "simulate", "--scheme", "zero_rate", "--channel", "bsc:0.1", "--k", "30",
        "--alpha", "1.5", "--trials", "40", "--seed", "-1", "--out", str(tmp_path / "run"),
    ])
    assert code == 2
    assert err == "error: seed must be an integer >= 0, got -1\n"
    assert not (tmp_path / "run").exists()


def test_simulate_guard_trip_warns_and_writes(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(sim_mod, "ENUM_GUARD", 10)
    code, _, err = run_cli(capsys, [
        "simulate", "--scheme", "exhaustive", "--channel", "noiseless:2", "--k", "4",
        "--alpha", "1.5", "--trials", "40", "--seed", "2", "--mu", "0.2",
        "--out", str(tmp_path),
    ])
    assert code == 0
    _, rows = parse_csv((tmp_path / "trials.csv").read_text())
    tripped = [row for row in rows if row[4] == "0"]
    assert tripped and all(row[2:4] == ["-1", "0"] for row in tripped)
    assert err == (f"warning: {len(tripped)} of 40 trials exceeded the enumeration guard "
                   "and count as errors\n")
    assert json.loads((tmp_path / "summary.json").read_text())["errors"] >= len(tripped)


def test_simulate_warns_when_mu_is_below_half_a_type_step(capsys, tmp_path):
    code, _, err = run_cli(capsys, [
        "simulate", "--scheme", "pattern", "--channel", "bsc:0.05", "--k", "8",
        "--alpha", "1.5", "--mu", "0.05", "--trials", "20", "--seed", "1",
        "--out", str(tmp_path),
    ])
    assert code == 0
    assert err.startswith("warning: mu=0.05 is below 1/(2k)=0.0625;")
    assert (tmp_path / "trials.csv").exists()


def test_figures_fast(capsys, tmp_path):
    out = tmp_path / "figs"
    code, _, _ = run_cli(capsys, ["figures", "--fast", "--out", str(out)])
    assert code == 0
    expected = {
        "partial_divergence.csv",
        "rates_bsc.csv",
        "rate_insertion.csv",
        "genie_c1.csv",
        "genie_c2.csv",
        "cpuc_bsc.csv",
    }
    names = {p.name for p in out.iterdir()}
    assert expected <= names
    assert "manifest.json" in names
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["files"]) == expected
    for f in expected:
        first = (out / f).read_text().split("\n", 1)[0]
        assert first.startswith("# config_hash=")


def test_figures_partial_divergence_pinned_bytes(capsys, tmp_path):
    # the full grid (rho step 0.01) prints every tilt solve's value to 12
    # digits; the digest predates the Newton solve
    assert run_cli(capsys, ["figures", "--out", str(tmp_path)])[0] == 0
    digest = hashlib.sha256((tmp_path / "partial_divergence.csv").read_bytes()).hexdigest()
    assert digest == "76c2eff427bd77f78bd9775cfc464c788028b21eba69b2b99ddf3cd11b2413bb"


def test_exit_code_usage_error(capsys):
    code, _, err = run_cli(capsys, ["rate", "--scheme", "r1", "--channel", "bsc:1.5"])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ["rate", "--scheme", "r1"],
    ["rate", "--scheme", "r2"],
    ["rate", "--scheme", "insertion"],
    ["upper-bound", "c1", "--s", "3"],
    ["upper-bound", "c2", "--s", "3"],
    ["cpuc", "--gamma", "0,1"],
])
def test_exit_code_alpha_below_one(capsys, argv):
    code, out, err = run_cli(capsys, argv + ["--alpha-grid", "0.5:1.5:0.5"])
    assert code == 2
    assert "error:" in err
    assert out == ""


@pytest.mark.parametrize("argv, need", [
    (["rate", "--scheme", "r1"], "finite and >= 1"),
    (["cpuc", "--gamma", "0,1"], "finite and >= 1"),
    (["upper-bound", "c2", "--s", "3"], "a number >= 1, inf included"),
])
def test_alpha_grid_nan_names_the_rule(capsys, argv, need):
    # NaN used to be refused as "has a value below 1"
    code, out, err = run_cli(capsys, argv + ["--alpha-grid", "nan"])
    assert code == 2
    assert out == ""
    assert err == f"error: alpha grid 'nan' has nan; alpha must be {need}\n"


@pytest.mark.parametrize("argv", [
    ["rate", "--scheme", "r1"],
    ["rate", "--scheme", "r2"],
    ["rate", "--scheme", "insertion"],
    ["cpuc", "--gamma", "0,1"],
])
def test_exit_code_alpha_inf_outside_the_genie_bounds(capsys, tmp_path, argv):
    # only upper-bound defines alpha = inf; these used to print nan rates
    # with exit 0 (r1, insertion, cpuc) or fail after seconds of work (r2)
    out_file = tmp_path / "out.csv"
    code, out, err = run_cli(capsys, argv + ["--alpha-grid", "inf", "--out", str(out_file)])
    assert code == 2
    assert out == ""
    assert err == "error: alpha grid 'inf' has inf, which only upper-bound accepts\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("grid", ["2", "nan", "-1:1:0.5"])
def test_partial_div_rho_grid_outside_unit_interval_is_usage_error(capsys, tmp_path, grid):
    # these used to fail in the library: "failed: ValueError", exit 1
    out_file = tmp_path / "out.csv"
    code, out, err = run_cli(capsys, ["partial-div", "--p", ".5,.5", "--q", ".25,.75",
                                      f"--rho-grid={grid}", "--out", str(out_file)])
    assert code == 2
    assert out == ""
    assert err == f"error: rho grid {grid!r} has a value outside [0, 1]\n"
    assert list(tmp_path.iterdir()) == []


def test_exit_code_size_guard(capsys):
    code, _, err = run_cli(capsys, ["aux-g", "--a", "2", "--b", "15"])
    assert code == 3
    assert "refused:" in err


def test_aux_g_needs_allow_large_beyond_desk_guard(capsys):
    code, out, err = run_cli(capsys, ["aux-g", "--a", "3", "--b", "14"])
    assert code == 3
    assert "refused:" in err and out == ""
    code, out, _ = run_cli(capsys, ["aux-g", "--a", "3", "--b", "14", "--allow-large"])
    assert code == 0
    _, rows = parse_csv(out)
    assert [r[:2] for r in rows] == [["3", "14"]]


def test_upper_bound_takes_typed_sizes_up_to_hard_limit(capsys):
    code, out, _ = run_cli(capsys, ["upper-bound", "c1", "--s", "3", "--bmax", "13", "--limit"])
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0][3]) == pytest.approx(c1_limit(3, 13, allow_large=True), abs=1e-12)
    for argv in (["c1", "--s", "3", "--bmax", "18", "--limit"],
                 ["c2", "--s", "18", "--alpha-grid", "1.5"]):
        code, out, err = run_cli(capsys, ["upper-bound"] + argv)
        assert code == 3
        assert "refused:" in err and out == ""
    with pytest.raises(SystemExit):
        main(["upper-bound", "c1", "--s", "3", "--bmax", "13", "--allow-large"])


def test_exit_code_missing_pair(capsys):
    code, _, _ = run_cli(capsys, ["aux-g", "--a", "2"])
    assert code == 2


def test_argparse_rejects_unknown_scheme(capsys):
    with pytest.raises(SystemExit):
        main(["rate", "--scheme", "warp"])


@pytest.mark.parametrize("argv, flag", [
    (["upper-bound", "c1", "--s", "0"], "--s"),
    (["upper-bound", "c1", "--s", "3", "--bmax", "2"], "--bmax"),
    (["upper-bound", "c2", "--s", "0"], "--s"),
    (["aux-g", "--a", "0", "--b", "3"], "--a"),
    (["aux-g", "--a", "3", "--b", "2"], "--b"),
    (["aux-g", "--grid-b", "0"], "--grid-b"),
    (["aux-g", "--grid-b", "0", "--dump-channel", "{tmp}/counts.csv"], "--grid-b"),
    (["simulate", "--scheme", "pattern", "--messages", "0", "--k", "4", "--alpha", "1.5",
      "--trials", "3", "--seed", "1", "--mu", "0.2", "--out", "{tmp}/run"], "--messages"),
], ids=["c1-s", "c1-bmax", "c2-s", "aux-g-a", "aux-g-b", "grid-b", "grid-b-dump",
        "simulate-messages"])
def test_out_of_range_sizes_are_usage_errors(capsys, tmp_path, argv, flag):
    # these used to end in ValueError or IndexError (exit 1), or in an empty
    # table (exit 0)
    code, out, err = run_cli(capsys, [a.format(tmp=tmp_path) for a in argv])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} must be >= ")
    assert list(tmp_path.iterdir()) == []


SIM_ARGS = ["--k", "5", "--alpha", "1.3", "--trials", "10", "--seed", "3", "--mu", "0.2"]


@pytest.mark.parametrize("argv, message", [
    (["upper-bound", "c2", "--s", "3", "--limit", "--alpha-grid", "1:2:0.5"],
     "--limit applies to c1 only, not to c2"),
    (["upper-bound", "c2", "--s", "3", "--bmax", "5"], "--bmax applies to c1 only, not to c2"),
    (["upper-bound", "c1", "--s", "3", "--limit", "--alpha-grid", "1:2:0.5"],
     "--alpha-grid cannot be combined with --limit"),
    (["aux-g", "--a", "3", "--b", "5", "--grid-b", "2"], "--a and --b cannot be combined with --grid-b"),
    (["aux-g", "--b", "5", "--grid-b", "2"], "--b cannot be combined with --grid-b"),
    (["rate", "--scheme", "insertion", "--channel", "bsc:0.1"],
     "--channel applies to r1 and r2 only, not to insertion"),
    (["rate", "--scheme", "insertion", "--channel", "json:/nonexistent"],
     "--channel applies to r1 and r2 only, not to insertion"),
    (["rate", "--scheme", "insertion", "--star", "1"],
     "--star applies to r1 and r2 only, not to insertion"),
    (["simulate", "--scheme", "zero_rate", "--messages", "5"] + SIM_ARGS,
     "--messages applies to exhaustive and pattern only, not to zero_rate"),
    (["simulate", "--scheme", "pattern", "--epsilon", "0.3"] + SIM_ARGS,
     "--epsilon applies to zero_rate only, not to pattern"),
    (["simulate", "--scheme", "exhaustive", "--epsilon", "0.3"] + SIM_ARGS,
     "--epsilon applies to zero_rate only, not to exhaustive"),
], ids=["c2-limit", "c2-bmax", "c1-limit-alpha-grid", "aux-g-pair-grid-b", "aux-g-b-grid-b",
        "insertion-channel", "insertion-bad-channel", "insertion-star", "zero-rate-messages",
        "pattern-epsilon", "exhaustive-epsilon"])
def test_flags_that_do_not_apply_are_usage_errors(capsys, tmp_path, argv, message):
    # these used to be ignored: c2 printed its alpha sweep, aux-g the b <= 2
    # triangle without the (3, 5) pair, both with exit 0; rate and simulate
    # wrote the default's rows under another config hash
    out_file = tmp_path / "out.csv"
    code, out, err = run_cli(capsys, argv + ["--out", str(out_file)])
    assert code == 2
    assert out == "" and err.startswith(f"error: {message}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["rate", "--scheme", "r1", "--channel", "json:nan.json", "--alpha-grid", "1.5"],
     "cannot build channel from 'json:nan.json': channel matrix has negative or NaN entry nan"),
    (["cpuc", "--gamma", "0,nan", "--alpha-grid", "1.5"], "costs must be nonnegative numbers"),
], ids=["rate-channel", "cpuc-gamma"])
def test_nan_inputs_are_usage_errors(capsys, tmp_path, monkeypatch, argv, message):
    # these used to pass validation: rate printed "1.5,0,nan,0.5|0.5" and
    # cpuc "1.5,nan,nan", both with exit 0
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nan.json").write_text('{"rows": [[NaN, 1], [0.5, 0.5]], "star": 0}')
    code, out, err = run_cli(capsys, argv + ["--out", "out.csv"])
    assert code == 2
    assert out == "" and err == f"error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["nan.json"]


def test_aux_g_dump_channel_creates_its_directories(capsys, tmp_path, monkeypatch):
    # the dump used to be opened without creating its parents, so the command
    # did all its work and then exited 1 with FileNotFoundError
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, ["aux-g", "--a", "3", "--b", "5",
                                    "--dump-channel", "new/x/counts.csv", "--out", "new/y/g.csv"])
    assert code == 0 and err == ""
    _, rows = parse_csv((tmp_path / "new/y/g.csv").read_text())
    assert [r[:2] for r in rows] == [["3", "5"]]
    assert run_cli(capsys, ["aux-g", "--a", "3", "--b", "5", "--dump-channel", "flat.csv"])[0] == 0
    assert (tmp_path / "new/x/counts.csv").read_bytes() == (tmp_path / "flat.csv").read_bytes()


def test_figures_fast_manifest_pinned_and_matches_files(capsys, tmp_path):
    assert run_cli(capsys, ["figures", "--fast", "--out", str(tmp_path)])[0] == 0
    manifest = tmp_path / "manifest.json"
    assert hashlib.sha256(manifest.read_bytes()).hexdigest() == (
        "b54079964802121ca6156dcce61cccb032ddaf3352b0d6a3c603b9708d3062ae")
    for name, entry in json.loads(manifest.read_text())["files"].items():
        head, _, body = (tmp_path / name).read_text().partition("\n")
        assert head == f"# config_hash={entry['config_hash']}"
        assert len(body.splitlines()) == 1 + entry["rows"]


def test_simulate_summary_pinned_and_matches_trials(capsys, tmp_path):
    argv, _ = PINNED_TRIALS[0]
    assert run_cli(capsys, ["simulate", *argv, "--out", str(tmp_path)])[0] == 0
    summary = (tmp_path / "summary.json").read_bytes()
    assert hashlib.sha256(summary).hexdigest() == (
        "881a2b763fd1206c43d2a4e9fa77ea660891fe72eb0e66b9d46280f721077481")
    head = (tmp_path / "trials.csv").read_text().split("\n", 1)[0]
    assert head == f"# config_hash={json.loads(summary)['config_hash']}"


@pytest.mark.parametrize("argv", [
    ["rate", "--scheme", "r1"],
    ["rate", "--scheme", "r2"],
    ["cpuc", "--gamma", "0,1"],
    ["simulate", "--scheme", "zero_rate", "--k", "4", "--alpha", "1.5", "--trials", "3",
     "--seed", "1", "--out", "run"],
], ids=["r1", "r2", "cpuc", "simulate"])
def test_channel_without_noise_input_is_a_usage_error(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "w.json").write_text(json.dumps({"rows": [[0.9, 0.1], [0.1, 0.9]]}))
    code, out, err = run_cli(capsys, argv + ["--channel", "json:w.json"])
    assert code == 2 and out == ""
    assert err == "error: channel 'json:w.json' has no noise input; pass --star\n"
    assert [p.name for p in tmp_path.iterdir()] == ["w.json"]
