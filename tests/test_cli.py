"""Command-line interface: CSV shape, determinism, exit codes."""

import hashlib
import json

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


@pytest.mark.parametrize("p, q", [("0.5,0.7", "0.5,0.5"), ("0.5,0.5", "1.5,-0.5")])
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


def test_upper_bound_c1_limit(capsys):
    code, out, _ = run_cli(capsys, ["upper-bound", "c1", "--s", "3", "--bmax", "8", "--limit"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["s", "b_max", "alpha", "bound"]
    assert rows[0][2] == "inf"
    assert float(rows[0][3]) == pytest.approx(c1_limit(3, 8), abs=1e-12)


def test_upper_bound_c2(capsys):
    code, out, _ = run_cli(capsys, ["upper-bound", "c2", "--s", "3", "--alpha-grid", "1.5"])
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0][2]) == pytest.approx(c2_upper(3, 1.5), abs=1e-12)


# SHA-256 of the stdout of converse-bound and insertion-capacity sweeps: any
# change to a printed digit of g or phi shows here
PINNED_STDOUT = [
    (["upper-bound", "c1", "--s", "7", "--bmax", "12", "--alpha-grid", "1:3:0.25"],
     "847c91c56586c9f1d8a2aadf6d9ebc8bc5c6486e509e38743970f3486c4435f6"),
    (["upper-bound", "c2", "--s", "10", "--alpha-grid", "1:3:0.25"],
     "edc00f4d5f0c58aae890721f76772b73753202c06f2ce28ceafc01f4d214e6a6"),
    (["aux-g", "--grid-b", "9"],
     "ffd64f96a5709037ef0fcd1e04327a03cbb785f112f335e8332003b9b2e9a89a"),
]


@pytest.mark.parametrize("argv, digest", PINNED_STDOUT,
                         ids=[" ".join(argv) for argv, _ in PINNED_STDOUT])
def test_pinned_stdout_bytes(capsys, argv, digest):
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
     "e57d88c12480702a9661b1436b03187e6ff8929cc51d26f13e8e20151885eba6"),
    (["--scheme", "exhaustive", "--channel", "noiseless:2", "--k", "6", "--alpha", "1.3",
      "--trials", "100", "--seed", "5", "--mu", "0.1"],
     "9e21e9a19e2f481704a2c3f9791e5d1d8ddb41b56449ca122b4b2c0e50223a11"),
    (["--scheme", "pattern", "--channel", "bsc:0.05", "--k", "6", "--alpha", "1.3",
      "--trials", "100", "--seed", "7", "--mu", "0.1", "--leading-trailing"],
     "7322509b53e74c3325950d66160222d96338e5ab96c0928ae19e02717876f658"),
]


@pytest.mark.parametrize("argv, digest", PINNED_TRIALS, ids=[a[1] for a, _ in PINNED_TRIALS])
def test_pinned_simulate_trials_bytes(capsys, tmp_path, argv, digest):
    assert run_cli(capsys, ["simulate", *argv, "--out", str(tmp_path)])[0] == 0
    assert hashlib.sha256((tmp_path / "trials.csv").read_bytes()).hexdigest() == digest


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
