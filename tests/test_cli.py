import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from corrnoise import cli, evolution, optimize, verify
from corrnoise.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_TOLERANCE, RunConfig, main
from corrnoise.estimation import shot_uncertainty
from corrnoise.evolution import CoherencePair, decay_rate, ghz_pair
from corrnoise.model import build_n_qubit, build_single_qubit, build_two_qubit, from_spectral_density, load_spectral_csv


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    comments = [l for l in text.splitlines() if l.startswith("#")]
    rows = [l.split(",") for l in text.splitlines() if l and not l.startswith("#")]
    return comments, rows[0], rows[1:]


class TestClosedForms:
    def test_exit_zero_and_tolerance(self, capsys):
        code, out = run_cli(["closed-forms", "--xi", "0.05", "--n", "4"], capsys)
        assert code == EXIT_OK
        comments, header, rows = parse_csv(out)
        assert comments[0].startswith("# config: ")
        assert header == ["case", "computed", "expected", "rel_err"]
        assert len(rows) == 3
        for row in rows:
            assert float(row[3]) <= 1e-4

    def test_expected_values(self, capsys):
        code, out = run_cli(["closed-forms", "--xi", "0.1", "--n", "6"], capsys)
        _, _, rows = parse_csv(out)
        expected = {"single_plus": 5.0, "two_bell": 10.0, "nqb6_ghz": 30.0}
        for row in rows:
            assert float(row[2]) == pytest.approx(expected[row[0]])


class TestFig1a:
    def test_columns_and_shape(self, capsys, x_star):
        code, out = run_cli(
            ["fig1a", "--t-points", "40", "--t-lo", "0.01", "--t-hi", "1000"], capsys
        )
        assert code == EXIT_OK
        comments, header, rows = parse_csv(out)
        assert header == ["t", "qfi_product", "qfi_ghz"]
        assert len(rows) == 40
        ts = np.array([float(r[0]) for r in rows])
        prod = np.array([float(r[1]) for r in rows])
        ghz = np.array([float(r[2]) for r in rows])
        # both curves vanish at the edges of the window
        assert ghz[-1] < 1e-20 and prod[-1] < 1e-20
        assert ghz[0] < 10.0 and prod[0] < 10.0
        # entangled curve dominates the product curve at long times
        sel = ts >= 20.0
        assert np.all(prod[sel] <= ghz[sel] / 16.0 + 1e-30)

    @pytest.mark.parametrize("gamma, t_lo", [("1", "1e-300"), ("1e10", "1")])
    def test_huge_times_score_zero(self, gamma, t_lo, capsys):
        # Both QFIs have decayed to 0 at t = 1e300; the pair formula used to give NaN there, and so did the
        # product state where t rate' passes the float range (gamma = 1e10).
        args = ["fig1a", "--n", "3", "--gamma", gamma, "--t-points", "3", "--t-lo", t_lo, "--t-hi", "1e300"]
        code, out = run_cli(args, capsys)
        assert code == EXIT_OK
        _, _, rows = parse_csv(out)
        assert rows[-1][1:] == ["0", "0"]
        assert "nan" not in out

    @pytest.mark.parametrize("args, name", [(["--t-hi", "1e400"], "t_hi"), (["--t-hi", "inf"], "t_hi"), (None, "t_lo")])
    def test_infinite_time_bound_exits_config(self, args, name, tmp_path, capsys):
        if args is None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({name: math.inf}))  # JSON Infinity
            args = ["--config", str(cfg)]
        code = main(["fig1a", "--n", "3", *args])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err.startswith(f"error: {name} must be finite")

    def test_ghz_column_where_the_decay_rounds_to_one(self, capsys):
        # At gamma = 1e-200, exp(-2 G t) rounds to 1 on the whole grid: the GHZ
        # QFI is the t -> 0+ form t G'^2 / (2 G), positive and linear in t.
        args = ["fig1a", "--n", "3", "--xi", "0.5", "--gamma", "1e-200", "--t-points", "4"]
        code, out = run_cli(args, capsys)
        assert code == EXIT_OK
        _, _, rows = parse_csv(out)
        ts = np.array([float(r[0]) for r in rows])
        ghz = np.array([float(r[2]) for r in rows])
        assert np.all(ghz > 0.0)
        assert ghz / ts == pytest.approx(np.full(4, ghz[0] / ts[0]), rel=1e-15)

    def test_linear_spacing_flag(self, capsys):
        code, out = run_cli(
            ["fig1a", "--t-points", "5", "--t-lo", "1", "--t-hi", "5", "--t-linear"], capsys
        )
        _, _, rows = parse_csv(out)
        assert [float(r[0]) for r in rows] == pytest.approx([1, 2, 3, 4, 5])


def spectrum_oracle_csv(family, xi, config_line, gamma=1.0):
    """The expected ``spectrum`` CSV, built one pair at a time with the scalar decay_rate, in units of gamma."""
    n = family.n_qubits
    rows = []
    for ia in range(2**n):
        for ib in range(ia + 1, 2**n):
            pair = CoherencePair.from_indices(ia, ib, n)
            rows.append((decay_rate(family, xi, pair) * gamma, ia, ib, pair.label.replace("|", ",")))
    lines = [config_line, f"# xi: {xi:.17g}", "alpha,beta,rate"]
    lines.extend(f"{label},{rate:.17g}" for rate, _, _, label in sorted(rows))
    return "\n".join(lines) + "\n"


class TestSpectrum:
    def test_builtin_family(self, capsys):
        code, out = run_cli(["spectrum", "--family", "two", "--xi", "0.2"], capsys)
        assert code == EXIT_OK
        _, header, rows = parse_csv(out)
        assert header == ["alpha", "beta", "rate"]
        assert rows[0][:2] == ["01", "10"]
        assert float(rows[0][2]) == pytest.approx(0.4)
        assert len(rows) == 6

    def test_file_family(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("j,l,re,im\n0,0,0.5,0\n0,1,0.5,0\n1,1,0.5,0\n")
        code, out = run_cli(["spectrum", "--family", f"file:{path}", "--gamma", "1.0"], capsys)
        assert code == EXIT_OK
        _, _, rows = parse_csv(out)
        # C = all-ones: the antisymmetric pair is dark, symmetric pair decays at 4
        rates = {(r[0], r[1]): float(r[2]) for r in rows}
        assert rates[("01", "10")] == pytest.approx(0.0, abs=1e-12)
        assert rates[("00", "11")] == pytest.approx(4.0)

    @pytest.mark.parametrize(
        "family,n,xi",
        [("single", 6, 0.23), ("two", 6, 0.2)] + [("nqb", n, xi) for n in (3, 4, 5, 6) for xi in (0.01, 0.047)],
    )
    def test_matches_pair_by_pair_oracle(self, family, n, xi, capsys):
        domain = (min(1e-6, xi / 2.0), 1.0)
        constructors = {"single": build_single_qubit, "two": build_two_qubit, "nqb": lambda d: build_n_qubit(n, d)}
        fam = constructors[family](domain)
        _, out = run_cli(["spectrum", "--family", family, "--n", str(n), "--xi", repr(xi)], capsys)
        config = RunConfig(scenario="spectrum", family=family, n=n, xi=xi)
        assert out == spectrum_oracle_csv(fam, xi, config.config_line())

    def test_file_family_matches_pair_by_pair_oracle(self, tmp_path, capsys):
        # A fixed channel, so the spectrum is taken at xi = 0.
        path = tmp_path / "c.csv"
        path.write_text("j,l,re,im\n0,0,1.0,0\n0,1,0.3,0\n0,2,0.1,0\n1,1,0.9,0\n1,2,0.05,0\n2,2,1.2,0\n")
        _, out = run_cli(["spectrum", "--family", f"file:{path}", "--gamma", "0.7"], capsys)
        fam = from_spectral_density(load_spectral_csv(path, gamma_ref=0.7))
        config = RunConfig(scenario="spectrum", family=f"file:{path}", gamma=0.7)
        assert out == spectrum_oracle_csv(fam, 0.0, config.config_line(), gamma=0.7)

    def test_complex_file_family_rejected(self, tmp_path, capsys):
        # Hermitian but complex: spectrum refuses it, verify reports it.
        path = tmp_path / "c.csv"
        path.write_text("j,l,re,im\n0,0,1.0,0\n0,1,0.2,0.15\n1,1,1.0,0\n")
        code, _ = run_cli(["spectrum", "--family", f"file:{path}"], capsys)
        assert code == EXIT_CONFIG
        code, out = run_cli(["verify", "--family", f"file:{path}"], capsys)
        assert code == EXIT_TOLERANCE
        status = {r[0]: r[1] for r in parse_csv(out)[2]}
        assert status["file_family_valid"] == "FAIL"
        assert "imaginary part" in out

    def test_malformed_file_exits_config(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("j,l,re,im\n1,0,0.5,0\n")
        code, _ = run_cli(["spectrum", "--family", f"file:{path}"], capsys)
        assert code == EXIT_CONFIG

    def test_missing_file_exits_io(self, tmp_path, capsys):
        code, _ = run_cli(["spectrum", "--family", f"file:{tmp_path}/nope.csv"], capsys)
        assert code in (EXIT_CONFIG, EXIT_IO)

    @pytest.mark.parametrize("family", ["single", "two", "nqb"])
    @pytest.mark.parametrize("xi", ["5", "-1", "0", "1.5"])
    def test_builtin_family_rejects_xi_outside_its_domain(self, family, xi, capsys):
        code = main(["spectrum", "--family", family, "--n", "2", "--xi", xi])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err == f"error: xi must lie in (0, 1] for the {family} family, got {float(xi)}\n"

    def test_builtin_family_accepts_xi_one(self, capsys):
        code, out = run_cli(["spectrum", "--n", "2", "--xi", "1"], capsys)
        assert code == EXIT_OK
        assert out.splitlines()[1] == "# xi: 1"

    def test_file_family_prints_at_its_domain_point(self, tmp_path, capsys):
        # A fixed channel lives on [0, 0]; whatever --xi says, it is printed there.
        path = tmp_path / "s.csv"
        path.write_text("j,l,re,im\n0,0,0.5,0\n1,1,0.5,0\n")
        outs = [run_cli(["spectrum", "--family", f"file:{path}", "--xi", xi], capsys) for xi in ("5", "0.01")]
        for code, out in outs:
            assert code == EXIT_OK
            assert out.splitlines()[1] == "# xi: 0"
        assert outs[0][1].splitlines()[2:] == outs[1][1].splitlines()[2:]

    def test_gamma_near_the_float_limit_still_prints(self, capsys):
        code, out = run_cli(["spectrum", "--family", "two", "--gamma", "1e307"], capsys)
        assert code == EXIT_OK
        assert all(math.isfinite(float(row[2])) for row in parse_csv(out)[2])


def diagonally_dominant_file(path, n, seed):
    """A seeded real spectral-density file, PSD by diagonal dominance, whose pair rates are nearly all distinct."""
    rng = np.random.default_rng(seed)
    k = np.triu(rng.integers(-500, 501, size=(n, n)), 1)
    k = k + k.T
    diag = np.abs(k).sum(axis=1) + 100
    rows = [f"{j},{l},{int(diag[j] if j == l else k[j, l]) / 1000!r},0" for j in range(n) for l in range(j, n)]
    path.write_text("\n".join(["j,l,re,im", *rows]) + "\n")
    return path


class TestSpectrumGoldenBytes:
    # sha256 of everything after the "# config:" line, which holds the file path.
    @pytest.mark.parametrize(
        "args,digest",
        [
            (["--n", "9", "--xi", "0.047"], "d1f4ad5f26f3a08714b66db101b8920ab19e9071df606f4f966cd64d20a1e598"),
            (["--family", "two", "--xi", "0.2"], "fb278b9865285120a81a456e911a21767b48b9f41433961c411fd3ee7581bdb9"),
            (
                ["--family", "file:{random6}", "--gamma", "0.7"],
                "62e6c94c3c5aeaf644f13fb389a1f6f3e4a5d5bdc6fe3bed8ea196b10ce4cfc6",
            ),
        ],
    )
    def test_stdout_and_out_file_bytes(self, args, digest, tmp_path, capsys):
        # The n = 6 file family has 358 distinct rates over 2016 rows.
        random6 = diagonally_dominant_file(tmp_path / "c.csv", 6, 2024)
        args = ["spectrum"] + [a.format(random6=random6) for a in args]
        code, out = run_cli(args, capsys)
        assert code == EXIT_OK
        config_line, body = out.split("\n", 1)
        assert config_line == RunConfig(**json.loads(config_line.removeprefix("# config: "))).config_line()
        assert hashlib.sha256(body.encode()).hexdigest() == digest
        path = tmp_path / "spectrum.csv"
        assert run_cli(args + ["--out", str(path)], capsys) == (EXIT_OK, "")
        assert path.read_bytes() == out.encode()


class TestEstimateScenario:
    def test_deterministic_and_thread_invariant(self, capsys):
        args = ["estimate", "--n", "4", "--xi", "0.02", "--shots", "400", "--seeds", "12", "--seed", "9"]
        _, out1 = run_cli(args + ["--threads", "1"], capsys)
        _, out2 = run_cli(args + ["--threads", "1"], capsys)
        _, out3 = run_cli(args + ["--threads", "2"], capsys)
        assert out1 == out2 == out3

    def test_summary_comments_present(self, capsys):
        code, out = run_cli(
            ["estimate", "--n", "4", "--xi", "0.02", "--shots", "400", "--seeds", "8"], capsys
        )
        assert code == EXIT_OK
        comments, header, rows = parse_csv(out)
        assert any(c.startswith("# crb_std:") for c in comments)
        assert any(c.startswith("# empirical_std:") for c in comments)
        assert header == ["replicate", "seed", "xi_hat", "clamped"]
        assert len(rows) == 8

    @pytest.mark.parametrize(
        "args, n, xi, shots",
        [
            ([], 6, 0.01, 10_000),
            (["--n", "8", "--shots", "100000", "--seeds", "400", "--xi", "0.003", "--gamma", "3"], 8, 0.003, 100_000),
            (["--n", "4", "--xi", "0.2", "--gamma", "3"], 4, 0.2, 10_000),
        ],
    )
    def test_crb_std_is_the_shot_uncertainty(self, capsys, args, n, xi, shots):
        # The one Cramer-Rao scale the scenario prints: the GHZ pair's at the shot-optimal t, for any gamma.
        code, out = run_cli(["estimate"] + args, capsys)
        assert code == EXIT_OK
        expected = cli._fmt(shot_uncertainty(optimize.family_for_ratio(n, xi), xi, ghz_pair(n), shots))
        assert f"# crb_std: {expected}" in parse_csv(out)[0]

    def test_clamped_count_in_header(self, capsys):
        # Few shots at xi = 0.9 push many estimates outside the domain.
        code, out = run_cli(
            ["estimate", "--n", "3", "--xi", "0.9", "--shots", "30", "--seeds", "60", "--seed", "1"], capsys
        )
        assert code == EXIT_OK
        comments, _, rows = parse_csv(out)
        clamped = sum(r[3] == "1" for r in rows)
        assert clamped > 0
        failed_at = next(i for i, c in enumerate(comments) if c.startswith("# failed:"))
        assert comments[failed_at + 1] == f"# clamped: {clamped}"

    def test_fewer_than_two_invertible_replicates_exits_config(self, capsys):
        # One shot per replicate: replicate 0 sees a minus outcome and cannot be inverted.
        code, out = run_cli(
            ["estimate", "--n", "3", "--xi", "0.05", "--shots", "1", "--seeds", "2", "--seed", "0"], capsys
        )
        assert code == EXIT_CONFIG
        assert out == ""


class TestAdvantageScenario:
    def test_shot_row(self, capsys, shot_peak_constant):
        code, out = run_cli(["advantage", "--n", "3", "--xi", "0.01", "--regime", "shot"], capsys)
        assert code == EXIT_OK
        _, header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["entangled_probe"] == "000|111"
        assert float(row["entangled"]) == pytest.approx(shot_peak_constant / 0.01**2, rel=1e-9)
        assert float(row["ratio"]) == pytest.approx(4.0, rel=0.05)

    # Data rows of `advantage --regime shot`, recorded with the |+>^N time
    # refined by the gradient ascent and each row's value the search's own,
    # which is qfi_exact_value of its probe bit for bit.  A change that keeps
    # the arithmetic of product_qfi_value_grad and the ascent keeps them.
    GOLDEN_SHOT_ROWS = {
        ("4.7e-3", "3", 2): "2,0.0047000000000000002,shot,7329.2240594375799,3664.612029718789,2.0000000000000004,"
        "01|10,1.5707963267948966;1.5707963267948966",
        ("4.7e-3", "3", 3): "3,0.0047000000000000002,shot,7329.2240594372342,1832.3060148593067,4.0000000000000036,"
        "000|111,1.5707963267948966;1.5707963267948966;1.5707963267948966",
        ("4.7e-3", "3", 4): "4,0.0047000000000000002,shot,7329.2240594374271,916.15300742967861,7.9999999999999982,"
        "0000|1111,1.5707963267948966;1.5707963267948966;1.5707963267948966;1.5707963267948966",
        ("4.7e-3", "3", 5): "5,0.0047000000000000002,shot,7329.2240594375799,458.07650371484863,16.000000000000004,"
        "00000|11111,1.5707963267948966;1.5707963267948966;1.5707963267948966;1.5707963267948966;1.5707963267948966",
        ("0.2", "1", 2): "2,0.20000000000000001,shot,4.0475639868244695,2.0362956477593217,1.9877093934165635,"
        "01|10,1.5707963267948966;1.5707963267948966",
        ("0.2", "1", 3): "3,0.20000000000000001,shot,4.0475639868244651,1.1622754437088862,3.4824481655643185,"
        "000|111,1.5707963267948966;1.5707963267948966;1.5707963267948966",
        ("0.2", "1", 4): "4,0.20000000000000001,shot,4.0475639868244677,0.78141189665558075,5.1798085032335939,"
        "0000|1111,1.5707963267948966;1.5707963267948966;1.5707963267948966;1.5707963267948966",
        ("4.7e-3", "3", 6): "6,0.0047000000000000002,shot,7329.2240594374325,229.03825185741982,31.999999999999993,"
        "000000|111111,1.5707963267948966;1.5707963267948966;1.5707963267948966;1.5707963267948966;"
        "1.5707963267948966;1.5707963267948966",
    }

    @pytest.mark.parametrize("xi, seed, n", list(GOLDEN_SHOT_ROWS))
    def test_shot_rows_are_golden(self, xi, seed, n, capsys):
        code, out = run_cli(["advantage", "--n", str(n), "--xi", xi, "--seed", seed, "--regime", "shot"], capsys)
        assert code == EXIT_OK
        assert out.splitlines()[2:] == [self.GOLDEN_SHOT_ROWS[xi, seed, n]]

    def test_shot_row_does_not_depend_on_the_seed(self, capsys):
        # A search that ends next to pi/2 can beat the |+>^N scan by roundoff:
        # a Nelder-Mead search printed ...235296 at seed 3 against ...235266 at
        # seed 0.  Within SHOT_MARGIN of |+>^N, both seeds print its row.
        rows = []
        for seed in ("0", "3"):
            code, out = run_cli(["advantage", "--n", "3", "--xi", "0.001", "--regime", "shot", "--seed", seed], capsys)
            assert code == EXIT_OK
            rows.append(out.splitlines()[1:])
        assert rows[0] == rows[1]
        assert rows[0][1].endswith(",000|111," + ";".join(["1.5707963267948966"] * 3))

    # The whole error line: its count is of |+>^N grid points only, not of the
    # random starts scored in the same call.
    SCAN_ERRORS = {
        (3, "1e-13"): "error: the |+>^3 time scan at xi = 1e-13 scored 37 point(s) -inf, past the QFI kernel policy"
        " (derivative weight between eigenvalues <= 1e-13 of the largest): no product optimum resolved\n",
        (2, "1e-12"): "error: the |+>^2 time scan at xi = 1e-12 scored 29 point(s) -inf, past the QFI kernel policy"
        " (derivative weight between eigenvalues <= 1e-13 of the largest): no product optimum resolved\n",
    }

    @pytest.mark.parametrize("n, xi, ratio", [(3, "1e-13", None), (2, "1e-12", None), (3, "1e-12", 4.0), (2, "1e-11", 2.0)])
    def test_unresolved_plus_state_scan_exits_config(self, n, xi, ratio, capsys):
        # Below xi of about 1e-12 some |+>^N scan points are past the kernel
        # policy, and a ratio built on that scan is off by orders of magnitude
        # (3e9 to 3e11 against 2^(N-1)), so the command must stop instead.
        code = main(["advantage", "--n", str(n), "--xi", xi, "--regime", "shot"])
        captured = capsys.readouterr()
        if ratio is None:
            assert code == EXIT_CONFIG and captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert "kernel policy" in captured.err and f"xi = {xi}" in captured.err
            assert captured.err == self.SCAN_ERRORS[n, xi]
        else:
            assert code == EXIT_OK and captured.err == ""
            _, header, body = parse_csv(captured.out)
            assert float(dict(zip(header, body[0]))["ratio"]) == pytest.approx(ratio, rel=0.05)

    @pytest.mark.parametrize("args", [["advantage", "--n", "3", "--regime", "shot"], ["fig1b", "--n", "3"]])
    def test_points_scored_minus_inf_warn_once(self, args, capsys, monkeypatch):
        # The first point off |+>^N of every gradient call scores -inf (a |+>^N
        # grid point scored -inf stops the command instead, and |+>^N's rows
        # share calls with the other starts); |+>^N still wins, so the CSV and
        # exit code stay, and stderr gets one warning line.
        assert main(args) == EXIT_OK
        clean = capsys.readouterr()
        assert clean.err == ""
        scorer = optimize.product_qfi_value_grad

        def first_point_unresolved(thetas, *scorer_args):
            values, grads = scorer(thetas, *scorer_args)
            off = np.flatnonzero(~np.all(thetas == np.pi / 2.0, axis=1))
            if off.size:
                values[off[0]], grads[off[0]] = -np.inf, 0.0
            return values, grads

        monkeypatch.setattr(optimize, "product_qfi_value_grad", first_point_unresolved)
        assert main(args) == EXIT_OK
        flagged = capsys.readouterr()
        assert flagged.out == clean.out
        assert len(flagged.err.splitlines()) == 1 and flagged.err.startswith("warning: ")

    def test_gamma_scales_time_regime_optima(self, capsys):
        # The time-regime optima are rates, so they scale with gamma; their ratio does not.
        rows = []
        for gamma in ("1", "2"):
            _, out = run_cli(["advantage", "--n", "2", "--xi", "0.01", "--regime", "time", "--gamma", gamma], capsys)
            _, header, body = parse_csv(out)
            rows.append(dict(zip(header, body[0])))
        base, doubled = rows
        assert float(doubled["entangled"]) == 2.0 * float(base["entangled"])
        assert float(doubled["separable"]) == 2.0 * float(base["separable"])
        assert doubled["ratio"] == base["ratio"]



# The edge-of-range contract: every scenario at every gamma and xi of the grid
# either exits 0 with only finite numbers in its output or exits 2 with one
# error line and no output file.  n <= 3 and small arguments keep it fast.
CONTRACT_SCENARIOS = {
    "fig1a": ["fig1a", "--n", "3", "--t-points", "4"],
    "fig1b": ["fig1b", "--n", "3"],
    "closed-forms": ["closed-forms", "--n", "3"],
    "advantage-time": ["advantage", "--n", "3", "--regime", "time"],
    "advantage-shot": ["advantage", "--n", "3", "--regime", "shot"],
    "estimate": ["estimate", "--n", "3", "--shots", "100", "--seeds", "4"],
    "spectrum-nqb": ["spectrum", "--n", "3"],
    "spectrum-two": ["spectrum", "--family", "two"],
    "spectrum-file": ["spectrum", "--family", "file:{path}"],
}
CONTRACT_GAMMAS = ["1e-308", "1e-200", "1e-13", "1e13", "1e200", "1e306"]
CONTRACT_XIS = ["1e-300", "1e-12", repr(1.0 - 1e-10), "0.5"]


def run_contract(args, tmp_path, capsys):
    """``main`` on args with --out; returns (code, stderr, the output file's text or None)."""
    spectral = tmp_path / "s.csv"
    spectral.write_text("j,l,re,im\n0,0,1.0,0\n0,1,0.3,0\n0,2,0.1,0\n1,1,0.9,0\n1,2,0.05,0\n2,2,1.2,0\n")
    out_path = tmp_path / "out.csv"
    code = main([a.format(path=spectral) for a in args] + ["--out", str(out_path)])
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err, out_path.read_text() if out_path.exists() else None


def csv_numbers(text):
    """Every number of a CSV after its config line: data fields, ';'-joined lists and '# name: value' comments."""
    numbers = []
    for line in text.splitlines()[1:]:
        fields = line[2:].split(": ", 1)[1:] if line.startswith("# ") else re.split("[,;]", line)
        for field in fields:
            try:
                numbers.append(float(field))
            except ValueError:
                pass
    return numbers


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestEdgeOfRangeContract:
    @pytest.mark.parametrize("xi", CONTRACT_XIS)
    @pytest.mark.parametrize("gamma", CONTRACT_GAMMAS)
    @pytest.mark.parametrize("scenario", list(CONTRACT_SCENARIOS))
    def test_exits_0_with_finite_numbers_or_2_with_one_error_line(self, scenario, gamma, xi, tmp_path, capsys):
        args = CONTRACT_SCENARIOS[scenario] + ["--gamma", gamma, "--xi", xi]
        code, err, out = run_contract(args, tmp_path, capsys)
        if code == EXIT_OK:
            numbers = csv_numbers(out)
            assert numbers and all(math.isfinite(x) for x in numbers)
        else:
            assert code == EXIT_CONFIG, err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert out is None

    @pytest.mark.parametrize("gamma", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("scenario", list(CONTRACT_SCENARIOS))
    def test_gamma_must_be_a_positive_finite_rate(self, scenario, gamma, tmp_path, capsys):
        code, err, out = run_contract(CONTRACT_SCENARIOS[scenario] + ["--gamma", gamma], tmp_path, capsys)
        assert code == EXIT_CONFIG
        assert err == f"error: gamma must be a positive finite rate, got {float(gamma)}\n"
        assert out is None

    @pytest.mark.parametrize(
        "args, what",
        [
            (["closed-forms", "--gamma", "1e306", "--xi", "1e-3"], "the single_plus QFI"),
            (["advantage", "--n", "3", "--regime", "time", "--gamma", "1e306", "--xi", "1e-3"], "the time-regime QFIs"),
            (["estimate", "--n", "3", "--gamma", "1e-308", "--xi", "1e-12"], "the probe time t"),
            (["spectrum", "--family", "two", "--gamma", "1e308"], "a decay rate"),
        ],
    )
    def test_a_converted_value_past_the_float_range_names_gamma(self, args, what, tmp_path, capsys):
        code, err, out = run_contract(args, tmp_path, capsys)
        gamma = float(args[args.index("--gamma") + 1])
        assert (code, err, out) == (EXIT_CONFIG, f"error: gamma={gamma!r} puts {what} past the float range\n", None)

    @pytest.mark.parametrize("gamma", ["1e-308", "1e-200", "1e300"])
    def test_closed_forms_hold_at_every_gamma(self, gamma, capsys):
        code, out = run_cli(["closed-forms", "--gamma", gamma], capsys)
        assert code == EXIT_OK
        _, _, base = parse_csv(run_cli(["closed-forms"], capsys)[1])
        for row, base_row in zip(parse_csv(out)[2], base):
            assert float(row[1]) == float(base_row[1]) * float(gamma)
            assert row[3] == base_row[3]

    @pytest.mark.parametrize("gamma", ["1e-200", "1e200"])
    def test_time_ratio_is_n_at_every_gamma(self, gamma, capsys):
        code, out = run_cli(["advantage", "--n", "3", "--regime", "time", "--gamma", gamma], capsys)
        assert code == EXIT_OK
        _, header, rows = parse_csv(out)
        assert float(dict(zip(header, rows[0]))["ratio"]) == pytest.approx(3.0, rel=0.02)
        code, out = run_cli(["fig1b", "--n", "3", "--gamma", gamma], capsys)
        assert code == EXIT_OK
        assert float(parse_csv(out)[2][-1][1]) == pytest.approx(3.0, rel=0.02)

    @pytest.mark.parametrize("gamma", ["1e-160", "1e200"])
    def test_time_regime_optima_are_gamma_times_their_unit_values(self, gamma, capsys):
        rows = []
        for g in ("1", gamma):
            _, out = run_cli(["advantage", "--n", "3", "--regime", "time", "--gamma", g], capsys)
            _, header, body = parse_csv(out)
            rows.append(dict(zip(header, body[0])))
        base, scaled = rows
        for column in ("entangled", "separable"):
            assert float(scaled[column]) == float(base[column]) * float(gamma)

    @pytest.mark.parametrize("gamma", ["1e-200", "1e200"])
    def test_ratios_do_not_depend_on_gamma(self, gamma, capsys):
        def ratio_columns(args, columns):
            code, out = run_cli(args, capsys)
            assert code == EXIT_OK
            _, header, rows = parse_csv(out)
            return [[row[header.index(c)] for c in columns] for row in rows]

        for args, columns in (
            (["advantage", "--n", "3", "--regime", "time"], ["ratio"]),
            (["advantage", "--n", "3", "--regime", "shot"], ["ratio"]),
            (["fig1b", "--n", "3"], ["ratio_time", "ratio_shot"]),
        ):
            assert ratio_columns(args + ["--gamma", gamma], columns) == ratio_columns(args, columns)


class TestVerifyScenario:
    def test_rates_nonnegative_reads_the_least_class_rate(self):
        # The single-qubit rate xi at xi = 1e-3, not the zero diagonal of the dense matrix.
        result = verify.check_rates_nonnegative(verify.default_families())
        assert result.passed and result.detail == "min rate 1.000e-03"

    def test_rates_nonnegative_catches_a_broken_rate_form(self, monkeypatch):
        monkeypatch.setattr(verify, "_rate_form", lambda m, d: -evolution._rate_form(m, d))
        assert not verify.check_rates_nonnegative(verify.default_families()).passed

    # Each check below against an evolve broken by a seeded error that sits
    # between the check's bound and a bound loosened by several decades: the
    # check must fail, and the loosened bound would have passed it.  The
    # margins are the measured worst values against both bounds.
    @staticmethod
    def broken_check(monkeypatch, check, error):
        rng = np.random.default_rng(2024)

        def evolve(rho, family, xi, t):
            return error(rng, rho, family, xi, t)

        monkeypatch.setattr(verify, "evolve", evolve)
        result = check(verify.default_families(), 7)
        return result.passed, float(result.detail.rsplit(" ", 1)[1])

    def test_diagonal_preservation_catches_a_drifting_diagonal(self, monkeypatch):
        # A 1e-10 diagonal drift: the worst is 2.9e-10, 4.5 decades above the
        # bound 1e-14 and 3.5 below 1e-6.
        def error(rng, rho, family, xi, t):
            return evolution.evolve(rho, family, xi, t) + np.diag(1e-10 * rng.standard_normal(2**family.n_qubits))

        passed, worst = self.broken_check(monkeypatch, verify.check_diag_preservation, error)
        assert not passed and 1e-14 < worst <= 1e-6

    def test_semigroup_catches_a_jittered_time(self, monkeypatch):
        # Each call evolves for t (1 + u), u uniform in [0, 1e-6): the worst is
        # 4.8e-8, 4.7 decades above the bound 1e-12 and 4.3 below 1e-3.
        def error(rng, rho, family, xi, t):
            return evolution.evolve(rho, family, xi, t * (1.0 + 1e-6 * rng.random()))

        passed, worst = self.broken_check(monkeypatch, verify.check_semigroup, error)
        assert not passed and 1e-12 < worst <= 1e-3

    def test_complete_positivity_catches_a_negative_eigenvalue(self, monkeypatch):
        # Adds 1e-4 times a random Hermitian matrix of spectral norm 1: the
        # least eigenvalue is -4.1e-5, 3.6 decades below the floor -1e-8 and
        # 2.4 above -1e-2.
        def error(rng, rho, family, xi, t):
            dim = 2**family.n_qubits
            h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            h += h.conj().T
            return evolution.evolve(rho, family, xi, t) + 1e-4 * h / np.linalg.norm(h, 2)

        passed, least = self.broken_check(monkeypatch, verify.check_complete_positivity, error)
        assert not passed and -1e-2 <= least < -1e-8

    def test_all_pass(self, capsys):
        code, out = run_cli(["verify"], capsys)
        assert code == EXIT_OK
        _, header, rows = parse_csv(out)
        assert header == ["property", "status", "detail"]
        assert all(r[1] == "PASS" for r in rows)

    def test_bad_file_family_reports_hermiticity_failure(self, tmp_path, capsys):
        path = tmp_path / "skew.csv"
        path.write_text("j,l,re,im\n0,0,1.0,0.25\n1,1,1.0,0\n")
        code, out = run_cli(["verify", "--family", f"file:{path}"], capsys)
        assert code == EXIT_TOLERANCE
        _, _, rows = parse_csv(out)
        status = {r[0]: r[1] for r in rows}
        assert status["file_family_valid"] == "FAIL"
        assert "Hermitian" in out


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"xi": 0.05, "n": 4}))
        code, out = run_cli(["closed-forms", "--config", str(cfg), "--xi", "0.1"], capsys)
        assert code == EXIT_OK
        config = json.loads(out.splitlines()[0].removeprefix("# config: "))
        assert config["xi"] == 0.1  # flag wins
        assert config["n"] == 4  # file value survives

    def test_unknown_config_field_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mystery": 1}))
        code, _ = run_cli(["closed-forms", "--config", str(cfg)], capsys)
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "scenario, loaded, name",
        [
            ("advantage", {"n": "3"}, "n"),
            ("advantage", {"xi": "0.1"}, "xi"),
            ("estimate", {"seeds": 2.5}, "seeds"),
            ("fig1a", {"t_log": "no"}, "t_log"),
        ],
    )
    def test_config_field_of_wrong_type_exits_config(self, tmp_path, capsys, scenario, loaded, name):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(loaded))
        code = main([scenario, "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert repr(name) in captured.err

    @pytest.mark.parametrize(
        "scenario, name",
        [("closed-forms", "gamma"), ("advantage", "xi"), ("fig1a", "t_lo"), ("fig1a", "t_hi")],
    )
    def test_float_field_past_the_float_range_exits_config(self, tmp_path, capsys, scenario, name):
        # JSON reads 10**400 as an int: admitted for a float field, but no float holds it.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({name: 10**400}))
        code = main([scenario, "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err == f"error: config file {cfg}: field {name!r} is past the float range\n"

    def test_integer_past_the_digit_limit_exits_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n": 1' + "0" * 5000 + "}")
        code = main(["closed-forms", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err.startswith(f"error: config file {cfg}: invalid JSON")
        assert captured.err.count("\n") == 1

    def test_integer_float_field_keeps_its_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 2}))
        code, out = run_cli(["closed-forms", "--config", str(cfg)], capsys)
        assert code == EXIT_OK
        assert '"gamma":2,' in out.splitlines()[0]

    def test_memory_error_exits_config(self, monkeypatch, capsys):
        # Exit code 1 is a tolerance breach; running out of memory is a configuration error.
        message = "Unable to allocate 8.00 TiB for an array with shape (1048576, 1048576)"

        def out_of_memory(config):
            raise MemoryError(message)

        monkeypatch.setitem(cli.SCENARIOS, "fig1a", cli.SCENARIOS["fig1a"]._replace(run=out_of_memory))
        code = main(["fig1a", "--n", "20"])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err == f"error: out of memory: {message}\n"

    @pytest.mark.parametrize("name", list(cli.SCENARIOS))
    def test_main_runs_the_scenario_it_names(self, name, monkeypatch, capsys):
        # main dispatches through SCENARIOS: replacing an entry's runner replaces what runs.
        seen = []

        def stub(config):
            seen.append(config.scenario)
            return ["# stub", "a,b", "1,2"], EXIT_TOLERANCE

        monkeypatch.setitem(cli.SCENARIOS, name, cli.SCENARIOS[name]._replace(run=stub))
        code, out = run_cli([name], capsys)
        assert code == EXIT_TOLERANCE
        assert seen == [name]
        assert out == "# stub\na,b\n1,2\n"

    def test_fig1b_beyond_search_guard_rejected_before_work(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "advantage_ratio", lambda *args, **kwargs: calls.append(args))
        code = main(["fig1b", "--n", str(cli.PRODUCT_MAX_QUBITS + 1)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert calls == []
        assert captured.out == "" and captured.err.startswith("error: fig1b")

    def test_invalid_xi_rejected(self, capsys):
        code, _ = run_cli(["closed-forms", "--xi", "1.5"], capsys)
        assert code == EXIT_CONFIG

    def test_stdout_write_error_names_stdout(self, monkeypatch, capsys):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["closed-forms"])
        assert code == EXIT_IO
        assert capsys.readouterr().err == "i/o error writing <stdout>: [Errno 32] Broken pipe\n"

    def test_out_file_written(self, tmp_path, capsys):
        out_path = tmp_path / "table.csv"
        code, _ = run_cli(["closed-forms", "--xi", "0.1", "--out", str(out_path)], capsys)
        assert code == EXIT_OK
        assert out_path.read_text().startswith("# config: ")

    def test_seventeen_digit_floats(self, capsys):
        _, out = run_cli(["spectrum", "--family", "two", "--xi", "0.2"], capsys)
        # 0.4 has no exact binary representation; 17 significant digits round-trip
        assert "0.39999999999999991" in out


class TestByteStability:
    def test_fig1a_threads_and_reruns(self, tmp_path, capsys):
        args = ["fig1a", "--t-points", "16", "--n", "4"]
        outs = []
        for threads in ("1", "2", "1"):
            path = tmp_path / f"f{len(outs)}.csv"
            code, _ = run_cli(args + ["--threads", threads, "--out", str(path)], capsys)
            assert code == EXIT_OK
            outs.append(path.read_bytes())
        assert outs[0] == outs[1] == outs[2]


# Runs in a fresh interpreter where every scipy import raises ImportError, and
# prints each scenario's exit code and stdout as JSON.
_NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
from corrnoise.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    results.append([code, buf.getvalue()])
assert sys.modules["scipy"] is None
print(json.dumps(results))
"""


_IMPORT_SCRIPT = """
import sys
import numpy
before = set(sys.modules)
import corrnoise, corrnoise.cli
print(sorted(set(sys.argv[1:]) & (set(sys.modules) - before)))
"""


def test_importing_cli_leaves_verify_unloaded():
    # closed-forms and verify import corrnoise.verify when they run; every
    # other scenario runs without compiling it.  The stdlib modules that only
    # rare paths use (the state hash, the file family's CSV reader) are
    # imported there, so a scenario's process does not load them either.
    src = str(Path(__file__).resolve().parents[1] / "src")
    rare = ["corrnoise.verify", "hashlib", "csv", "fractions", "decimal"]
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_SCRIPT, *rare],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


class TestParserParity:
    """``main`` parses with its scenario's parser alone; help, errors and exit codes stay the full parser's."""

    CASES = [["--help"], ["--bogus"], ["--n", "x"], ["--regime", "foo"], ["--t-linear"]]
    TOP_LEVEL = [["-h"], [], ["bogus"], ["--xi", "0.1", "advantage"]]
    # The argv shapes perfbench/workloads.py passes to main.
    PERFBENCH_ARGVS = [
        ["advantage", "--n", "5", "--xi", "0.0123", "--regime", "time", "--threads", "1", "--seed", "17"],
        ["advantage", "--n", "2", "--xi", "0.002", "--regime", "shot", "--threads", "2", "--seed", "4"],
        ["spectrum", "--n", "9", "--xi", "0.0371"],
        ["estimate", "--n", "8", "--shots", "100000", "--seeds", "400", "--threads", "2", "--xi", "4e-3", "--seed", "3"],
    ]

    @pytest.fixture
    def without_full_parser(self, monkeypatch):
        """``main``'s cached full parser fails when built; ``cli.build_parser`` still builds one."""

        def unused():
            raise AssertionError("a scenario argv built the full parser")

        monkeypatch.setattr(cli, "_full_parser", unused)

    @staticmethod
    def outcome(call, argv, capsys):
        """(exit code or None, what the call returned, stdout, stderr)."""
        code = result = None
        try:
            result = call(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, result, captured.out, captured.err

    @pytest.mark.parametrize("case", CASES, ids=" ".join)
    @pytest.mark.parametrize("scenario", list(cli.SCENARIOS))
    def test_scenario_argv_matches_the_full_parser(self, scenario, case, capsys):
        argv = [scenario, *case]
        expected = self.outcome(cli.build_parser().parse_args, argv, capsys)
        if expected[0] is not None:
            assert self.outcome(main, argv, capsys) == expected
        else:
            # fig1a --t-linear parses: the same namespace, and nothing printed.
            assert self.outcome(cli._parse_args, argv, capsys) == expected

    # Each scenario argv above that exits: all but fig1a --t-linear.
    EXITING = [[s, *c] for s, c in itertools.product(cli.SCENARIOS, CASES) if [s, *c] != ["fig1a", "--t-linear"]]

    @pytest.mark.parametrize("argv", EXITING, ids=" ".join)
    def test_scenario_parser_exits_as_the_full_parser_alone(self, argv, capsys, without_full_parser):
        # Help and every error: the scenario's parser prints what the full parser would, with no second parse.
        expected = self.outcome(cli.build_parser().parse_args, argv, capsys)
        assert self.outcome(main, argv, capsys) == expected

    @pytest.mark.parametrize("argv", TOP_LEVEL, ids=" ".join)
    def test_top_level_argv_matches_the_full_parser(self, argv, capsys):
        expected = self.outcome(cli.build_parser().parse_args, argv, capsys)
        assert expected[0] is not None
        assert self.outcome(main, argv, capsys) == expected

    def test_benchmark_argvs_parse_to_the_same_config_without_the_full_parser(self, without_full_parser):
        full = cli.build_parser()
        for argv in self.PERFBENCH_ARGVS:
            assert cli._merge_config(cli._parse_args(argv)) == cli._merge_config(full.parse_args(argv)), argv


class TestNumpyOnlyRuntime:
    ARGVS = [
        ["advantage", "--n", "3", "--regime", "shot"],
        ["fig1b", "--n", "3"],
        ["estimate", "--n", "3", "--seeds", "20", "--shots", "1000"],
        ["fig1a", "--n", "3", "--t-points", "5"],
        ["closed-forms"],
        ["spectrum", "--n", "3"],
        ["verify"],
    ]

    def test_scenarios_run_without_scipy(self, capsys):
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", _NO_SCIPY_SCRIPT, json.dumps(self.ARGVS)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        results = json.loads(proc.stdout)
        for argv, (code, out) in zip(self.ARGVS, results):
            assert code == EXIT_OK, argv
            assert out == run_cli(argv, capsys)[1], argv
