import json

import numpy as np
import pytest

from corrnoise.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_TOLERANCE, RunConfig, main
from corrnoise.evolution import CoherencePair, decay_rate
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

    def test_linear_spacing_flag(self, capsys):
        code, out = run_cli(
            ["fig1a", "--t-points", "5", "--t-lo", "1", "--t-hi", "5", "--t-linear"], capsys
        )
        _, _, rows = parse_csv(out)
        assert [float(r[0]) for r in rows] == pytest.approx([1, 2, 3, 4, 5])


def spectrum_oracle_csv(family, xi, config_line):
    """The expected ``spectrum`` CSV, built one pair at a time with the scalar decay_rate."""
    n = family.n_qubits
    rows = []
    for ia in range(2**n):
        for ib in range(ia + 1, 2**n):
            pair = CoherencePair.from_indices(ia, ib, n)
            rows.append((decay_rate(family, xi, pair), ia, ib, pair.label.replace("|", ",")))
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
        # Complex off-diagonals; a fixed channel, so the spectrum is taken at xi = 0.
        path = tmp_path / "c.csv"
        path.write_text("j,l,re,im\n0,0,1.0,0\n0,1,0.3,0.2\n0,2,0.1,-0.25\n1,1,0.9,0\n1,2,0.05,0.4\n2,2,1.2,0\n")
        _, out = run_cli(["spectrum", "--family", f"file:{path}", "--gamma", "0.7"], capsys)
        fam = from_spectral_density(load_spectral_csv(path, gamma_ref=0.7))
        config = RunConfig(scenario="spectrum", family=f"file:{path}", gamma=0.7)
        assert out == spectrum_oracle_csv(fam, 0.0, config.config_line())

    def test_malformed_file_exits_config(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("j,l,re,im\n1,0,0.5,0\n")
        code, _ = run_cli(["spectrum", "--family", f"file:{path}"], capsys)
        assert code == EXIT_CONFIG

    def test_missing_file_exits_io(self, tmp_path, capsys):
        code, _ = run_cli(["spectrum", "--family", f"file:{tmp_path}/nope.csv"], capsys)
        assert code in (EXIT_CONFIG, EXIT_IO)


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


class TestAdvantageScenario:
    def test_shot_row(self, capsys, shot_peak_constant):
        code, out = run_cli(["advantage", "--n", "3", "--xi", "0.01", "--regime", "shot"], capsys)
        assert code == EXIT_OK
        _, header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["entangled_probe"] == "000|111"
        assert float(row["entangled"]) == pytest.approx(shot_peak_constant / 0.01**2, rel=1e-9)
        assert float(row["ratio"]) == pytest.approx(4.0, rel=0.05)


class TestVerifyScenario:
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

    def test_invalid_xi_rejected(self, capsys):
        code, _ = run_cli(["closed-forms", "--xi", "1.5"], capsys)
        assert code == EXIT_CONFIG

    def test_env_thread_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("CORRNOISE_THREADS", "2")
        code, _ = run_cli(["closed-forms", "--xi", "0.1"], capsys)
        assert code == EXIT_OK
        monkeypatch.setenv("CORRNOISE_THREADS", "zebra")
        code, _ = run_cli(["closed-forms", "--xi", "0.1"], capsys)
        assert code == EXIT_CONFIG

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
