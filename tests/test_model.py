import numpy as np
import pytest

from corrnoise.model import (
    DephasingFamily,
    FamilyValidationError,
    SpectralData,
    build_n_qubit,
    build_single_qubit,
    build_two_qubit,
    from_spectral_density,
    load_spectral_csv,
)
from conftest import with_perturbation

DOMAIN = (0.1, 1.0)


class TestSingleQubit:
    def test_coefficient_is_xi(self):
        fam = build_single_qubit(DOMAIN)
        assert fam.n_qubits == 1
        assert fam.coefficient_matrix(0.5) == pytest.approx(np.array([[0.5]]))

    def test_psd_at_domain_edge(self):
        fam = build_single_qubit(DOMAIN)
        assert np.linalg.eigvalsh(fam.coefficient_matrix(0.1))[0] >= 0.0

    def test_nonpositive_domain_rejected(self):
        with pytest.raises(FamilyValidationError):
            build_single_qubit((-0.1, 1.0))
        with pytest.raises(FamilyValidationError):
            build_single_qubit((0.0, 1.0))


class TestTwoQubit:
    def test_matrix_at_xi(self):
        fam = build_two_qubit(DOMAIN)
        expected = np.array([[1.0, 0.8], [0.8, 1.0]])
        assert fam.coefficient_matrix(0.2) == pytest.approx(expected)

    def test_uncorrelated_limit(self):
        fam = build_two_qubit(DOMAIN)
        assert fam.coefficient_matrix(1.0) == pytest.approx(np.eye(2))

    def test_eigenvalues_closed_form(self):
        # 2x2 oracle: symmetric [[1, c], [c, 1]] has eigenvalues 1 +/- c.
        fam = build_two_qubit(DOMAIN)
        xi = 0.2
        got = np.sort(np.linalg.eigvalsh(fam.coefficient_matrix(xi)))
        assert got == pytest.approx([1.0 - (1.0 - xi), 1.0 + (1.0 - xi)])
        assert got == pytest.approx([0.2, 1.8])

    def test_domain_outside_unit_interval_rejected(self):
        with pytest.raises(FamilyValidationError):
            build_two_qubit((0.1, 1.5))
        with pytest.raises(FamilyValidationError):
            build_two_qubit((-0.2, 0.5))


class TestNQubit:
    def test_two_qubit_instance_formula(self):
        fam = build_n_qubit(2, DOMAIN)
        xi = 0.3
        expected = np.array(
            [[(1 + xi) / 2, -(1 - xi) / 2], [-(1 - xi) / 2, (1 + xi) / 2]]
        )
        assert fam.coefficient_matrix(xi) == pytest.approx(expected)

    def test_eigenvalues_rank_one_perturbation(self):
        # Dense-eigensolver oracle: identity minus rank-1 gives {xi, 1, ..., 1}.
        fam = build_n_qubit(4, (1e-6, 1.0))
        got = np.sort(np.linalg.eigvalsh(fam.coefficient_matrix(0.01)))
        assert got == pytest.approx([0.01, 1.0, 1.0, 1.0])

    def test_boundary_probe_stays_psd(self):
        fam = build_n_qubit(6, (1e-6, 1.0))
        lam = np.linalg.eigvalsh(fam.coefficient_matrix(1e-6))[0]
        assert lam == pytest.approx(1e-6, abs=1e-12)
        assert lam >= -1e-10

    def test_small_n_rejected(self):
        with pytest.raises(FamilyValidationError):
            build_n_qubit(1, DOMAIN)

    def test_odd_n_accepted(self):
        for n in (3, 5):
            fam = build_n_qubit(n, DOMAIN)
            assert fam.n_qubits == n


class TestSpectralDensity:
    def test_identity_spectrum(self):
        gamma = 2.0
        data = SpectralData(2, (gamma / 2.0) * np.eye(2), gamma)
        fam = from_spectral_density(data)
        assert fam.coefficient_matrix(0.0) == pytest.approx(np.eye(2))

    def test_all_ones_matches_two_qubit_at_zero(self):
        # Substitution oracle: S = (gamma/2) * J gives C = J, the two-qubit
        # family evaluated at xi = 0.
        gamma = 1.0
        data = SpectralData(2, (gamma / 2.0) * np.ones((2, 2)), gamma)
        fam = from_spectral_density(data)
        two = build_two_qubit(DOMAIN)
        assert fam.coefficient_matrix(0.0) == pytest.approx(two.c0)

    def test_negative_eigenvalue_rejected(self):
        s = np.diag([1.0, -1e-3])
        with pytest.raises(FamilyValidationError):
            SpectralData(2, s, 1.0)

    def test_roundtrip_is_identity(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(3, 3))
        c = a @ a.T  # real symmetric PSD
        gamma = 0.7
        fam = from_spectral_density(SpectralData(3, (gamma / 2.0) * c, gamma))
        assert np.max(np.abs(fam.coefficient_matrix(0.0) - c)) < 1e-12


class TestWithPerturbation:
    def test_reconstructs_two_qubit_family(self):
        base = from_spectral_density(SpectralData(2, 0.5 * np.ones((2, 2)), 1.0))
        fam = with_perturbation(base, np.eye(2) - np.ones((2, 2)), (1e-4, 1.0))
        two = build_two_qubit((1e-4, 1.0))
        for xi in (1e-4, 0.3, 1.0):
            assert fam.coefficient_matrix(xi) == pytest.approx(two.coefficient_matrix(xi))

    def test_non_hermitian_rejected(self):
        base = build_two_qubit(DOMAIN)
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(FamilyValidationError):
            with_perturbation(base, bad, DOMAIN)

    def test_zero_perturbation_allowed(self):
        fam = with_perturbation(build_two_qubit(DOMAIN), np.zeros((2, 2)), DOMAIN)
        assert np.all(fam.delta_c == 0)

    def test_psd_violation_reports_xi_and_eigenvalue(self):
        base = build_two_qubit((0.1, 1.0))
        with pytest.raises(FamilyValidationError, match="xi=0.1") as err:
            with_perturbation(base, -10.0 * np.eye(2), (0.1, 1.0))
        assert "eigenvalue" in str(err.value)


class TestFamilyInvariants:
    @pytest.mark.parametrize(
        "fam",
        [
            build_single_qubit((1e-6, 1.0)),
            build_two_qubit((1e-6, 1.0)),
            build_n_qubit(3, (1e-6, 1.0)),
            build_n_qubit(6, (1e-6, 1.0)),
        ],
        ids=["single", "two", "nqb3", "nqb6"],
    )
    def test_psd_on_sixteen_point_grid(self, fam):
        lo, hi = fam.xi_domain
        for xi in np.linspace(lo, hi, 16):
            assert fam.min_eigenvalue(float(xi)) >= -1e-10

    def test_two_qubit_and_n_qubit_differ_literally(self):
        # The two parametrizations are distinct matrices; each is asserted
        # against its own formula, not against the other.
        xi = 0.3
        two = build_two_qubit(DOMAIN).coefficient_matrix(xi)
        nqb = build_n_qubit(2, DOMAIN).coefficient_matrix(xi)
        assert two == pytest.approx(1.0 - xi * (1.0 - np.eye(2)))
        assert nqb == pytest.approx(np.eye(2) - (1.0 - xi) / 2.0)
        assert np.max(np.abs(two - nqb)) > 0.1

    def test_coefficients_past_the_float_range_rejected(self):
        # 2 N^2 max|C| must be finite: 2 * 1 * 1e307 is, 2 * 1 * 1e308 is not, nor is file input reaching it.
        assert DephasingFamily(1, np.zeros((1, 1)), np.full((1, 1), 1e307), (0.1, 1.0)).delta_c[0, 0] == 1e307
        with pytest.raises(FamilyValidationError, match="2 N\\^2 max\\|C\\| overflows"):
            DephasingFamily(1, np.zeros((1, 1)), np.full((1, 1), 1e308), (0.1, 1.0))
        with pytest.raises(FamilyValidationError, match="2 N\\^2 max\\|C\\| overflows"):
            from_spectral_density(SpectralData(2, 5e307 * np.eye(2), 1.0))

    def test_hermiticity_tolerance(self):
        skew = np.array([[1.0, 1e-11], [0.0, 1.0]])
        with pytest.raises(FamilyValidationError):
            DephasingFamily(2, skew, np.zeros((2, 2)), (0.1, 1.0))


class TestFamilyIdentity:
    def test_equal_content_compares_and_hashes_equal(self):
        a, b = build_n_qubit(3, DOMAIN), build_n_qubit(3, DOMAIN)
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_different_content_compares_unequal(self):
        base = build_n_qubit(3, DOMAIN)
        assert base != build_n_qubit(3, (0.2, 1.0))
        assert base != DephasingFamily(3, 2.0 * base.c0, 2.0 * base.delta_c, DOMAIN)
        assert base != with_perturbation(base, 2.0 * base.delta_c, DOMAIN)
        assert base != build_n_qubit(4, DOMAIN)
        assert base != "nqb3"


class TestSpectralCsv:
    def _write(self, tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_text(text)
        return path

    def test_upper_triangle_parse(self, tmp_path):
        path = self._write(tmp_path, "j,l,re,im\n0,0,0.5,0\n0,1,0.1,0\n1,1,0.5,0\n")
        data = load_spectral_csv(path, gamma_ref=1.0)
        expected = np.array([[0.5, 0.1], [0.1, 0.5]])
        assert data.s_zero == pytest.approx(expected)

    def test_imaginary_off_diagonal_rejected(self, tmp_path):
        # Hermitian, but Im S adds a coherent term corrnoise does not model.
        path = self._write(tmp_path, "j,l,re,im\n0,0,0.5,0\n0,1,0.1,0.2\n1,1,0.5,0\n")
        with pytest.raises(FamilyValidationError, match="imaginary part"):
            load_spectral_csv(path, gamma_ref=1.0)

    def test_unlisted_entries_default_to_zero(self, tmp_path):
        path = self._write(tmp_path, "j,l,re,im\n0,0,1.0,0\n2,2,1.0,0\n")
        data = load_spectral_csv(path, gamma_ref=1.0)
        assert data.n_qubits == 3
        assert data.s_zero[1, 1] == 0.0

    def test_lower_triangle_rejected(self, tmp_path):
        path = self._write(tmp_path, "j,l,re,im\n1,0,0.1,0\n")
        with pytest.raises(FamilyValidationError, match="lower-triangle"):
            load_spectral_csv(path, gamma_ref=1.0)

    def test_duplicate_key_rejected(self, tmp_path):
        path = self._write(tmp_path, "j,l,re,im\n0,0,1,0\n0,0,2,0\n")
        with pytest.raises(FamilyValidationError, match="duplicate"):
            load_spectral_csv(path, gamma_ref=1.0)

    def test_bad_header_rejected(self, tmp_path):
        path = self._write(tmp_path, "a,b,c,d\n0,0,1,0\n")
        with pytest.raises(FamilyValidationError, match="header"):
            load_spectral_csv(path, gamma_ref=1.0)

    def test_imaginary_diagonal_breaks_hermiticity(self, tmp_path):
        path = self._write(tmp_path, "j,l,re,im\n0,0,1.0,0.5\n1,1,1.0,0\n")
        with pytest.raises(FamilyValidationError, match="Hermitian"):
            load_spectral_csv(path, gamma_ref=1.0)
