import math

import numpy as np
import pytest

from corrnoise import optimize
from corrnoise import qfi
from corrnoise.cli import main
from corrnoise.evolution import (
    CoherencePair,
    ProductState,
    ghz_pair,
    index_from_pattern,
    pair_density,
    plus_product,
    random_pure_density,
)
from corrnoise.evolution import _class_rates
from corrnoise.model import DephasingFamily, build_n_qubit, build_single_qubit, build_two_qubit
from corrnoise.optimize import (
    GRID_POINTS,
    _fold_theta,
    advantage_ratio,
    default_time_bracket,
    maximize_over_time,
    nelder_mead_max,
    optimal_coherence_pair,
    optimal_product_state,
)
from corrnoise.qfi import (
    REGIMES,
    DivergentQfiError,
    coherence_pair_qfi_shot,
    coherence_pair_qfi_shot_peak,
    qfi_exact_value,
    richardson_limit,
    time_averaged_qfi_limit,
)
from conftest import coherence_pair_qfi_timeavg, with_perturbation

DOMAIN = (1e-6, 1.0)


class TestMaximizeOverTime:
    def test_pair_shot_peak_location(self, x_star):
        # bisection oracle: optimum of t^2 e^{-2Gt}/(1-e^{-2Gt}) sits at x*/G
        g, gp = 0.06, 6.0

        def eval_fn(t):
            return t * t * gp * gp * math.exp(-2 * g * t) / (1 - math.exp(-2 * g * t))

        t_star, value = maximize_over_time(eval_fn, (1e-2, 1e3))
        assert t_star == pytest.approx(x_star / g, rel=1e-5)
        assert t_star == pytest.approx(13.280, abs=2e-3)
        assert value == pytest.approx(eval_fn(x_star / g), rel=1e-9)

    def test_monotone_decreasing_picks_left_edge(self):
        t_star, value = maximize_over_time(lambda t: 1.0 / t, (0.5, 50.0))
        assert t_star == 0.5
        assert value == pytest.approx(2.0)

    def test_constant_zero(self):
        t_star, value = maximize_over_time(lambda t: 0.0, (0.1, 10.0))
        assert value == 0.0

    def test_degenerate_bracket_rejected(self):
        with pytest.raises(ValueError):
            maximize_over_time(lambda t: t, (1.0, 1.0))
        with pytest.raises(ValueError):
            maximize_over_time(lambda t: t, (0.0, 1.0))


class TestNelderMead:
    def test_quadratic_bowl(self):
        x, val, converged, _ = nelder_mead_max(lambda z: -np.sum((z - 1.3) ** 2), np.zeros(3))
        assert converged
        # value-spread termination at 1e-10 bounds the position to ~1e-5
        assert x == pytest.approx(np.full(3, 1.3), abs=1e-4)
        assert val == pytest.approx(0.0, abs=1e-9)


class TestSearchesMatchTheirLoopOracles:
    """Each one-start search makes exactly the moves of its textbook loop."""

    @pytest.mark.parametrize("fn, x0s, shrinks, capped", [
        # Under a 100-iteration cap, start 0 takes a shrink step and start 4 stops unconverged.
        (
            lambda x: -((1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2) - np.floor(np.abs(x)).sum(),
            [[1.6, 1.1], [0.4, 0.9], [-1.0, -0.8], [1.3, -1.6], [0.2, -1.4]],
            0,
            4,
        ),
        # A staircase: ties between simplex values, a shrink from start 0, and start 1 converges at once on a tread.
        (lambda x: -np.floor(np.abs(x)).sum(), [[-1.46, 0.886], [3.2, 3.2], [0.101, -0.759], [1.736, -0.569]], 0, None),
    ], ids=["rosenbrock-staircase", "staircase"])
    def test_nelder_mead_equals_textbook_loop(self, fn, x0s, shrinks, capped, monkeypatch):
        monkeypatch.setattr(optimize, "NM_MAX_ITER", 100)
        oracle = [textbook_nelder_mead(fn, x0) for x0 in x0s]
        for x0, (x_o, f_o, conv_o, n_eval_o, _) in zip(x0s, oracle):
            x, f, conv, n_eval = nelder_mead_max(fn, np.array(x0))
            assert (x.tobytes(), f, conv, n_eval) == (x_o.tobytes(), f_o, conv_o, n_eval_o)
            assert (type(f), type(conv), type(n_eval)) == (float, bool, int)
        assert oracle[shrinks][4] > 0 and oracle[shrinks][2]
        assert [k for k, o in enumerate(oracle) if not o[2]] == ([] if capped is None else [capped])

    def test_time_scan_equals_textbook_loop(self):
        # The 64 grid points, the first two golden-section points, then one point a round.
        bracket, calls = (1e-2, 1e3), [92, 91, 93, 93, 93, 92]
        fns = [
            lambda t: 1.0 / t,
            lambda t: math.log(t),
            lambda t: t * t * math.exp(-0.12 * t) / (1.0 - math.exp(-0.12 * t)),
            lambda t: math.sin(math.log(t)) ** 2,
            lambda t: min(t, 1.0),
            lambda t: 0.0,
        ]
        for fn, expected_calls in zip(fns, calls):
            ts = []

            def counted(t):
                ts.append(t)
                return fn(t)

            assert maximize_over_time(counted, bracket) == textbook_time_scan(fn, bracket)
            assert len(ts) == expected_calls
        grid = np.geomspace(*bracket, GRID_POINTS)
        assert [int(np.argmax([fns[k](t) for t in grid])) for k in (0, 1)] == [0, GRID_POINTS - 1]


def exhaustive_pair_optimum(family, xi, regime, shot_peak):
    """Loop oracle: score all 4^N/2 canonical pairs, the first maximum wins."""
    n = family.n_qubits
    coeff, delta = family.coefficient_matrix(xi), family.delta_c
    best = (-1.0, None, None)
    for ia in range(2**n):
        for ib in range(ia + 1, 2**n):
            pair = CoherencePair.from_indices(ia, ib, n)
            d = [a - b for a, b in zip(pair.alpha, pair.beta)]
            g = 0.25 * sum(coeff[j, l] * d[j] * d[l] for j in range(n) for l in range(n)).real
            gp = 0.25 * sum(delta[j, l] * d[j] * d[l] for j in range(n) for l in range(n)).real
            if gp == 0.0:
                value = 0.0
            elif regime == "time":
                value = gp * gp / (2.0 * g)
            else:
                value = (gp / g) ** 2 * shot_peak
            if value > best[0]:
                best = (value, pair, g)
    return best


class TestOptimalCoherencePair:
    @pytest.mark.parametrize("regime", ["time", "shot"])
    def test_matches_exhaustive_pair_loop(self, regime, shot_peak_constant, x_star, random_real_family):
        fams = [build_single_qubit(DOMAIN), build_two_qubit(DOMAIN)]
        fams += [build_n_qubit(n, DOMAIN) for n in range(2, 7)]
        fams += [random_real_family(n, 40 + n) for n in range(2, 7)]
        for fam in fams:
            for xi in (0.01, 0.3):
                value, pair, g = exhaustive_pair_optimum(fam, xi, regime, shot_peak_constant)
                best = optimal_coherence_pair(fam, xi, regime)
                assert best.probe == pair
                assert best.value == pytest.approx(value, rel=1e-12)
                expected_time = 0.0 if regime == "time" or value == 0.0 else x_star / g
                assert best.time == pytest.approx(expected_time, rel=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_qubit_relabelling_maps_the_pair(self, n, random_real_family):
        # Relabel the qubits by a permutation P: the family becomes (P C0 P^T,
        # P dC P^T).  In both regimes the optimum keeps its value and time, and
        # the reported pair, mapped back by P^-1, is the original report.
        # Measured maxima over these cases: value 6.6e-16 relative, time 2.5e-16.
        rng = np.random.default_rng(110 + n)
        for fam_seed in range(6):
            fam = random_real_family(n, fam_seed)
            perm = rng.permutation(n)
            back = np.argsort(perm)
            relabelled = DephasingFamily(
                n, fam.c0[np.ix_(perm, perm)], fam.delta_c[np.ix_(perm, perm)], fam.xi_domain
            )
            for xi in (0.05, 0.5):
                for regime in ("time", "shot"):
                    best = optimal_coherence_pair(fam, xi, regime)
                    moved = optimal_coherence_pair(relabelled, xi, regime)
                    pair = moved.probe
                    indices = sorted(index_from_pattern(np.array(p)[back]) for p in (pair.alpha, pair.beta))
                    assert CoherencePair.from_indices(*indices, n) == best.probe
                    assert abs(moved.value - best.value) <= 1e-14 * best.value
                    assert abs(moved.time - best.time) <= 1e-14 * best.time

    def test_zero_perturbation_picks_first_pair(self):
        fam = with_perturbation(build_n_qubit(3, DOMAIN), np.zeros((3, 3)), (0.1, 0.9))
        for regime in ("time", "shot"):
            best = optimal_coherence_pair(fam, 0.5, regime)
            assert best.probe == CoherencePair.from_indices(0, 1, 3)
            assert best.value == 0.0 and best.time == 0.0

    def test_dark_class_reported_divergent(self):
        fam = DephasingFamily(2, np.zeros((2, 2)), np.eye(2), (0.0, 1.0))
        for regime in ("time", "shot"):
            with pytest.raises(DivergentQfiError):
                optimal_coherence_pair(fam, 0.0, regime)

    def test_two_qubit_time_regime(self):
        fam = build_two_qubit(DOMAIN)
        xi = 0.1
        best = optimal_coherence_pair(fam, xi, "time")
        assert best.probe == CoherencePair((1, -1), (-1, 1))
        assert best.value == pytest.approx(1.0 / xi, rel=1e-12)
        assert best.regime == "time"

    def test_n4_time_regime(self):
        fam = build_n_qubit(4, DOMAIN)
        best = optimal_coherence_pair(fam, 0.1, "time")
        assert best.probe == ghz_pair(4)
        assert best.value == pytest.approx(2.0 / 0.1, rel=1e-12)

    def test_n6_shot_regime(self, shot_peak_constant, x_star):
        fam = build_n_qubit(6, DOMAIN)
        xi = 0.01
        best = optimal_coherence_pair(fam, xi, "shot")
        assert best.probe == ghz_pair(6)
        assert best.value == pytest.approx(shot_peak_constant / xi**2, rel=1e-12)
        assert best.value == pytest.approx(1619.0, abs=1.0)
        assert best.time == pytest.approx(x_star / (6 * xi), rel=1e-9)

    def test_matches_closed_forms_per_pair(self):
        fam = build_two_qubit(DOMAIN)
        xi = 0.2
        best = optimal_coherence_pair(fam, xi, "time")
        for ia in range(4):
            for ib in range(ia + 1, 4):
                pair = CoherencePair.from_indices(ia, ib, 2)
                assert coherence_pair_qfi_timeavg(fam, xi, pair).value <= best.value + 1e-12

    def test_unknown_regime_rejected(self):
        with pytest.raises(ValueError):
            optimal_coherence_pair(build_two_qubit(DOMAIN), 0.1, "weird")

    def test_both_regimes_share_one_pass_per_class_table(self, random_real_family):
        # The time and shot optima at one (family, xi) read the class rates and
        # their derivative from one memo: two passes, and the same results as
        # from a cleared memo.
        fam, xi = random_real_family(8, 8), 0.31
        _class_rates.cache_clear()
        first = [optimal_coherence_pair(fam, xi, regime) for regime in ("time", "shot")]
        assert _class_rates.cache_info().misses == 2
        again = []
        for regime in ("time", "shot"):
            _class_rates.cache_clear()
            again.append(optimal_coherence_pair(fam, xi, regime))
        assert first == again


class TestOptimalProductState:
    def test_two_qubit_time_regime(self):
        fam = build_two_qubit(DOMAIN)
        xi = 0.1
        report = optimal_product_state(fam, xi, "time")
        assert report.best.value == pytest.approx(1.0 / (xi * (2.0 - xi)), rel=1e-3)
        assert report.best.value == pytest.approx(5.2632, abs=5e-3)
        assert report.starts == 0

    def test_n4_time_regime(self):
        fam = build_n_qubit(4, DOMAIN)
        report = optimal_product_state(fam, 0.1, "time")
        assert report.best.value == pytest.approx(5.0, rel=1e-3)

    def test_n3_shot_regime_matches_weight_argument(self, shot_peak_constant):
        fam = build_n_qubit(3, DOMAIN)
        xi = 0.01
        report = optimal_product_state(fam, xi, "shot")
        expected = 2.0 ** (1 - 3) * shot_peak_constant / xi**2
        assert report.best.value == pytest.approx(expected, rel=2e-3)
        thetas = np.array(report.best.probe.thetas)
        assert thetas == pytest.approx(np.full(3, np.pi / 2), abs=1e-3)

    def test_determinism_fixed_seed(self):
        fam = build_n_qubit(3, DOMAIN)
        a = optimal_product_state(fam, 0.05, "shot", seed=3)
        b = optimal_product_state(fam, 0.05, "shot", seed=3)
        assert a == b

    def test_zero_perturbation_reports_zero(self):
        fam = with_perturbation(build_two_qubit(DOMAIN), np.zeros((2, 2)), (0.1, 0.9))
        report = optimal_product_state(fam, 0.5, "time")
        assert report.best.value == 0.0

    @pytest.mark.parametrize("regime", ["time", "shot"])
    def test_reported_value_is_the_probe_value_bitwise(self, regime):
        # The report is its probe's exact QFI: the time limit, or the shot search's own end value.
        fam, xi = build_n_qubit(3, DOMAIN), 0.03
        best = optimal_product_state(fam, xi, regime, seed=2).best
        probe = ProductState(best.probe.thetas)
        if regime == "time":
            assert best.time == 0.0
            assert best.value == time_averaged_qfi_limit(probe, fam, xi).value
        else:
            assert best.value == qfi_exact_value(probe.density(), fam, xi, best.time)


def textbook_nelder_mead(fn, x0, step=optimize._NM_STEP):
    """Loop oracle for ``nelder_mead_max``: one start, one fn call per point.

    The moves, their order, the stopping rule and the final pick are the
    module's.  Returns (x_best, f_best, converged, n_eval, shrinks).
    """
    alpha, gamma_e, rho_c, sigma_s = 1.0, 2.0, 0.5, 0.5
    x0 = np.asarray(x0, dtype=np.float64)
    dim = x0.size
    simplex = np.tile(x0, (dim + 1, 1))
    for j in range(dim):
        simplex[j + 1, j] += step
    values = np.array([fn(x) for x in simplex])
    n_eval, shrinks, converged = dim + 1, 0, False
    for _ in range(optimize.NM_MAX_ITER):
        order = values.argsort()[::-1]
        simplex, values = simplex[order], values[order]
        if np.abs(simplex[1:] - simplex[0]).max() <= optimize.NM_XATOL or abs(values[0] - values[-1]) <= optimize.NM_FATOL:
            converged = True
            break
        centroid = simplex[:-1].sum(axis=0) / dim
        xr = centroid + alpha * (centroid - simplex[-1])
        fr = fn(xr)
        n_eval += 1
        if fr > values[0]:
            xe = centroid + gamma_e * (centroid - simplex[-1])
            fe = fn(xe)
            n_eval += 1
            simplex[-1], values[-1] = (xe, fe) if fe > fr else (xr, fr)
        elif fr > values[-2]:
            simplex[-1], values[-1] = xr, fr
        else:
            xc = centroid + rho_c * (simplex[-1] - centroid)
            fc = fn(xc)
            n_eval += 1
            if fc > values[-1]:
                simplex[-1], values[-1] = xc, fc
            else:
                simplex[1:] = simplex[0] + sigma_s * (simplex[1:] - simplex[0])
                values[1:] = [fn(x) for x in simplex[1:]]
                n_eval += dim
                shrinks += 1
    best = values.argsort()[-1]
    return simplex[best].copy(), float(values[best]), converged, n_eval, shrinks


def textbook_time_scan(eval_fn, bracket):
    """Loop oracle for ``maximize_over_time``: the 64-point log grid, then golden-section refinement."""
    ts = np.geomspace(*bracket, GRID_POINTS)
    vals = [eval_fn(t) for t in ts]
    i = int(np.argmax(vals))
    best_t, best_v = float(ts[i]), vals[i]
    a, b = float(ts[max(i - 1, 0)]), float(ts[min(i + 1, GRID_POINTS - 1)])
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = eval_fn(c), eval_fn(d)
    while (b - a) > optimize.GOLDEN_REL_TOL * max(abs(a), abs(b)):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = eval_fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = eval_fn(d)
        t_cand, v_cand = (c, fc) if fc >= fd else (d, fd)
        if v_cand > best_v:
            best_t, best_v = float(t_cand), v_cand
    return best_t, float(best_v)


def sequential_shot_search(family, xi, seed):
    """Loop oracle for the shot-regime product search: the 7 + 2N random
    starts one after another through ``textbook_nelder_mead`` and
    ``textbook_time_scan``, one ProductState and one QFI call per point (-inf
    where it raises), then the merge with |+>^N's own time scan as its last
    candidate.  The search has no start of its own at |+>^N: its start 0 is
    |+>^N's time refinement, which the scan stands for here.

    Returns (value, t, thetas) and the number of shrink steps.
    """
    n = family.n_qubits
    rng = np.random.default_rng(seed)
    n_random = 7 + 2 * n
    starts = [rng.uniform(0.0, np.pi, size=n) for _ in range(n_random)]
    bracket = default_time_bracket(family, xi)
    log_lo, log_hi = np.log(bracket[0]), np.log(bracket[1])
    start_logts = [rng.uniform(log_lo, log_hi) for _ in range(n_random)]

    def value_at(theta, t):
        try:
            return qfi_exact_value(ProductState(_fold_theta(theta)).density(), family, xi, t)
        except DivergentQfiError:
            return -np.inf

    def finish(theta):
        t_star, val = textbook_time_scan(lambda t: value_at(theta, t), bracket)
        return val, tuple(float(x) for x in np.round(theta, 12)), theta, t_star

    results, shrinks = [], 0
    for theta0, logt0 in zip(starts, start_logts):
        z0 = np.concatenate([theta0, [logt0]])
        x, _, _, _, shrunk = textbook_nelder_mead(
            lambda z: value_at(z[:-1], float(np.exp(np.clip(z[-1], log_lo, log_hi)))), z0
        )
        results.append(finish(_fold_theta(x[:n])))
        shrinks += shrunk
    plus = finish(np.full(n, np.pi / 2.0))
    best = max(results + [plus], key=lambda r: (r[0], tuple(-x for x in r[1])))
    return (best[0], best[3], tuple(float(x) for x in best[2])), shrinks


def recorded_search(monkeypatch, family, xi, seed):
    """optimal_product_state in the shot regime, recording the largest value-and-gradient stack."""
    stacks = [0]
    scorer = optimize.product_qfi_value_grad

    def sized_scorer(thetas, *args):
        stacks[0] = max(stacks[0], len(thetas))
        return scorer(thetas, *args)

    with monkeypatch.context() as patch:
        patch.setattr(optimize, "product_qfi_value_grad", sized_scorer)
        report = optimal_product_state(family, xi, "shot", seed=seed)
    return report, stacks[0]


class TestShotRegimeProductSearch:
    # Random real families at N = 2, 3 and 5 (family seed), and the collective family at N = 4 (None).
    # N = 5 fills 32-state stacks (2^15 matrix elements) with the |+>^N grid; at (3, 4) and (5, 6) some
    # oracle start takes a shrink step.
    @pytest.mark.parametrize(
        "n, fam_seed, xi, seed",
        [(2, 9, 0.6, 5), (3, 4, 0.01, 1), (3, 11, 0.881, 2), (4, None, 4.7e-3, 3), (5, 6, 0.7, 0)],
    )
    def test_lockstep_matches_sequential_loop_bitwise(self, n, fam_seed, xi, seed, random_real_family, monkeypatch):
        # The gradient search and the Nelder-Mead oracle find the same probe, bit for bit.  The
        # oracle's golden-section time scan stops within GOLDEN_REL_TOL of the ascent's time.
        fam = build_n_qubit(n, DOMAIN) if fam_seed is None else random_real_family(n, fam_seed)
        report, largest_stack = recorded_search(monkeypatch, fam, xi, seed)
        best = report.best
        (value, t, thetas), shrinks = sequential_shot_search(fam, xi, seed)
        assert best.probe.thetas == thetas
        assert best.value == pytest.approx(value, rel=1e-14)
        assert best.time == pytest.approx(t, rel=optimize.GOLDEN_REL_TOL)
        if n == 5:
            assert largest_stack == 32
        if (n, fam_seed) in {(3, 4), (5, 6)}:
            assert shrinks > 0

    def test_probe_past_the_kernel_policy_scores_minus_inf(self, monkeypatch, capsys):
        # At this seed the gradient search tries a point past the kernel policy
        # of _sld_rate, where qfi_exact_value would raise DivergentQfiError.
        # That point scores -inf and is counted; the search goes on and still
        # finds |+>^N.
        reports = []

        def recording(*args, **kwargs):
            reports.append(optimal_product_state(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(optimize, "optimal_product_state", recording)
        args = ["advantage", "--n", "5", "--xi", "4.670629962287817e-06", "--regime", "shot", "--seed", "1298115868"]
        code = main(args)
        assert code == 0
        assert float(capsys.readouterr().out.splitlines()[-1].split(",")[5]) == pytest.approx(16.0, rel=0.05)
        assert reports[0].unresolved > 0
        assert reports[0].best.probe == plus_product(5)

    def test_every_start_converges_next_to_the_optimum(self, random_real_family):
        # Starts that end within roundoff of |+>^N count as converged: the line
        # search stops where a trial's first-order gain is at most ASCENT_FTOL
        # |f| instead of failing on roundoff in the Armijo test.
        report = optimal_product_state(random_real_family(3, 11), 0.6, "shot", seed=1)
        assert report.converged_fraction == 1.0
        assert report.best.probe == plus_product(3)

    # (N, xi, seed) -> value-and-gradient calls and states scored by one
    # collective-family search: one call for the |+>^N grid and the random
    # starts (three at N = 5), then the joint ascent's calls, whose start 0 is
    # |+>^N's time ascent from the best grid point, which is not scored again;
    # both are deterministic.
    SEARCH_WORK = {
        (5, 0.002, 1): (64, 481),
        (5, 0.01, 2): (96, 521),
        (4, 0.005, 3): (54, 375),
        (3, 0.02, 4): (59, 366),
        (2, 0.01, 5): (40, 242),
    }

    @pytest.mark.parametrize("n, xi, seed", list(SEARCH_WORK))
    def test_search_work_is_pinned(self, n, xi, seed, monkeypatch):
        work = [0, 0]
        scorer = optimize.product_qfi_value_grad

        def counting(thetas, *args):
            work[0] += 1
            work[1] += len(thetas)
            return scorer(thetas, *args)

        monkeypatch.setattr(optimize, "product_qfi_value_grad", counting)
        optimal_product_state(optimize.family_for_ratio(n, xi), xi, "shot", seed=seed)
        assert tuple(work) == self.SEARCH_WORK[n, xi, seed]

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_one_ascent_per_search(self, n, monkeypatch, random_real_family):
        # |+>^N's time refinement is start 0 of the joint ascent, not an ascent
        # of its own: one call, every start, all N angles and log t.
        shapes, ascent = [], optimize._ascent

        def counting(*args):
            shapes.append(np.shape(args[0]))
            return ascent(*args)

        monkeypatch.setattr(optimize, "_ascent", counting)
        for fam, xi in ((build_n_qubit(n, DOMAIN), 0.01), (random_real_family(n, 4), 0.5)):
            shapes.clear()
            report = optimal_product_state(fam, xi, "shot", seed=1)
            assert shapes == [(report.starts, n + 1)]

    def test_winning_challenger_reports_its_end_value(self, monkeypatch, random_real_family):
        # With a margin of -1 any end point wins; it is reported with its end
        # value, which is its exact QFI bit for bit.
        fam, xi, margin = random_real_family(3, 4), 0.05, optimize.SHOT_MARGIN
        monkeypatch.setattr(optimize, "SHOT_MARGIN", -1.0)
        report = optimal_product_state(fam, xi, "shot", seed=1)
        best = report.best
        assert best.probe != plus_product(3)
        assert best.value == qfi_exact_value(best.probe.density(), fam, xi, best.time)
        plus = plus_product(3).density()
        _, plus_value = textbook_time_scan(lambda t: qfi_exact_value(plus, fam, xi, t), default_time_bracket(fam, xi))
        # The gap compares the ascents' end values, and the golden-section scan's
        # best point differs from |+>^N's ascent end by roundoff.
        assert report.challenger_gap == pytest.approx((best.value - plus_value) / plus_value, rel=0.0, abs=1e-14)
        assert abs(report.challenger_gap) <= margin

    @pytest.mark.parametrize("fam_seed, xi, seed", [(4, 0.5, 0), (11, 0.05, 2)])
    def test_challenger_past_the_fold_reports_its_exact_value(self, fam_seed, xi, seed, monkeypatch, random_real_family):
        # At these inputs the best end point has an angle outside [0, pi].  The
        # kernel folds angles before it forms a state, so the reported probe,
        # at the folded angles, has the end value as its exact QFI bit for bit.
        fam, ends = random_real_family(3, fam_seed), []
        ascent = optimize._ascent

        def recording(*args):
            ends.append(ascent(*args))
            return ends[-1]

        monkeypatch.setattr(optimize, "SHOT_MARGIN", -1.0)
        monkeypatch.setattr(optimize, "_ascent", recording)
        best = optimal_product_state(fam, xi, "shot", seed=seed).best
        found, values, _ = ends[-1]
        end = found[int(np.argmax(values))]
        assert np.any((end[:3] < 0.0) | (end[:3] > np.pi))
        assert best.probe.thetas == tuple(_fold_theta(end[:3]).tolist())
        assert best.value == values.max() == qfi_exact_value(best.probe.density(), fam, xi, best.time)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_collective_report_is_the_refined_plus_state(self, n):
        # No search end point beats |+>^N by more than SHOT_MARGIN on the
        # collective family, so the report is |+>^N at the end of its time
        # ascent, with its exact QFI.  Its value is at least the golden-section
        # scan's to 1e-14 relative, and every end point lies within 1e-14 of it
        # (the golden scan's shortfall left gaps of up to 1.7e-14).
        fam, plus = build_n_qubit(n, DOMAIN), plus_product(n).density()
        for xi in (1e-3, 4.7e-3, 0.01, 0.03, 0.2):
            _, scan = textbook_time_scan(lambda t: qfi_exact_value(plus, fam, xi, t), default_time_bracket(fam, xi))
            for seed in range(4):
                report = optimal_product_state(fam, xi, "shot", seed=seed)
                assert report.best.probe == plus_product(n)
                assert report.best.value == qfi_exact_value(plus, fam, xi, report.best.time)
                assert report.best.value >= scan * (1.0 - 1e-14)
                assert abs(report.challenger_gap) <= 1e-14

    @pytest.mark.parametrize("n, fam_seed, xi, seed", [(3, None, 4.7e-3, 0), (4, None, 0.03, 1), (3, 4, 0.01, 1)])
    def test_no_angle_row_is_time_scanned_twice(self, n, fam_seed, xi, seed, random_real_family, monkeypatch):
        # Only |+>^N is scanned over time (a search candidate is its end
        # point): each of its grid points is scored once, and its time ascent,
        # start 0 of the joint ascent, starts from the best of them with the
        # grid call's value and gradient.  The reported row is the search's
        # own value, so no exact QFI runs: _sld_rate is the route of
        # qfi_exact_value and of the t -> 0+ limit.  Search points clipped to
        # the bracket sit on the grid's end points, so only the inner ones are
        # watched.
        fam = build_n_qubit(n, DOMAIN) if fam_seed is None else random_real_family(n, fam_seed)
        grid = set(np.exp(np.linspace(*np.log(default_time_bracket(fam, xi)), GRID_POINTS))[1:-1].tolist())
        scanned, exact_calls = [], []
        scorer, exact = optimize.product_qfi_value_grad, qfi._sld_rate

        def recording(thetas, family, xi_, t):
            scanned.extend((theta.tobytes(), tk) for theta, tk in zip(thetas, t.tolist()) if tk in grid)
            return scorer(thetas, family, xi_, t)

        def counting(*args):
            exact_calls.append(args)
            return exact(*args)

        monkeypatch.setattr(optimize, "product_qfi_value_grad", recording)
        monkeypatch.setattr(qfi, "_sld_rate", counting)
        optimal_product_state(fam, xi, "shot", seed=seed)
        assert {theta for theta, _ in scanned} == {np.full(n, np.pi / 2.0).tobytes()}
        assert len(scanned) == len(grid) and len(set(scanned)) == len(grid)
        assert len(exact_calls) == 0

    @pytest.mark.parametrize("xi", [0.5, 0.881, 0.95])
    def test_never_below_plus_state(self, xi, random_real_family):
        # |+>^N, climbing in time as start 0 of the ascent, is one candidate of the merge.
        # The golden-section scan reports the best of about 30 evaluations that
        # differ by roundoff, so the ascent may end up to 1e-14 below it.
        for fam_seed in range(3):
            fam = random_real_family(3, fam_seed)
            plus = plus_product(3).density()
            bracket = default_time_bracket(fam, xi)
            _, plus_value = maximize_over_time(lambda t: qfi_exact_value(plus, fam, xi, t), bracket)
            assert optimal_product_state(fam, xi, "shot", seed=fam_seed).best.value >= plus_value * (1.0 - 1e-14)

    @pytest.mark.parametrize("n, fam_seed", [(2, None), (3, None), (4, None), (5, None), (2, 0), (3, 1), (4, 2)])
    @pytest.mark.parametrize("k", range(3))
    def test_no_nearby_or_random_probe_beats_plus_state(self, n, fam_seed, k, random_real_family):
        # Every single-axis move of |+>^N onto a 9-point grid over [0, pi], and
        # random product probes, at |+>^N's own t* and two more times in the
        # bracket.  A failure is a counterexample to |+>^N being the shot
        # optimum, which the search would then have to find.
        xi = (1e-3, 0.03, 0.2)[k] if fam_seed is None else (0.05, 0.5, 0.881)[k]
        fam = build_n_qubit(n, DOMAIN) if fam_seed is None else random_real_family(n, fam_seed)
        bracket = default_time_bracket(fam, xi)
        plus = plus_product(n).density()
        t_star, _ = maximize_over_time(lambda t: qfi_exact_value(plus, fam, xi, t), bracket)
        probes = []
        for axis in range(n):
            for cand in np.linspace(0.0, np.pi, 9):
                theta = np.full(n, np.pi / 2.0)
                theta[axis] = cand
                probes.append(theta)
        probes.extend(np.random.default_rng(10 * n + k).uniform(0.0, np.pi, size=(40, n)))
        rhos = np.stack([ProductState(theta).density() for theta in probes])
        for t in [t_star, *np.geomspace(*bracket, 4)[1:3]]:
            ceiling = qfi_exact_value(plus, fam, xi, t) * (1.0 + 1e-12)
            assert np.all(qfi_exact_value(rhos, fam, xi, t) <= ceiling)


def time_regime_families(random_real_family):
    fams = [build_single_qubit(DOMAIN), build_two_qubit(DOMAIN)] + [build_n_qubit(n, DOMAIN) for n in range(2, 7)]
    return fams + [random_real_family(n, 60 + n) for n in range(1, 7)]


class TestTimeRegimeProductOptimum:
    # |+>^N is the time-regime product optimum by monotonicity of the SLD
    # metric; random probes and a free search must never beat it.

    def test_random_probes_never_beat_plus_state(self, random_real_family):
        rng = np.random.default_rng(71)
        for fam in time_regime_families(random_real_family):
            n = fam.n_qubits
            for xi in (1e-3, 0.05, 0.5):
                optimum = optimal_product_state(fam, xi, "time").best.value
                for k in range(60):
                    # Half the probes are uniform, half sit within 1e-3 of pi/2.
                    thetas = rng.uniform(0.0, np.pi, size=n) if k % 2 else np.pi / 2 + rng.uniform(-1e-3, 1e-3, size=n)
                    probe = ProductState(thetas)
                    assert time_averaged_qfi_limit(probe, fam, xi).value <= optimum * (1.0 + 1e-12)

    def test_nelder_mead_never_beats_plus_state(self, random_real_family):
        rng = np.random.default_rng(72)
        for fam in time_regime_families(random_real_family):
            for xi in (1e-3, 0.05):
                optimum = optimal_product_state(fam, xi, "time").best.value

                def objective(z):
                    return time_averaged_qfi_limit(ProductState(_fold_theta(z)), fam, xi).value

                for _ in range(2):
                    _, value, _, _ = nelder_mead_max(objective, rng.uniform(0.0, np.pi, size=fam.n_qubits))
                    assert value <= optimum * (1.0 + 1e-12)

    def test_collective_family_beyond_the_search_guard(self):
        # gamma / (2 xi) for every N; the shot search's N guard does not apply.
        fam = build_n_qubit(16, DOMAIN)
        report = optimal_product_state(fam, 0.01, "time")
        assert report.best.value == pytest.approx(50.0, rel=1e-12)
        assert report.best.probe == plus_product(16)
        assert (report.starts, report.converged_fraction, report.unresolved, report.challenger_gap) == (0, 1.0, 0, 0.0)


class TestAdvantageRatio:
    def test_two_qubit_time_limit(self):
        result = advantage_ratio(2, 1e-3, "time")
        assert result.ratio == pytest.approx(2.0 - 1e-3, rel=2e-4)
        assert result.entangled_best.probe == CoherencePair((1, -1), (-1, 1))
        assert type(result.separable_best.probe).__name__ == "ProductState"

    def test_n4_time_is_factor_n(self):
        result = advantage_ratio(4, 1e-3, "time")
        assert result.ratio == pytest.approx(4.0, rel=0.01)

    def test_shot_small_n(self):
        for n, expected in ((2, 2.0), (3, 4.0)):
            result = advantage_ratio(n, 0.01, "shot")
            assert result.ratio == pytest.approx(expected, rel=0.05)

    def test_two_qubit_shot_at_small_xi(self):
        result = advantage_ratio(2, 1e-3, "shot")
        assert result.ratio == pytest.approx(2.0, rel=0.01)

    def test_entangled_beats_separable_time_regime(self):
        for n in (2, 3):
            for xi in (1e-3, 1e-2, 1e-1):
                result = advantage_ratio(n, xi, "time")
                assert result.entangled_best.value >= result.separable_best.value - 1e-6
                assert result.ratio >= 1.0 - 1e-6

    def test_product_never_beats_pair_all_builtin_families(self):
        from corrnoise.model import build_single_qubit

        families = [build_single_qubit(DOMAIN), build_two_qubit(DOMAIN), build_n_qubit(3, DOMAIN)]
        for fam in families:
            for xi in (1e-3, 1e-2, 1e-1):
                pair_best = optimal_coherence_pair(fam, xi, "time").value
                product_best = optimal_product_state(fam, xi, "time").best.value
                assert product_best <= pair_best * (1.0 + 1e-6)

    def test_bad_n_rejected(self):
        with pytest.raises(ValueError):
            advantage_ratio(1, 0.1, "time")
        with pytest.raises(ValueError):
            advantage_ratio(11, 0.1, "time")


class TestTimeBracket:
    def test_scales_with_slowest_rate(self):
        fam = build_n_qubit(6, DOMAIN)
        lo, hi = default_time_bracket(fam, 0.01)
        slow = 6 * 0.01
        assert lo == pytest.approx(1e-3 / slow, rel=1e-9)
        assert hi == pytest.approx(1e2 / slow, rel=1e-9)


def recomputed(result, family, xi, rho=None):
    """The figure of merit ``result.regime`` names, recomputed for its probe at its time."""
    if rho is None:
        rho = pair_density(result.probe) if isinstance(result.probe, CoherencePair) else result.probe.density()
    if result.regime == "shot":
        return qfi_exact_value(rho, family, xi, result.time)
    assert result.time == 0.0
    return time_averaged_qfi_limit(rho, family, xi).value


class TestRegimeVocabulary:
    """Every QfiResult names its regime with a word of REGIMES, and the word matches the value."""

    def test_one_vocabulary(self):
        assert REGIMES == ("time", "shot")
        assert optimize.REGIMES is qfi.REGIMES

    @pytest.mark.parametrize("regime", REGIMES)
    def test_searches_report_their_regime(self, regime):
        fam, xi = build_n_qubit(3, DOMAIN), 0.05
        pair = optimal_coherence_pair(fam, xi, regime)
        product = optimal_product_state(fam, xi, regime).best
        for result in (pair, product):
            assert result.regime == regime
            assert recomputed(result, fam, xi) == pytest.approx(result.value, rel=1e-9)

    @pytest.mark.parametrize("regime", REGIMES)
    def test_advantage_ratio_reports_its_regime(self, regime):
        report = advantage_ratio(3, 0.05, regime)
        assert report.regime == report.entangled_best.regime == report.separable_best.regime == regime

    def test_pair_closed_forms_report_their_regime(self):
        fam, xi, pair = build_n_qubit(3, DOMAIN), 0.05, ghz_pair(3)
        results = {
            "time": coherence_pair_qfi_timeavg(fam, xi, pair),
            "shot": coherence_pair_qfi_shot(fam, xi, pair, 2.0),
            "shot peak": coherence_pair_qfi_shot_peak(fam, xi, pair),
        }
        for name, result in results.items():
            assert result.regime == name.split()[0]
            assert recomputed(result, fam, xi) == pytest.approx(result.value, rel=1e-9)

    def test_time_limits_report_the_time_regime(self):
        fam, xi = build_n_qubit(3, DOMAIN), 0.05
        rho = random_pure_density(3, np.random.default_rng(5))
        for result in (time_averaged_qfi_limit(plus_product(3), fam, xi), time_averaged_qfi_limit(rho, fam, xi)):
            assert result.regime == "time" and result.time == 0.0
        oracle = richardson_limit(rho, fam, xi)
        assert oracle.regime == "time"
        assert recomputed(oracle, fam, xi, rho) == pytest.approx(oracle.value, rel=1e-6)
