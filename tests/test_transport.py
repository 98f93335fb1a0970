import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment, linprog

from w2lab import transport
from w2lab.samplers import make_scaled_basis
from w2lab.transport import (
    EXACT_CAP_DEFAULT,
    EmpiricalMeasure,
    SinkhornConvergenceError,
    SolverCapacityError,
    sinkhorn_w2,
    w2_atomic_1d,
    w2_atoms_gaussian_1d,
    w2_bruteforce,
    w2_discrete_lp,
    w2_exact,
    w2_gaussian_mixture_1d,
    w2_projection_lower,
    w2_quantile_1d,
)


def clouds(rng, m, d, shift=0.0):
    return (
        EmpiricalMeasure(rng.normal(size=(m, d))),
        EmpiricalMeasure(rng.normal(size=(m, d)) + shift),
    )


class TestExact:
    def test_identical_clouds(self, rng):
        pts = rng.normal(size=(20, 2))
        cost, plan = w2_exact(EmpiricalMeasure(pts), EmpiricalMeasure(pts))
        assert cost == pytest.approx(0.0, abs=1e-12)
        assert np.array_equal(plan.pairing, np.arange(20))

    def test_two_point_instance(self):
        mu = EmpiricalMeasure(np.array([[0.0], [1.0]]))
        nu = EmpiricalMeasure(np.array([[1.0], [2.0]]))
        cost, plan = w2_exact(mu, nu)
        # brute force over both pairings: identity costs (1+1)/2, swap (4+0)/2
        assert cost == pytest.approx(1.0)
        assert math.sqrt(cost) == pytest.approx(1.0)
        assert plan.check_marginals()

    def test_matches_bruteforce(self, rng):
        for _ in range(60):
            m = int(rng.integers(2, 8))
            d = int(rng.integers(1, 4))
            mu, nu = clouds(rng, m, d, shift=rng.normal() * 0.5)
            cost, _ = w2_exact(mu, nu)
            assert cost == pytest.approx(w2_bruteforce(mu, nu), abs=1e-9)

    def test_bruteforce_equals_a_loop_over_the_pairings(self, rng):
        def loop(mu, nu):
            c = transport._pair_cost(mu.points, nu.points)
            rows = np.arange(mu.size)
            return min(float(c[rows, list(perm)].sum())
                       for perm in itertools.permutations(range(mu.size))) / mu.size

        for m in range(2, 9):
            for _ in range(3):
                mu, nu = clouds(rng, m, int(rng.integers(1, 4)), shift=rng.normal())
                assert w2_bruteforce(mu, nu) == loop(mu, nu)
        with pytest.raises(ValueError, match="read-only"):
            transport._permutations(4)[0, 0] = 1

    def test_unequal_sizes_rejected(self, rng):
        with pytest.raises(ValueError, match=r"^equal point counts required \(3 vs 4\)$"):
            w2_exact(EmpiricalMeasure(rng.normal(size=(3, 1))),
                     EmpiricalMeasure(rng.normal(size=(4, 1))))

    def test_cap(self, rng):
        # past the cap it raises before the cost matrix is built
        mu, nu = clouds(rng, EXACT_CAP_DEFAULT + 1, 1)
        with pytest.raises(SolverCapacityError):
            w2_exact(mu, nu)

    def test_triangle_inequality(self, rng):
        for _ in range(15):
            a = EmpiricalMeasure(rng.normal(size=(25, 2)))
            b = EmpiricalMeasure(rng.normal(size=(25, 2)) + 0.5)
            c = EmpiricalMeasure(rng.normal(size=(25, 2)) - 0.3)
            dab = math.sqrt(w2_exact(a, b)[0])
            dac = math.sqrt(w2_exact(a, c)[0])
            dcb = math.sqrt(w2_exact(c, b)[0])
            assert dab <= dac + dcb + 1e-9


class TestQuantile1d:
    def test_equal_samples(self, rng):
        xs = rng.normal(size=100)
        assert w2_quantile_1d(xs, xs) == 0.0

    def test_small_instance(self):
        # assignment oracle: {1,3}->{2,4} monotone pairing costs (1+1)/2
        assert w2_quantile_1d([1.0, 3.0], [2.0, 4.0]) == pytest.approx(1.0)

    def test_shifted_gaussian(self, rng):
        m = 10**6
        xs = rng.standard_normal(m)
        ys = rng.standard_normal(m) + 0.5
        assert w2_quantile_1d(xs, ys) == pytest.approx(0.5, abs=0.01)

    def test_equals_exact_1d(self, rng):
        for _ in range(30):
            m = int(rng.integers(2, 30))
            xs = rng.normal(size=m)
            ys = rng.normal(size=m) * 2 + 1
            qv = w2_quantile_1d(xs, ys)
            ev = math.sqrt(w2_exact(EmpiricalMeasure(xs[:, None]),
                                    EmpiricalMeasure(ys[:, None]))[0])
            assert qv == pytest.approx(ev, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            w2_quantile_1d([], [])


def _mixture_w2_oracle(atoms, probs, sd_mix, sd_ref):
    """mpmath quantile integral: int f(x) (x - sd_ref Phi^-1(F(x)))^2 dx to 10 sd_mix."""
    with mpmath.workdps(30):
        a = [mpmath.mpf(v) for v in atoms]
        p = [mpmath.mpf(v) for v in probs]
        s, r = mpmath.mpf(sd_mix), mpmath.mpf(sd_ref)

        def integrand(x):
            cdf = sum(pj * mpmath.ncdf((x - aj) / s) for aj, pj in zip(a, p))
            pdf = sum(pj * mpmath.npdf((x - aj) / s) for aj, pj in zip(a, p)) / s
            return pdf * (x - r * mpmath.sqrt(2) * mpmath.erfinv(2 * cdf - 1)) ** 2

        edge = max(abs(v) for v in a) + 10 * s
        return float(mpmath.sqrt(mpmath.quad(
            integrand, mpmath.linspace(-edge, edge, 9), method="gauss-legendre")))


class TestGaussianMixture1d:
    @pytest.mark.parametrize("a", [-3.0, 0.5, 7.0])
    def test_one_atom_is_a_shift(self, a):
        assert w2_gaussian_mixture_1d([a], [1.0], 2.0, 2.0) == pytest.approx(abs(a), abs=1e-12)

    @pytest.mark.parametrize("sd_mix,sd_ref", [(math.sqrt(24.0), 5.0), (3.0, 1.0), (1.0, 1.0)])
    def test_one_atom_at_zero_is_a_scale_change(self, sd_mix, sd_ref):
        w2 = w2_gaussian_mixture_1d([0.0], [1.0], sd_mix, sd_ref)
        assert w2 == pytest.approx(abs(sd_ref - sd_mix), abs=1e-12)

    def test_sign_flip_invariant(self):
        atoms, probs = np.array([-1.0, 0.5, 3.0]), np.array([0.3, 0.6, 0.1])
        w2 = w2_gaussian_mixture_1d(atoms, probs, 1.5, 2.0)
        assert w2_gaussian_mixture_1d(-atoms, probs, 1.5, 2.0) == pytest.approx(w2, rel=1e-12)

    @pytest.mark.parametrize("atoms,probs,sd_mix,sd_ref", [
        *[([-2.0, 2.0], [0.5, 0.5], 2.0 * math.sqrt(n - 1), 2.0 * math.sqrt(n))
          for n in (20, 40, 80)],
        ([-1.0, 0.5, 3.0], [0.3, 0.6, 0.1], 1.5, 2.0),
    ])
    def test_matches_mpmath_quantile_integral(self, atoms, probs, sd_mix, sd_ref):
        oracle = _mixture_w2_oracle(atoms, probs, sd_mix, sd_ref)
        w2 = w2_gaussian_mixture_1d(atoms, probs, sd_mix, sd_ref)
        assert w2 == pytest.approx(oracle, rel=1e-10)

    def test_stack_of_rows_is_each_row_alone(self, rng):
        # one bisection over a stack of mass rows gives each row's own distance,
        # zero masses included
        atoms = np.array([-1.0, 0.5, 3.0])
        rows = rng.dirichlet(np.ones(3), size=6)
        rows[0] = [0.0, 1.0, 0.0]
        stacked = w2_gaussian_mixture_1d(atoms, rows, 1.5, 2.0)
        assert stacked.shape == (6,)
        alone = [w2_gaussian_mixture_1d(atoms, row, 1.5, 2.0) for row in rows]
        np.testing.assert_allclose(stacked, alone, rtol=1e-15, atol=0)
        assert stacked[0] == pytest.approx(math.hypot(0.5, 0.5), rel=1e-12)
        assert type(w2_gaussian_mixture_1d(atoms, rows[1], 1.5, 2.0)) is float


def _reference_pair_cost(x, y):
    """The two-temporary expression ``_pair_cost`` must reproduce bit for bit."""
    xx = np.sum(x**2, axis=1)
    yy = np.sum(y**2, axis=1)
    return np.maximum(xx[:, None] + yy[None, :] - 2.0 * (x @ y.T), 0.0)


def _peak_bytes(fn, *args):
    """Peak traced allocation while ``fn(*args)`` runs (numpy buffers included)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAtomsGaussian1d:
    @pytest.mark.parametrize("atom,sd", [(0.0, 1.0), (0.7, 1.0), (-2.0, 0.3)])
    def test_point_mass(self, atom, sd):
        # the only coupling: W2^2 = E (a - Z)^2 = a^2 + sd^2
        assert w2_atoms_gaussian_1d(np.array([atom]), np.array([1.0]), sd) == pytest.approx(
            math.hypot(atom, sd), rel=1e-15)

    def test_zero_mass_atoms_own_no_cell(self):
        atoms, probs = np.array([-1.0, 0.5, 2.0]), np.array([0.5, 0.3, 0.2])
        padded = w2_atoms_gaussian_1d(np.array([-3.0, -1.0, 0.0, 0.5, 2.0, 9.0]),
                                      np.array([0.0, 0.5, 0.0, 0.3, 0.2, 0.0]), 1.3)
        assert padded == w2_atoms_gaussian_1d(atoms, probs, 1.3)

    def test_mirror_image(self):
        atoms, probs = np.array([-1.0, 0.5, 2.0]), np.array([0.5, 0.3, 0.2])
        assert w2_atoms_gaussian_1d(-atoms[::-1], probs[::-1], 0.8) == pytest.approx(
            w2_atoms_gaussian_1d(atoms, probs, 0.8), rel=1e-14)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_mpmath_cells(self, seed):
        # int (a_k - sd t)^2 phi(t) dt over each quantile cell, at 30 digits, the
        # breakpoints by mpmath.erfinv
        r = np.random.default_rng(seed)
        atoms = np.sort(r.normal(size=6))
        probs = r.dirichlet(np.ones(6))
        sd = 0.9
        with mpmath.workdps(30):
            edges = [-mpmath.inf] + [mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.fsum(probs[:k]) - 1)
                                     for k in range(1, 6)] + [mpmath.inf]
            oracle = mpmath.fsum(
                mpmath.quad(lambda t: (a - sd * t) ** 2 * mpmath.npdf(t), [lo, hi])
                for a, lo, hi in zip(atoms.tolist(), edges, edges[1:]))
            oracle = float(mpmath.sqrt(oracle))
        assert w2_atoms_gaussian_1d(atoms, probs, sd) == pytest.approx(oracle, rel=1e-13)

    def test_underflowed_tail_masses(self):
        # a 4096-step Rademacher walk: thousands of atoms at the ends have mass 0.0 in
        # float and the outer breakpoints sit far in the tails; no warning, a finite value
        n = 4096
        pmf = np.ones(1)
        for _ in range(n):
            pmf = np.convolve(pmf, [0.5, 0.5])
        assert (pmf == 0).sum() > 1000
        w2 = w2_atoms_gaussian_1d((2 * np.arange(n + 1) - n) / math.sqrt(n), pmf, 1.0)
        assert abs(math.sqrt(n) * w2 - 1 / math.sqrt(3)) < 1e-4


class TestBitIdentity:
    """The in-place estimator paths round exactly like the plain expressions."""

    @pytest.mark.parametrize("m", [1, 257, 3001])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_pair_cost_random_clouds(self, rng, m, d):
        x = rng.normal(size=(m, d))
        y = rng.normal(size=(m + 5, d)) * 3.0 + 0.5
        x0, y0 = x.copy(), y.copy()
        assert np.array_equal(transport._pair_cost(x, y), _reference_pair_cost(x, y))
        assert np.array_equal(x, x0) and np.array_equal(y, y0)

    @pytest.mark.parametrize("m", [257, 3001])
    def test_pair_cost_lattice_duplicates(self, rng, m):
        s = make_scaled_basis(2, 1.0)
        x = s.draw_sum(16, m, rng)
        y = s.draw_sum(16, m, rng)
        assert len(np.unique(x, axis=0)) < m  # duplicate rows present
        assert np.array_equal(transport._pair_cost(x, y), _reference_pair_cost(x, y))

    def test_exact_cost_matches_reference_sum(self, rng):
        s = make_scaled_basis(2, 1.0)
        x = s.draw_sum(64, 300, rng)
        y = rng.normal(size=(300, 2)) * 8.0
        cost, plan = w2_exact(EmpiricalMeasure(x), EmpiricalMeasure(y))
        ref = _reference_pair_cost(x, y)
        rows, cols = linear_sum_assignment(ref)
        assert np.array_equal(plan.pairing[rows], cols)
        assert cost == math.fsum(ref[rows, cols].tolist()) / 300

    @pytest.mark.parametrize("offset", [-1, 0, 1, transport._FSUM_CHUNK + 1])
    def test_quantile_matches_list_fsum(self, rng, offset):
        m = transport._FSUM_CHUNK + offset
        xs = rng.normal(size=m)
        ys = rng.normal(size=(m, 2))[:, 1] * 2.0 + 1.0  # strided view
        xs0, ys0 = xs.copy(), ys.copy()
        d = np.sort(xs) - np.sort(ys)
        expected = math.sqrt(math.fsum(list(d * d)) / m)
        assert w2_quantile_1d(xs, ys) == expected
        assert np.array_equal(xs, xs0) and np.array_equal(ys, ys0)


class TestMemory:
    """Peak allocations of the large-array paths (tracemalloc sees numpy buffers)."""

    def test_pair_cost_holds_one_matrix(self, rng):
        m = 2000
        x = rng.normal(size=(m, 2))
        y = rng.normal(size=(m, 2))
        assert _peak_bytes(transport._pair_cost, x, y) <= 1.25 * 8 * m * m

    def test_quantile_streams_the_sum(self, rng):
        m = 10**6
        xs = rng.normal(size=m)
        ys = rng.normal(size=m)
        # one chunk list: a pointer and a float object per value
        chunk = transport._FSUM_CHUNK * (8 + (1.0).__sizeof__())
        assert _peak_bytes(w2_quantile_1d, xs, ys) <= 3 * 8 * m + chunk


class TestSinkhorn:
    def test_identical_clouds_vanishing_eps(self, rng):
        pts = rng.normal(size=(40, 2))
        mu = EmpiricalMeasure(pts)
        nu = EmpiricalMeasure(pts)
        costs = [sinkhorn_w2(mu, nu, epsilon=e, tol=1e-5)[0]
                 for e in (0.5, 0.1, 0.02)]
        assert all(a > b for a, b in zip(costs, costs[1:]))
        assert costs[-1] < 0.05

    def test_two_point_instance(self):
        mu = EmpiricalMeasure(np.array([[0.0], [1.0]]))
        nu = EmpiricalMeasure(np.array([[1.0], [2.0]]))
        cost, diag = sinkhorn_w2(mu, nu, epsilon=1e-3)
        assert cost == pytest.approx(1.0, rel=0.01)
        assert diag.marginal_violation < 1e-6

    def test_dominates_exact_minus_slack(self, rng):
        mu, nu = clouds(rng, 60, 2, shift=0.8)
        exact = w2_exact(mu, nu)[0]
        for eps in (0.5, 0.1, 0.02):
            ent = sinkhorn_w2(mu, nu, epsilon=eps)[0]
            assert ent >= exact - eps * math.log(60) - 1e-6

    def test_random_instance_near_exact(self, rng):
        # m = 200 in d = 2 at 1% of the median pair cost: within 3% relative
        x = EmpiricalMeasure(rng.normal(size=(200, 2)))
        y = EmpiricalMeasure(rng.normal(size=(200, 2)) + np.array([1.2, 0.5]))
        exact = w2_exact(x, y)[0]
        pair = ((x.points[:, None, :] - y.points[None, :, :]) ** 2).sum(-1)
        ent = sinkhorn_w2(x, y, epsilon=0.01 * float(np.median(pair)))[0]
        assert abs(ent - exact) / exact <= 0.03

    def test_monotone_in_eps(self, rng):
        mu, nu = clouds(rng, 50, 2, shift=0.6)
        es = (0.8, 0.3, 0.1, 0.03)
        costs = [sinkhorn_w2(mu, nu, epsilon=e)[0] for e in es]
        assert all(a >= b - 1e-7 for a, b in zip(costs, costs[1:]))

    def test_nonconvergence_carries_violation(self, rng):
        mu, nu = clouds(rng, 30, 2, shift=2.0)
        with pytest.raises(SinkhornConvergenceError) as exc:
            sinkhorn_w2(mu, nu, epsilon=1e-4, max_iters=3, tol=1e-12)
        assert exc.value.marginal_violation > 0

    def test_rejects_bad_epsilon(self, rng):
        mu, nu = clouds(rng, 5, 1)
        with pytest.raises(ValueError):
            sinkhorn_w2(mu, nu, epsilon=0.0)


class TestProjectionLower:
    def test_identical_zero(self, rng):
        pts = rng.normal(size=(50, 3))
        mu = EmpiricalMeasure(pts)
        dirs = np.eye(3)
        assert w2_projection_lower(mu, mu, dirs) == 0.0

    def test_axis_shift_recovered(self, rng):
        m = 10**5
        mu = EmpiricalMeasure(rng.normal(size=(m, 2)))
        nu = EmpiricalMeasure(rng.normal(size=(m, 2)) + np.array([0.7, 0.0]))
        val = w2_projection_lower(mu, nu, np.eye(2))
        assert val == pytest.approx(0.7, abs=0.02)

    def test_never_exceeds_exact(self, rng):
        for _ in range(8):
            mu, nu = clouds(rng, 400, 3, shift=0.4)
            dirs = rng.normal(size=(12, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            low = w2_projection_lower(mu, nu, dirs)
            full = math.sqrt(w2_exact(mu, nu)[0])
            assert low <= full + 1e-9

    def test_unit_norm_required(self, rng):
        mu, nu = clouds(rng, 5, 2)
        with pytest.raises(ValueError):
            w2_projection_lower(mu, nu, np.array([[2.0, 0.0]]))


class TestAtomic:
    def test_two_atom_shift(self):
        val = w2_atomic_1d(np.array([0.0, 1.0]), np.array([0.5, 0.5]),
                           np.array([1.0, 2.0]), np.array([0.5, 0.5]))
        assert val == pytest.approx(1.0)

    def test_matches_quantile_on_uniform(self, rng):
        xs = rng.normal(size=64)
        ys = rng.normal(size=64) + 0.3
        w = np.full(64, 1 / 64)
        atomic = w2_atomic_1d(xs, w, ys, w)
        assert math.sqrt(atomic) == pytest.approx(w2_quantile_1d(xs, ys), abs=1e-12)

    def test_unequal_weights(self):
        # mass 3/4 at 0 and 1/4 at 1, target all at 0: cost = 1/4 * 1
        val = w2_atomic_1d(np.array([0.0, 1.0]), np.array([0.75, 0.25]),
                           np.array([0.0]), np.array([1.0]))
        assert val == pytest.approx(0.25)

    def test_negative_weight_rejected(self):
        x = np.array([0.0, 1.0])
        with pytest.raises(ValueError, match="non-negative"):
            w2_atomic_1d(x, np.array([1.5, -0.5]), x, np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="non-negative"):
            w2_atomic_1d(x, np.array([0.5, 0.5]), x, np.array([-0.5, 1.5]))


class TestDiscreteLP:
    def test_matches_atomic_1d(self, rng):
        # unsorted atoms, some of zero mass on either side
        for _ in range(20):
            ns, nt = (int(v) for v in rng.integers(2, 15, size=2))
            x = rng.normal(size=ns)
            y = rng.normal(size=nt) + rng.normal()
            p = rng.dirichlet(np.ones(ns))
            q = rng.dirichlet(np.ones(nt))
            p[rng.random(ns) < 0.3] = 0.0
            q[rng.random(nt) < 0.3] = 0.0
            p[0] = q[-1] = 0.5
            p /= p.sum()
            q /= q.sum()
            lp = w2_discrete_lp(x[:, None], p, y[:, None], q)
            assert lp == pytest.approx(w2_atomic_1d(x, p, y, q), rel=1e-8, abs=1e-10)

    def test_matches_assignment_2d(self, rng):
        m = 16
        x = rng.normal(size=(m, 2))
        y = rng.normal(size=(m, 2)) + 0.5
        w = np.full(m, 1.0 / m)
        lp = w2_discrete_lp(x, w, y, w)
        exact = w2_exact(EmpiricalMeasure(x), EmpiricalMeasure(y))[0]
        assert lp == pytest.approx(exact, rel=1e-8)

    def test_plan_marginals(self, rng):
        x = rng.normal(size=(7, 2))
        y = rng.normal(size=(5, 2)) + 0.3
        p = rng.dirichlet(np.ones(7))
        q = rng.dirichlet(np.ones(5))
        cost, gamma = w2_discrete_lp(x, p, y, q, return_plan=True)
        assert gamma.shape == (7, 5)
        assert np.all(gamma >= -1e-12)
        assert np.allclose(gamma.sum(axis=1), p, atol=1e-9)
        assert np.allclose(gamma.sum(axis=0), q, atol=1e-9)
        c = ((x[:, None, :] - y[None, :, :]) ** 2).sum(-1)
        assert float((gamma * c).sum()) == pytest.approx(cost, abs=1e-10)


def _dense_lp_oracle(x, p, y, q):
    """The full transport LP over all ns*nt pairs, at the solver's tolerances."""
    ns, nt = len(x), len(y)
    c = ((x[:, None, :] - y[None, :, :]) ** 2).sum(-1)
    a_eq = np.zeros((ns + nt, ns * nt))
    for i in range(ns):
        a_eq[i, i * nt:(i + 1) * nt] = 1.0
    for j in range(nt):
        a_eq[ns + j, j::nt] = 1.0
    res = linprog(
        c.ravel(), A_eq=a_eq[:-1], b_eq=np.concatenate([p, q])[:-1],
        bounds=(0, None), method="highs",
        options={"presolve": False, "primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return float(res.fun)


class TestColumnGeneration:
    @pytest.mark.parametrize("ns, nt", [(40, 35), (30, 45), (60, 60)])
    def test_matches_dense_oracle(self, rng, ns, nt):
        x = rng.normal(size=(ns, 2))
        y = rng.normal(size=(nt, 2)) * 1.3 + 0.4
        p = rng.dirichlet(np.ones(ns))
        q = rng.dirichlet(np.full(nt, 0.5))
        # a few atoms carry mass near the chain's 1e-13 keep threshold
        p[rng.choice(ns, 3, replace=False)] = 1e-13
        q[rng.choice(nt, 3, replace=False)] = 1e-13
        p /= p.sum()
        q /= q.sum()
        cost, gamma = w2_discrete_lp(x, p, y, q, return_plan=True)
        assert cost == pytest.approx(_dense_lp_oracle(x, p, y, q), abs=1e-10)
        assert gamma.shape == (ns, nt)
        assert np.allclose(gamma.sum(axis=1), p, atol=1e-9)
        assert np.allclose(gamma.sum(axis=0), q, atol=1e-9)

    def test_pricing_adds_columns_outside_seed(self, rng, monkeypatch):
        # 60 sources near the origin, 40 light targets among them and two
        # heavy targets far out: the far targets are nobody's 16 nearest, so
        # the optimum needs pairs that only pricing can supply
        x = rng.normal(size=(60, 2))
        y = np.vstack([rng.normal(size=(40, 2)), [[8.0, 0.0], [0.0, -8.0]]])
        p = rng.dirichlet(np.ones(60))
        q = np.concatenate([rng.dirichlet(np.ones(40)) * 0.4, [0.35, 0.25]])
        solves = []

        def counting_linprog(*args, **kwargs):
            solves.append(1)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(transport, "linprog", counting_linprog)
        cost = w2_discrete_lp(x, p, y, q)
        assert len(solves) >= 2
        assert cost == pytest.approx(_dense_lp_oracle(x, p, y, q), abs=1e-10)

    def test_negative_weight_rejected(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="non-negative"):
            w2_discrete_lp(x, np.array([1.5, -0.5]), x, np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="non-negative"):
            w2_discrete_lp(x, np.array([0.5, 0.5]), x, np.array([-0.5, 1.5]))

    def test_length_mismatch_rejected(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0]])
        w = np.array([0.5, 0.5])
        with pytest.raises(ValueError, match="length"):
            w2_discrete_lp(x, np.array([0.25, 0.25, 0.5]), x, w)
        with pytest.raises(ValueError, match="length"):
            w2_discrete_lp(x, w, x[:1], w)
