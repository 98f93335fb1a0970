import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from w2lab.densities import DensityRatioModel
from w2lab.gaussmath import CovarianceSpec
from w2lab.qstats import conditional_l2_check
from w2lab.samplers import (
    LAW_MASS_TOL,
    MASS_TOL,
    BoundedSampler,
    SamplerInvariantError,
    check_masses,
    lattice_distance,
    make_lattice_custom,
    make_rademacher_product,
    make_scaled_basis,
    require_lattice_support,
    validate_sampler,
)
from w2lab.transport import w2_atomic_1d, w2_atoms_gaussian_1d, w2_discrete_lp, w2_gaussian_mixture_1d


def corrupt_bound(s: BoundedSampler, factor: float) -> BoundedSampler:
    """A copy of ``s`` whose declared bound is scaled by ``factor``."""
    return replace(s, bound=factor * s.bound)


# standard errors of slack the validator's moments are held to here
SE_FACTOR = 5.0


def assert_moments_within_se(rep):
    """Mean and covariance within SE_FACTOR standard errors (0 <= 0 counts)."""
    assert np.all(np.abs(rep.mean) <= SE_FACTOR * np.maximum(rep.mean_se, 1e-300))
    assert np.all(rep.cov_dev <= SE_FACTOR * np.maximum(rep.cov_se, 1e-300))


class TestRademacher:
    def test_d1_support(self, rng):
        s = make_rademacher_product(1, 1.0)
        assert s.bound == 1.0
        draws = s.draw(rng, size=1000)
        assert set(np.unique(draws)) == {-1.0, 1.0}

    def test_d4_norm_forced(self, rng):
        s = make_rademacher_product(4, 1.0)
        assert s.bound == pytest.approx(2.0)
        norms = np.linalg.norm(s.draw(rng, size=500), axis=1)
        assert np.allclose(norms, 2.0)

    def test_d2_covariance_mc(self, rng):
        s = make_rademacher_product(2, 1.0)
        m = 10**6
        draws = s.draw(rng, size=m)
        emp = draws.T @ draws / m
        se = 1.0 / math.sqrt(m)  # entries of products are +-1
        assert np.all(np.abs(emp - np.eye(2)) < 5 * se)

    def test_enumeration(self):
        s = make_rademacher_product(3, 0.5)
        assert len(s.outcomes) == 8
        assert np.allclose(s.probs, 1 / 8)
        assert np.allclose(np.abs(s.outcomes), 0.5)


class TestScaledBasis:
    def test_d1_reduces_to_rademacher(self, rng):
        s = make_scaled_basis(1, 2.0)
        assert set(np.unique(s.draw(rng, size=500))) == {-2.0, 2.0}

    def test_d3_identity_covariance(self):
        s = make_scaled_basis(3, math.sqrt(3.0))
        assert np.allclose(s.cov.variances, 1.0)
        assert s.bound == pytest.approx(math.sqrt(3.0))

    def test_d5_axis_frequencies(self, rng):
        s = make_scaled_basis(5, 1.0)
        m = 10**5
        draws = s.draw(rng, size=m)
        hits = (draws != 0).sum(axis=0) / m
        se = math.sqrt(0.2 * 0.8 / m)
        assert np.all(np.abs(hits - 0.2) < 5 * se)

    def test_norm_always_beta(self, rng):
        s = make_scaled_basis(4, 1.5)
        norms = np.linalg.norm(s.draw(rng, size=2000), axis=1)
        assert np.allclose(norms, 1.5)


class TestDrawSum:
    def test_matches_chunked_sum_moments(self, rng):
        s = make_scaled_basis(2, 1.0)
        n, m = 50, 200000
        fast = s.draw_sum(n, m, rng)
        assert fast.shape == (m, 2)
        # mean 0, covariance n * Sigma, within 5 SE
        se = math.sqrt(n * 0.5) / math.sqrt(m)
        assert np.all(np.abs(fast.mean(axis=0)) < 5 * se)
        emp_var = (fast**2).mean(axis=0)
        se_var = (fast**2).std(axis=0, ddof=1) / math.sqrt(m)
        assert np.all(np.abs(emp_var - n * 0.5) < 5 * se_var)

    def test_rademacher_sum_stays_on_lattice(self, rng):
        s = make_rademacher_product(2, 1.0)
        n = 37
        sn = s.draw_sum(n, 5000, rng) / math.sqrt(n)
        step = 1.0 / math.sqrt(n)
        resid = np.abs(sn / step - np.round(sn / step))
        assert float(resid.max()) < 1e-12


class TestValidate:
    def test_rademacher_max_norm_exact(self, rng):
        rep = validate_sampler(make_rademacher_product(1, 1.0), 10**4, rng)
        assert rep.max_norm == 1.0
        assert_moments_within_se(rep)

    def test_scaled_basis_mean_within_se(self, rng):
        rep = validate_sampler(make_scaled_basis(4, 2.0), 10**6, rng)
        assert np.all(np.abs(rep.mean) <= 5 * rep.mean_se)
        assert_moments_within_se(rep)

    def test_corrupted_bound_raises(self, rng):
        bad = corrupt_bound(make_scaled_basis(2, 2.0), 0.5)
        with pytest.raises(SamplerInvariantError):
            validate_sampler(bad, 10**4, rng)

    def test_requires_enough_draws(self, rng):
        with pytest.raises(ValueError):
            validate_sampler(make_rademacher_product(1, 1.0), 100, rng)


class TestLatticeDistance:
    def test_on_lattice_zero(self):
        assert lattice_distance(np.array([1.0, -1.5]), 0.5) == 0.0

    def test_cell_boundary_midpoint(self):
        assert lattice_distance(np.array([0.5]), 1.0) == 0.5

    def test_2d_example_vs_bruteforce(self):
        x = np.array([0.3, 0.4])
        # oracle: the 9 nearest lattice points
        cands = [
            np.hypot(x[0] - i, x[1] - j)
            for i in (-1, 0, 1)
            for j in (-1, 0, 1)
        ]
        assert lattice_distance(x, 1.0) == pytest.approx(min(cands))
        assert lattice_distance(x, 1.0) == pytest.approx(0.5)

    @given(
        st.integers(1, 3),
        st.floats(0.1, 3.0),
        st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    )
    def test_cell_diameter_bound(self, d, ell, coords):
        x = np.array(coords[:d])
        assert lattice_distance(x, ell) <= ell * math.sqrt(d) / 2 + 1e-12

    def test_batch_shape(self, rng):
        pts = rng.normal(size=(50, 3))
        assert lattice_distance(pts, 1.0).shape == (50,)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_per_row_spacing_column_equals_scalar_calls(self, rng, d):
        # the lattice-distance checker gives every instance its own spacing
        pts = rng.uniform(-3, 3, size=(200, d))
        spacing = rng.uniform(0.3, 2.5, size=(200, 1))
        batch = lattice_distance(pts, spacing)
        assert batch.shape == (200,)
        for x, ell, got in zip(pts, spacing[:, 0], batch):
            assert got == lattice_distance(x, float(ell))


class TestLatticeSupport:
    def test_scaled_basis_accepted(self):
        require_lattice_support(make_scaled_basis(2, 1.0))

    def test_rademacher_d2_rejected(self):
        # corners (+-1, +-1) have norm sqrt(2) = beta but are not in sqrt(2)*Z^2
        with pytest.raises(ValueError):
            require_lattice_support(make_rademacher_product(2, 1.0))

    def test_rademacher_d1_accepted(self):
        require_lattice_support(make_rademacher_product(1, 1.0))

    def test_euclidean_distance_decides(self):
        # (1 - e, e) is within 1e-9 of the lattice per coordinate, but
        # sqrt(2) e > 1e-9 from it
        e = 8e-10
        s = make_lattice_custom(
            np.array([[1 - e, e], [-(1 - e), -e], [1 - e, -e], [-(1 - e), e],
                      [0.0, 1.0], [0.0, -1.0]]),
            np.full(6, 1 / 6))
        assert s.bound == 1.0
        with pytest.raises(ValueError, match="not contained"):
            require_lattice_support(s)


class TestCustomLattice:
    def test_asymmetric_two_point(self):
        s = make_lattice_custom(np.array([[-1.0], [2.0]]),
                                np.array([2 / 3, 1 / 3]))
        assert s.bound == 2.0
        assert s.cov.variances[0] == pytest.approx(2.0)

    def test_mean_zero_enforced(self):
        with pytest.raises(ValueError):
            make_lattice_custom(np.array([[1.0], [2.0]]), np.array([0.5, 0.5]))

    def test_diagonal_covariance_enforced(self):
        outs = np.array([[1.0, 1.0], [-1.0, -1.0]])
        with pytest.raises(ValueError):
            make_lattice_custom(outs, np.array([0.5, 0.5]))

    def test_unequal_variances_canonicalized(self):
        outs = np.array([[1.0, 2.0], [1.0, -2.0], [-1.0, 2.0], [-1.0, -2.0]])
        s = make_lattice_custom(outs, np.full(4, 0.25))
        # canonical frame puts the larger-variance axis first
        assert s.cov.sigmas[0] == pytest.approx(2.0)
        assert np.allclose(np.abs(s.outcomes[:, 0]), 2.0)



# Every entry point that takes masses, called with one two-atom law ``p``:
# (call, the name its error gives the bad law, the tolerance on the sum).
MASS_ENTRY_POINTS = {
    "make_lattice_custom": (
        lambda p: make_lattice_custom(np.array([[-1.0], [1.0]]), p), "probs", LAW_MASS_TOL),
    "DensityRatioModel.mixture": (
        lambda p: DensityRatioModel.mixture([[0.0], [1.0]], p, CovarianceSpec([1.0]), 0.9),
        "probs", MASS_TOL),
    "w2_atoms_gaussian_1d": (lambda p: w2_atoms_gaussian_1d([0.0, 1.0], p, 1.0), "probs", MASS_TOL),
    "w2_gaussian_mixture_1d": (
        lambda p: w2_gaussian_mixture_1d([0.0, 1.0], p, 0.9, 1.0), "probs", MASS_TOL),
    "w2_gaussian_mixture_1d stack": (
        lambda p: w2_gaussian_mixture_1d([0.0, 1.0], [[0.5, 0.5], p, p], 0.9, 1.0),
        "probs row 1", MASS_TOL),
    "w2_atomic_1d": (lambda p: w2_atomic_1d([0.0, 1.0], p, [0.0], [1.0]), "p", MASS_TOL),
    "w2_discrete_lp": (lambda p: w2_discrete_lp([[0.0], [1.0]], p, [[0.0]], [1.0]), "p", MASS_TOL),
    "conditional_l2_check p_a": (
        lambda p: conditional_l2_check(np.ones((2, 2)), p, [0.5, 0.5]), "p_a", MASS_TOL),
    "conditional_l2_check p_b": (
        lambda p: conditional_l2_check(np.ones((2, 2)), [0.5, 0.5], p), "p_b", MASS_TOL),
}


class TestMassContract:
    """One mass check, :func:`check_masses`, behind every finite law."""

    @pytest.mark.parametrize("site", MASS_ENTRY_POINTS)
    @pytest.mark.parametrize("probs", [[0.5, math.nan], [1.5, -0.5], [0.5, 0.6], [math.inf, 0.0]],
                             ids=["nan", "negative", "off-sum", "infinite"])
    def test_entry_point_rejects_a_bad_law(self, site, probs):
        call, name, _ = MASS_ENTRY_POINTS[site]
        with pytest.raises(ValueError, match=rf"^{name} must be finite, nonnegative and sum to 1"):
            call(np.array(probs))

    @pytest.mark.parametrize("site", MASS_ENTRY_POINTS)
    def test_entry_point_takes_a_sum_within_its_tolerance(self, site):
        call, _, tol = MASS_ENTRY_POINTS[site]
        call(np.array([0.5, 0.5 - tol / 2]))

    def test_names_the_first_bad_row_and_checks_the_shape(self):
        rows = np.full((2, 3, 2), 0.5)
        rows[1, 2] = [0.5, math.nan]
        rows[1, 1] = [0.25, 0.25]
        with pytest.raises(ValueError, match=r"^p row \(1, 1\) must be .*: min 0\.25, sum 0\.5$"):
            check_masses(rows, name="p")
        with pytest.raises(ValueError, match=r"^probs has shape \(2,\), expected \(3,\)$"):
            check_masses([0.5, 0.5], (3,))
        assert check_masses([[1.0, 0.0]], (1, 2)).dtype == float
