"""Density ratios f = tau/rho and the transportation-inequality chain.

``rho`` is the density of the reference Gaussian Z ~ N(0, Sigma) and ``tau``
the density of Z_{1-1/n} + Y, with Y = X/sqrt(n) a rescaled bounded draw.
Dividing two near-zero tails is hopeless numerically, so f is always
evaluated through its mixture representation

    f(x) = E_Y[ (1-1/n)^{-k/2} exp( -|x|_w^2/(2n-2) + n<x,Y>_w/(n-1)
                                     - n|Y|_w^2/(2n-2) ) ],

with w the inverse-covariance weights; every term is bounded above, so the
evaluation is stable everywhere.  Coordinate averagings f_(i) (average along
axis i) and prefix averagings f_[k] (average over all but the first k axes)
reduce to the same formula on projected data.

Every integral against rho or one of its marginals (second moments,
normalization, the entropy and chi-square terms, the generic averagings) is
the one Gauss-Hermite tensor rule :func:`w2lab.gaussmath.gh_grid`, over all
of its nodes; the mixture form keeps f finite at the outermost ones.

The chain report compares, for one model,

    W2(Y-law, Z)^2   <=   entropy telescope RHS   <=   chi-square RHS,

where the middle term is 2 * sum_k sigma_k^2 * E(f_[k] log f_[k] -
f_[k-1] log f_[k-1]) and the right term 2 * sum_i sigma_i^2 * (E f^2 -
E f_(i)^2).  W2 is computed by discretizing both densities onto a grid and
solving exact discrete transport; the report carries Richardson-style error
budgets and states each step once, as an error interval against its bound
(:meth:`ChainReport.steps`).  The budget is a first-order error model, not a
certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import ndtr, roots_legendre, xlogy

from .gaussmath import GH_NODES_DEFAULT, CovarianceSpec, gh_grid
from .samplers import BoundedSampler
from .qstats import q_values
from .transport import w2_atomic_1d, w2_discrete_lp

class QuadratureResolutionError(RuntimeError):
    """Self-reported quadrature failure: node counts disagree too much."""


def _mixture_eval(
    pts: np.ndarray,
    ys: np.ndarray,
    probs: np.ndarray,
    cov: CovarianceSpec,
    n: int,
) -> np.ndarray:
    """The mixture representation of f on points (N, k)."""
    w = 1.0 / cov.variances
    k = cov.dim
    xn2 = (pts**2 * w).sum(axis=-1)  # |x|_w^2, (N,)
    yn2 = (ys**2 * w).sum(axis=-1)  # (s,)
    cross = (pts * w) @ ys.T  # <x, y>_w, (N, s)
    expo = (
        -xn2[:, None] / (2.0 * n - 2.0)
        + n * cross / (n - 1.0)
        - n * yn2[None, :] / (2.0 * n - 2.0)
    )
    pref = (1.0 - 1.0 / n) ** (-k / 2.0)
    return pref * (np.exp(expo) @ probs)


def _support(
    sampler: Optional[BoundedSampler], n: int, cov: Optional[CovarianceSpec]
):
    """(ys, probs, cov): the support of Y = X/sqrt(n), its masses, and Sigma.

    ``sampler=None`` is the zero atom, which needs ``cov``; otherwise ``cov``
    defaults to the sampler's covariance.
    """
    if cov is None:
        if sampler is None:
            raise ValueError("cov is required for the zero sampler")
        cov = sampler.cov
    if sampler is None:
        return np.zeros((1, cov.dim)), np.ones(1), cov
    return sampler.outcomes / math.sqrt(n), sampler.probs, cov


def _gauss_cell_masses_1d(edges: np.ndarray, mean: float, sd: float) -> np.ndarray:
    z = (edges - mean) / sd
    cdf = ndtr(z)
    return np.diff(cdf)


class _RatioBase:
    """Shared quadrature plumbing for density-ratio objects.

    Subclasses provide ``f`` plus (optionally faster) averagings and cell
    masses; the generic versions here integrate numerically with
    Gauss-Hermite replacement of the averaged-out coordinates.
    """

    cov: CovarianceSpec

    @property
    def dim(self) -> int:
        return self.cov.dim

    # -- evaluation interface ------------------------------------------------
    def f(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def f_prefix(self, k: int, pts: np.ndarray) -> np.ndarray:
        """f_[k] on k-dim points: average f over coordinates k+1..d.

        Averaging against the conditional reference Gaussian is the same as
        replacing each dropped coordinate by an independent N(0, sigma_j^2)
        draw, which is what the generic quadrature below does.
        """
        if k == self.dim:
            return self.f(pts)
        if k == 0:
            return np.ones(np.atleast_2d(pts).shape[0])
        return self._avg_over(pts, axes=tuple(range(k, self.dim)))

    def f_avg_coord(self, i: int, pts: np.ndarray) -> np.ndarray:
        """f_(i) on (d-1)-dim points (coordinate i removed)."""
        if self.dim == 1:
            return np.ones(np.atleast_2d(pts).shape[0])
        return self._avg_over(pts, axes=(i,))

    def _avg_over(self, pts: np.ndarray, axes: tuple, nodes: int = 80) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        keep = [j for j in range(self.dim) if j not in axes]
        if pts.shape[1] != len(keep):
            raise ValueError(
                f"expected points of dim {len(keep)}, got {pts.shape[1]}"
            )
        sub, wts = gh_grid(CovarianceSpec(self.cov.sigmas[list(axes)]), nodes=nodes)
        full = np.empty((pts.shape[0], sub.shape[0], self.dim))
        for col, j in enumerate(keep):
            full[:, :, j] = pts[:, col][:, None]
        for col, j in enumerate(axes):
            full[:, :, j] = sub[:, col][None, :]
        vals = self.f(full.reshape(-1, self.dim)).reshape(pts.shape[0], -1)
        return vals @ wts

    # -- reference Gaussian --------------------------------------------------
    def rho(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        w = 1.0 / self.cov.variances
        norm = (2.0 * math.pi) ** (-self.dim / 2.0) / float(np.prod(self.cov.sigmas))
        return norm * np.exp(-0.5 * (pts**2 * w).sum(axis=-1))

    def rho_cell_masses(self, edges: list[np.ndarray]) -> np.ndarray:
        per_axis = [
            _gauss_cell_masses_1d(edges[i], 0.0, self.cov.sigmas[i])
            for i in range(self.dim)
        ]
        out = per_axis[0]
        for a in per_axis[1:]:
            out = np.multiply.outer(out, a)
        return out

    def tau_cell_masses(self, edges: list[np.ndarray]) -> np.ndarray:
        """Cell masses of the perturbed law, generic per-cell quadrature."""
        g = 8
        xg, wg = roots_legendre(g)
        axis_pts, axis_wts = [], []
        for i in range(self.dim):
            e = edges[i]
            half = 0.5 * np.diff(e)
            mid = 0.5 * (e[:-1] + e[1:])
            pts = mid[:, None] + half[:, None] * xg[None, :]  # (cells, g)
            wts = half[:, None] * wg[None, :]
            axis_pts.append(pts.ravel())
            axis_wts.append(wts.ravel())
        mesh = np.meshgrid(*axis_pts, indexing="ij")
        flat = np.stack([m.ravel() for m in mesh], axis=-1)
        dens = self.f(flat) * self.rho(flat)
        wts = axis_wts[0]
        for a in axis_wts[1:]:
            wts = np.multiply.outer(wts, a)
        vals = dens.reshape(wts.shape) * wts
        cells = [len(edges[i]) - 1 for i in range(self.dim)]
        # collapse each axis's g quadrature points back onto its cell
        newshape = []
        for c in cells:
            newshape.extend([c, g])
        shaped = vals.reshape(newshape)
        for ax in reversed(range(1, 2 * len(cells), 2)):
            shaped = shaped.sum(axis=ax)
        return shaped


@dataclass
class ExplicitDensityRatio(_RatioBase):
    """Density ratio given directly as a callable f(points) -> values."""

    func: Callable[[np.ndarray], np.ndarray]
    cov: CovarianceSpec

    def f(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.asarray(self.func(pts), dtype=float)


@dataclass
class DensityRatioModel(_RatioBase):
    """The ratio of law(Z_{1-1/n} + Y) to law(Z) for a bounded sampler.

    ``sampler=None`` means Y = 0 (the pure time-change ratio); ``cov``
    defaults to the sampler's covariance but may be supplied explicitly, in
    which case no moment identities are implied, only the density algebra.
    f is a finite mixture over the sampler's support.
    """

    sampler: Optional[BoundedSampler]
    n: int
    cov: CovarianceSpec = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        self._ys, self._probs, self.cov = _support(self.sampler, self.n, self.cov)
        if self.sampler is not None and self.sampler.dim != self.cov.dim:
            raise ValueError("sampler and covariance dims differ")

    # scaled supports for a projection onto an index subset
    def _proj(self, idx: list[int]):
        return self._ys[:, idx], CovarianceSpec(self.cov.sigmas[idx])

    def f(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return _mixture_eval(pts, self._ys, self._probs, self.cov, self.n)

    def f_prefix(self, k: int, pts: np.ndarray) -> np.ndarray:
        if not 0 <= k <= self.dim:
            raise ValueError(f"k must be in [0, {self.dim}]")
        if k == 0:
            return np.ones(np.atleast_2d(pts).shape[0])
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        ys, cov = self._proj(list(range(k)))
        return _mixture_eval(pts, ys, self._probs, cov, self.n)

    def f_avg_coord(self, i: int, pts: np.ndarray) -> np.ndarray:
        if not 0 <= i < self.dim:
            raise ValueError(f"coordinate {i} out of range")
        if self.dim == 1:
            return np.ones(np.atleast_2d(pts).shape[0])
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        idx = [j for j in range(self.dim) if j != i]
        ys, cov = self._proj(idx)
        return _mixture_eval(pts, ys, self._probs, cov, self.n)

    def tau(self, pts: np.ndarray) -> np.ndarray:
        return self.f(pts) * self.rho(pts)

    def tau_cell_masses(self, edges: list[np.ndarray]) -> np.ndarray:
        """Exact cell masses: the law is a finite mixture of Gaussians."""
        sd = self.cov.sigmas * math.sqrt(1.0 - 1.0 / self.n)
        total = None
        for y, p in zip(self._ys, self._probs):
            per_axis = [
                _gauss_cell_masses_1d(edges[i], y[i], sd[i])
                for i in range(self.dim)
            ]
            block = per_axis[0]
            for a in per_axis[1:]:
                block = np.multiply.outer(block, a)
            total = p * block if total is None else total + p * block
        return total


# ---------------------------------------------------------------------------
# Second-moment identities
# ---------------------------------------------------------------------------

def _second_moment_quad(model: _RatioBase, nodes: int) -> float:
    pts, wts = gh_grid(model.cov, nodes=nodes)
    return float(wts @ model.f(pts) ** 2)


def density_second_moment_lhs(
    model: _RatioBase,
    nodes: int = GH_NODES_DEFAULT,
    check_tol: float = 1e-8,
) -> float:
    """E f(Z)^2 by Gauss-Hermite quadrature of f^2 against rho.

    Recomputes at half the node count and raises if the two disagree beyond
    ``check_tol`` relative, so an under-resolved grid reports itself instead
    of returning garbage.  Supported for dim <= 2.
    """
    if model.dim > 2:
        raise ValueError("quadrature second moment supported for dim <= 2")
    fine = _second_moment_quad(model, nodes)
    coarse = _second_moment_quad(model, nodes // 2)
    if abs(fine - coarse) > check_tol * max(1.0, abs(fine)):
        raise QuadratureResolutionError(
            f"quadrature self-check failed: {fine!r} vs {coarse!r} "
            f"at {nodes}/{nodes // 2} nodes"
        )
    return fine


def density_normalization(model: _RatioBase, nodes: int = GH_NODES_DEFAULT) -> float:
    """E f(Z), which must equal 1 (tau integrates to one)."""
    pts, wts = gh_grid(model.cov, nodes=nodes)
    return float(wts @ model.f(pts))


def density_second_moment_rhs(
    sampler: Optional[BoundedSampler],
    n: int,
    cov: Optional[CovarianceSpec] = None,
) -> float:
    """E exp(Q) over independent pairs, by exact enumeration of the support.

    The closed-form side of E f(Z)^2.
    """
    ys, probs, cov = _support(sampler, n, cov)
    q = q_values(ys[:, None, :], ys[None, :, :], cov, n).sum(axis=-1)
    w = probs[:, None] * probs[None, :]
    return float(np.sum(w * np.exp(q)))


def averaged_second_moment(
    sampler: Optional[BoundedSampler],
    n: int,
    cov: Optional[CovarianceSpec] = None,
    i: int = 0,
) -> float:
    """E f_(i)(Z)^2 = E exp(Q - Q_i) by exact enumeration."""
    ys, probs, cov = _support(sampler, n, cov)
    if not 0 <= i < cov.dim:
        raise ValueError(f"coordinate {i} out of range")
    q_all = q_values(ys[:, None, :], ys[None, :, :], cov, n)
    q_wo = q_all.sum(axis=-1) - q_all[:, :, i]
    w = probs[:, None] * probs[None, :]
    return float(np.sum(w * np.exp(q_wo)))


def _prefix_integrals(
    model: _RatioBase, nodes: int, integrand: Callable[[np.ndarray], np.ndarray]
) -> list:
    """[E integrand(f_[k](Z)) for k = 1..d] by quadrature on the k-dim marginals."""
    out = []
    for k in range(1, model.dim + 1):
        pts, wts = gh_grid(model.cov.head(k), nodes=nodes)
        out.append(float(wts @ integrand(model.f_prefix(k, pts))))
    return out


def prefix_second_moments(
    model: _RatioBase, nodes: int = GH_NODES_DEFAULT
) -> np.ndarray:
    """[E f_[k](Z)^2 for k = 0..d]; f_[0] = 1."""
    return np.array([1.0] + _prefix_integrals(model, nodes, lambda v: v**2))


# ---------------------------------------------------------------------------
# The transportation-inequality chain
# ---------------------------------------------------------------------------

# the factor scaling the difference of the chain's quadrature at GH_NODES_DEFAULT
# nodes per axis and at half as many into its error budget
CHAIN_BUDGET_FACTOR = 3.0


@dataclass(frozen=True)
class ChainGrid:
    """Discretization control for the chain's W2 computation.

    ``points_per_axis`` is the coarse resolution; the fine pass multiplies it
    by ``refine``.  The domain spans ``radius_sigmas`` reference standard
    deviations per axis, widened by the mixture shifts.
    """

    points_per_axis: int
    refine: float
    radius_sigmas: float

    def resolutions(self) -> tuple[int, int]:
        """(coarse, fine) points per axis."""
        base = self.points_per_axis
        return base, max(base + 1, int(math.ceil(base * self.refine)))


@dataclass(frozen=True)
class ChainReport:
    w2_sq: float  # Richardson-extrapolated estimate
    w2_sq_raw: float  # fine-grid value
    rhs_entropy: float
    rhs_chi2: float
    budget_w2: float  # infinite when the extrapolation collapsed
    budget_quad: float
    equality_atol: float  # rounding allowance of both steps' bounds

    def steps(self) -> tuple:
        """The two steps as (statement, (lo, hi), bound): an estimate +- its budget
        against the next term plus ``equality_atol``; W2^2 >= 0 clips its lower edge."""
        w2, quad = self.budget_w2 + self.budget_quad, self.budget_quad
        return (("W2^2 <= entropy RHS", (max(self.w2_sq - w2, 0.0), self.w2_sq + w2),
                 self.rhs_entropy + self.equality_atol),
                ("entropy RHS <= chi-square RHS", (self.rhs_entropy - quad, self.rhs_entropy + quad),
                 self.rhs_chi2 + self.equality_atol))


def _entropy_functional(model: _RatioBase, nodes: int) -> np.ndarray:
    """[E f_[k] log f_[k] for k = 0..d]; the k = 0 term is 0."""
    return np.array([0.0] + _prefix_integrals(model, nodes, lambda v: xlogy(v, v)))


def _chi2_terms(model: _RatioBase, nodes: int) -> np.ndarray:
    """[E f^2 - E f_(i)^2 for each i] by quadrature."""
    ef2 = _second_moment_quad(model, nodes)
    if model.dim == 1:
        return np.array([ef2 - 1.0])
    terms = []
    for i in range(model.dim):
        pts, wts = gh_grid(model.cov.drop(i), nodes=nodes)
        terms.append(ef2 - float(wts @ model.f_avg_coord(i, pts) ** 2))
    return np.array(terms)


def _grid_edges(model: _RatioBase, cells: int, radius_sigmas: float):
    shifts = np.zeros(model.dim)
    ys = getattr(model, "_ys", None)
    if ys is not None:
        shifts = np.abs(ys).max(axis=0)
    edges = []
    for i in range(model.dim):
        half = radius_sigmas * model.cov.sigmas[i] + shifts[i]
        edges.append(np.linspace(-half, half, cells + 1))
    return edges


def _grid_w2_sq(model: _RatioBase, cells: int, radius_sigmas: float):
    """Exact discrete W2^2 between the gridded reference and perturbed laws."""
    edges = _grid_edges(model, cells, radius_sigmas)
    centers = [0.5 * (e[:-1] + e[1:]) for e in edges]
    p = model.rho_cell_masses(edges)
    q = model.tau_cell_masses(edges)
    mass_loss = float(max(1.0 - p.sum(), 1.0 - q.sum(), 0.0))
    if model.dim == 1:
        x = centers[0]
        keep_p = p > 1e-17
        keep_q = q > 1e-17
        val = w2_atomic_1d(
            x[keep_p], p[keep_p] / p[keep_p].sum(),
            x[keep_q], q[keep_q] / q[keep_q].sum(),
        )
        return val, mass_loss
    mesh = np.meshgrid(*centers, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    pf = p.ravel()
    qf = q.ravel()
    keep_p = pf > 1e-13
    keep_q = qf > 1e-13
    val = w2_discrete_lp(
        pts[keep_p], pf[keep_p] / pf[keep_p].sum(),
        pts[keep_q], qf[keep_q] / qf[keep_q].sum(),
    )
    return val, mass_loss


def talagrand_chain(model: _RatioBase, grid: ChainGrid) -> ChainReport:
    """Evaluate the chain W2^2 <= entropy-RHS <= chi2-RHS for one model.

    Returns the estimates with the Richardson correction as the W2^2 error
    budget, which is infinite (the step's interval [0, inf)) when the
    extrapolated W2^2 turns substantially negative: the error model collapsed.
    """
    if model.dim not in (1, 2):
        raise ValueError("the chain is computed for dim in {1, 2} only")

    coarse_n, fine_n = grid.resolutions()
    w2_coarse, _ = _grid_w2_sq(model, coarse_n, grid.radius_sigmas)
    w2_fine_raw, mass_loss = _grid_w2_sq(model, fine_n, grid.radius_sigmas)
    # first-order Richardson in the cell size h ~ 1/N: the same-grid atomic
    # cost overshoots the continuous value by ~C*h, so extrapolate downward
    # and keep the full correction as the error budget (the raw fine value is
    # then the upper edge of the reported interval).
    ratio = coarse_n / (fine_n - coarse_n)
    w2_extrap = w2_fine_raw - ratio * (w2_coarse - w2_fine_raw)
    collapsed = w2_extrap < -0.25 * max(w2_fine_raw, 1e-12)
    w2_est = max(w2_extrap, 0.0)

    ent_fine = _entropy_functional(model, GH_NODES_DEFAULT)
    ent_coarse = _entropy_functional(model, GH_NODES_DEFAULT // 2)
    chi_fine = _chi2_terms(model, GH_NODES_DEFAULT)
    chi_coarse = _chi2_terms(model, GH_NODES_DEFAULT // 2)

    var = model.cov.variances
    rhs_entropy = float((2.0 * var * np.diff(ent_fine)).sum())
    rhs_entropy_c = float((2.0 * var * np.diff(ent_coarse)).sum())
    rhs_chi2 = float((2.0 * var * chi_fine).sum())
    rhs_chi2_c = float((2.0 * var * chi_coarse).sum())

    scale = max(abs(w2_fine_raw), abs(rhs_entropy), abs(rhs_chi2), 1e-12)
    budget_w2 = math.inf if collapsed else abs(w2_fine_raw - w2_est) + 4.0 * mass_loss * scale
    budget_quad = CHAIN_BUDGET_FACTOR * max(
        abs(rhs_entropy - rhs_entropy_c), abs(rhs_chi2 - rhs_chi2_c)
    )
    return ChainReport(
        w2_sq=w2_est,
        w2_sq_raw=w2_fine_raw,
        rhs_entropy=rhs_entropy,
        rhs_chi2=rhs_chi2,
        budget_w2=budget_w2,
        budget_quad=budget_quad,
        equality_atol=max(1e-10, 1e-8 * scale),
    )

