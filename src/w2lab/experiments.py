"""End-to-end experiments: rate reproduction, lattice floor, halfspace distance.

Every experiment rests on the exact law of S_n, so none draws: each takes
its leg's dataclass config alone, and its points are bit-identical across runs
and across worker counts.  The lattice floor of the lower verdicts is
exact; so are the ci legs' W2 and halfspace statistic, read off the exact
law of S_n along a fixed direction family, which the ``halfspace-exact`` checker
(:mod:`w2lab.checks`) certifies against enumeration.
Each experiment returns its points, a tuple of plain dataclasses, one per n;
the verdicts, the fits and the tables (the named fields of each point) are
stated from them in :mod:`w2lab.cli`.

W2(S_n, Z) is exact wherever the sampler's law factorises into independent
one-dimensional lattice walks (:func:`lattice_factors`): in the canonical
frame, or in d = 2 in the frame turned by 45 degrees.  That covers every
default leg, and it is a hypothesis of every leg: a config whose law has no
such form is rejected at construction, naming the law.  One law engine
serves every exact quantity of S_n: :func:`_walks` derives the 1-d walk
<X, a> of each direction a, and :meth:`LatticeWalk.law` gives its sum's
atoms and :func:`walk_pmf` masses, which the W2 legs (the closed-form
quantile-cell sum :func:`w2lab.transport.w2_atoms_gaussian_1d`), the
halfspace statistic (:func:`walk_gap`) and the checkers all read.  Each
walk's W2 at each n, and each kernel's squarings kernel^(2^j), are computed
once per process (:meth:`LatticeWalk.w2`, :func:`_squarings`): the legs that
share a law, and the two equal coordinates of the 45-degree frame, reuse
them, and the same ``np.convolve`` calls run in the same order, so every
value is bitwise the uncached one.  A config builds its sampler once
(``law``) and checks at construction everything that depends on it alone
(the n grid, the exact law, the lower legs' lattice support, the ci legs'
halfspace walks), so a bad config fails before any compute.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import rate_envelope
from .gaussmath import CovarianceSpec, norm_cdf
from .samplers import (
    BoundedSampler,
    make_lattice_custom,
    make_rademacher_product,
    make_scaled_basis,
    require_lattice_support,
)
from .transport import w2_atoms_gaussian_1d
# perfbench/test_perfbench.py checks that its tracer rebinds this name here
from .transport import w2_exact  # noqa: F401
# perfbench/tracing.py pins this name here; no experiment calls it
from .transport import estimate_w2  # noqa: F401

# the rate and ci legs' n grid: 16 to 4096 in powers of 2
N_GRID_DEFAULT = tuple(2**k for k in range(4, 13))
# the most lattice steps one draw may span along a coordinate of an exact law:
# the pmf of S_n there has at most WALK_SPAN_CAP n + 1 points
WALK_SPAN_CAP = 16
# how far, in lattice steps, an outcome may lie from its lattice point
_LATTICE_TOL = 1e-9
# the d = 2 frame turned by 45 degrees: scaled_basis(2, beta) read in it is
# rademacher_product(2, beta / sqrt(2))
DIAGONAL_FRAME = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)


@dataclass(frozen=True)
class SamplerSpec:
    """Config-file description of a sampler; ``build()`` realizes it.

    ``outcomes``/``probs`` (tuples of tuples / tuple of floats) describe a
    lattice_custom support, which sets its own scale (``scale`` must be 1);
    the parametric kinds reject them.
    """

    kind: str
    dim: int
    scale: float = 1.0  # rademacher scale, or beta for the basis kind
    outcomes: Optional[tuple[tuple[float, ...], ...]] = None
    probs: Optional[tuple[float, ...]] = None

    def build(self) -> BoundedSampler:
        parametric = {"rademacher_product": make_rademacher_product,
                      "scaled_basis": make_scaled_basis}
        if self.kind in parametric:
            if self.outcomes is not None or self.probs is not None:
                raise ValueError(f"sampler {self.kind!r} takes no outcomes or probs")
            return parametric[self.kind](self.dim, self.scale)
        if self.kind == "lattice_custom":
            if self.outcomes is None or self.probs is None:
                raise ValueError("lattice_custom needs explicit outcomes and probs")
            if self.scale != 1:
                raise ValueError(f"lattice_custom takes its scale from its outcomes, got scale "
                                 f"= {self.scale}; a leg whose default sampler has another "
                                 f"scale (rate_d2, ci_d2) needs scale = 1 written out")
            outs = np.asarray(self.outcomes, dtype=float)
            if outs.ndim != 2 or outs.shape[1] != self.dim:
                raise ValueError(
                    f"outcomes must be rows of length dim={self.dim}"
                )
            return make_lattice_custom(outs, np.asarray(self.probs, dtype=float))
        raise ValueError(f"unknown sampler kind {self.kind!r}")


# ---------------------------------------------------------------------------
# The exact law of S_n
# ---------------------------------------------------------------------------

@functools.cache
def _squarings(kernel: tuple) -> list:
    """The kernel's squarings kernel^(2^j), j = 0, 1, ..., as read-only arrays:
    one list per kernel and process, which :func:`walk_pmf` extends on demand."""
    first = np.array(kernel, dtype=float)
    first.flags.writeable = False
    return [first]


def walk_pmf(kernel, n: int) -> np.ndarray:
    """pmf at k = 0..n (len(kernel) - 1) of a sum of n i.i.d. steps in {0, ...,
    len(kernel) - 1}, whose probabilities ``kernel`` holds: its n-fold
    ``np.convolve`` power, by binary powering over the kernel's shared
    :func:`_squarings`, each the square of the one before.  The one law engine
    of this module."""
    powers, pmf = _squarings(tuple(kernel)), np.ones(1)
    for j in range(int(n).bit_length()):
        if j == len(powers):
            square = np.convolve(powers[-1], powers[-1])
            square.flags.writeable = False
            powers.append(square)
        if n >> j & 1:
            pmf = np.convolve(pmf, powers[j])
    return pmf


@dataclass(frozen=True)
class LatticeWalk:
    """A coordinate's law, ``start + span * k`` with k ~ ``kernel`` on {0, ...,
    len(kernel) - 1}, with its Gaussian counterpart N(0, sd^2)."""

    start: float
    span: float
    kernel: tuple
    sd: float

    def law(self, n: int) -> tuple:
        """The law of n^{-1/2} (X_1 + ... + X_n): its atoms (n start + span k) /
        sqrt(n), k = 0..n (len(kernel) - 1), in increasing order, and their
        :func:`walk_pmf` masses.  The one place that knows S_n's atoms."""
        pmf = walk_pmf(self.kernel, n)
        return (n * self.start + self.span * np.arange(len(pmf))) / math.sqrt(n), pmf

    @functools.cache
    def w2(self, n: int) -> float:
        """Exact W2(n^{-1/2} (X_1 + ... + X_n), N(0, sd^2)): the quantile-cell sum
        on :meth:`law`, computed once per (walk, n) and process, so equal walks
        (the legs' shared laws, the 45-degree frame's two coordinates) share it."""
        return w2_atoms_gaussian_1d(*self.law(n), self.sd)


def _lattice_walk(values: np.ndarray, probs: np.ndarray, sd: float) -> Optional[LatticeWalk]:
    """Values (of positive masses ``probs``) as a :class:`LatticeWalk`, on the
    coarsest lattice through them, or None past ``WALK_SPAN_CAP`` steps."""
    start = float(values.min())
    width = float(values.max()) - start
    for steps in range(1, WALK_SPAN_CAP + 1):
        k = (values - start) * (steps / width)
        if np.all(np.abs(k - np.rint(k)) <= _LATTICE_TOL):
            kernel = np.bincount(np.rint(k).astype(int), weights=probs, minlength=steps + 1)
            return LatticeWalk(start, width / steps, tuple(kernel.tolist()), sd)
    return None


def _walks(s: BoundedSampler, dirs: np.ndarray) -> list:
    """For each row a of ``dirs``, <X, a> over the law's live atoms as a
    :class:`LatticeWalk` against N(0, a^T Sigma a), or None where it has none:
    the one derivation of the 1-d walks that every exact quantity reads."""
    live = s.probs > 0
    sds = np.sqrt(dirs**2 @ s.cov.variances)
    return [_lattice_walk(col, s.probs[live], float(sd))
            for col, sd in zip((s.outcomes[live] @ dirs.T).T, sds)]


def lattice_factors(s: BoundedSampler) -> Optional[tuple]:
    """The sampler's law as independent :class:`LatticeWalk` coordinates of an
    orthonormal frame, or None when it has no such form.

    The frames tried are the canonical one and, in d = 2, the one turned by
    45 degrees.  A frame serves when each coordinate is a lattice walk
    (:func:`_walks`) and the joint law is their product: as many support
    points as the product of the kernels' supports, each with the product of
    its coordinates' masses (to 1e-12).  The law of S_n is then the product of
    the walks' laws, and so is N(0, Sigma): each coordinate's variance is its
    own, ``sd^2``.
    """
    live = s.probs > 0
    probs = s.probs[live]
    for frame in [np.eye(s.dim)] + ([DIAGONAL_FRAME] if s.dim == 2 else []):
        walks = _walks(s, frame)
        if any(w is None for w in walks):
            continue
        coords = s.outcomes[live] @ frame.T
        index = np.rint((coords - [w.start for w in walks]) / [w.span for w in walks]).astype(int)
        order = np.lexsort(index.T)  # equal cells adjacent; np.unique(axis=0) is 20x slower
        index = index[order]
        first = np.r_[True, np.any(index[1:] != index[:-1], axis=1)]
        cells, mass = index[first], np.add.reduceat(probs[order], np.flatnonzero(first))
        product = np.prod([np.asarray(w.kernel)[col] for w, col in zip(walks, cells.T)], axis=0)
        support = math.prod(np.count_nonzero(w.kernel) for w in walks)
        if len(cells) == support and np.max(np.abs(mass - product)) <= 1e-12:
            return tuple(walks)
    return None


def exact_w2_of_sum(factors: tuple, n: int) -> float:
    """Exact W2(S_n, Z) of a law given by its :func:`lattice_factors`: the
    root of the sum of the coordinates' squared values (the product of the
    coordinates' optimal couplings is optimal, and W2 is rotation-invariant)."""
    return math.sqrt(math.fsum(walk.w2(n) ** 2 for walk in factors))


class _ExperimentLeg:
    """The built law and its lattice factors, derived once per config object and
    kept out of its fields, so the config echo and hash ignore them; and the
    checks every experiment config shares."""

    @functools.cached_property
    def law(self) -> BoundedSampler:
        """The sampler, built once per config object."""
        return self.sampler.build()

    @functools.cached_property
    def factors(self) -> tuple:
        """The law's :func:`lattice_factors`."""
        return lattice_factors(self.law)

    def _check_leg(self, fits_slope: bool = True) -> BoundedSampler:
        """Check the n grid (stored as ints) and the exact law; return the law."""
        s = self.law
        grid = tuple(int(n) for n in self.n_grid)
        if not grid or grid[0] < 1:
            raise ValueError("n grid must be non-empty with every n >= 1")
        if fits_slope and len(grid) < 2:
            raise ValueError(f"n_grid must hold at least 2 values to fit a slope, got {grid}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("n grid must be strictly increasing")
        object.__setattr__(self, "n_grid", grid)
        if self.factors is None:
            raise ValueError(f"sampler {s.kind}(dim={s.dim}) has no exact law of S_n")
        return s


# ---------------------------------------------------------------------------
# Rate experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateExperimentConfig(_ExperimentLeg):
    sampler: SamplerSpec
    n_grid: tuple[int, ...] = N_GRID_DEFAULT

    def __post_init__(self):
        self._check_leg()


@dataclass(frozen=True)
class RatePoint:
    n: int
    w2_hat: float  # the exact W2(S_n, Z)
    bound: float


def main_rate_bound(d: int, beta: float, n: int) -> float:
    """The main upper bound: the envelope 5 sqrt(d) beta (1 + log n) over sqrt(n)."""
    return rate_envelope(d, beta, n) / math.sqrt(n)


def clt_rate_experiment(cfg: RateExperimentConfig) -> tuple:
    """The exact W2(S_n, Z) over the n grid, with the rate bound at each n."""
    s = cfg.law
    return tuple(RatePoint(n=n, w2_hat=exact_w2_of_sum(cfg.factors, n),
                           bound=main_rate_bound(s.dim, s.bound, n)) for n in cfg.n_grid)


# ---------------------------------------------------------------------------
# Lattice lower bound
# ---------------------------------------------------------------------------

def _lattice_sq_distance_1d(sigma: float, ell: float) -> float:
    """Exact E dist(Z, ell Z)^2 for Z ~ N(0, sigma^2), cell by cell to 12 sigma.

    In sigma units (h = ell / sigma) the lattice point t owns [a, b] =
    [t - h/2, t + h/2], on which ``int (u - t)^2 phi(u) du = (1 + t^2)(Phi(b) -
    Phi(a)) - 2t(phi(a) - phi(b)) + a phi(a) - b phi(b)``.  By symmetry the cells
    t > 0 count twice, their Phi(b) - Phi(a) taken from the upper tails.
    """
    h = ell / sigma
    t = h * np.arange(int(12.0 / h + 0.5) + 1)
    a, b = t - h / 2, t + h / 2
    phi_a, phi_b = np.exp(-a * a / 2), np.exp(-b * b / 2)
    cells = ((1 + t * t) * (norm_cdf(-a) - norm_cdf(-b))
             + (-2 * t * (phi_a - phi_b) + a * phi_a - b * phi_b) / math.sqrt(2 * math.pi))
    cells[1:] *= 2
    return sigma * sigma * math.fsum(cells)


def expected_lattice_distance(cov: CovarianceSpec, spacing: float) -> float:
    """The exact lattice floor sqrt(E d_L(Z)^2), Z ~ N(0, Sigma), L = spacing * Z^d.

    A law supported on L is at distance at least d_L(Z) from Z under every
    coupling, so W2(., Z) >= sqrt(E d_L(Z)^2).  With Sigma diagonal,
    E d_L(Z)^2 is the sum over the coordinates of E dist(Z_i, spacing Z)^2,
    each an exact sum of Gaussian partial moments over the lattice cells.
    """
    return math.sqrt(math.fsum(_lattice_sq_distance_1d(float(sd), spacing)
                               for sd in cov.sigmas))


@dataclass(frozen=True)
class LowerBoundPoint:
    n: int
    ell_n: float
    sqrtn_w2_hat: float
    sqrtn_floor: float  # sqrt(n) * the exact lattice floor
    sqrtn_bound: float  # sqrt(n) * the main rate bound


@dataclass(frozen=True)
class LowerExperimentConfig(_ExperimentLeg):
    sampler: SamplerSpec
    n_grid: tuple[int, ...] = (64, 256, 1024, 4096)

    def __post_init__(self):
        require_lattice_support(self._check_leg(fits_slope=False))


def lattice_lower_experiment(cfg: LowerExperimentConfig) -> tuple:
    """Track sqrt(n) * W2 and the exact lattice floor along the n grid.

    The sampler takes values in beta * Z^d (checked by the config).  At scale n the
    normalized sum lives on the lattice with spacing ell_n = beta / sqrt(n),
    so :func:`expected_lattice_distance` with that spacing lower-bounds
    W2(S_n, Z).  Its sqrt(n)-scaled value tends to beta sqrt(d / 12), above
    the target sqrt(d) * beta / 4, and must stay below the main rate bound.
    The W2 column is exact, and lies above the floor.
    """
    s = cfg.law
    points = []
    for n in cfg.n_grid:
        ell = s.bound / math.sqrt(n)
        floor = expected_lattice_distance(s.cov, ell)
        rn = math.sqrt(n)
        points.append(LowerBoundPoint(
            n=n, ell_n=ell, sqrtn_w2_hat=rn * exact_w2_of_sum(cfg.factors, n),
            sqrtn_floor=rn * floor, sqrtn_bound=rn * main_rate_bound(s.dim, s.bound, n)))
    return tuple(points)


# ---------------------------------------------------------------------------
# Halfspace (convex-indicator proxy) experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HalfspacePoint:
    n: int
    delta: float  # the exact halfspace statistic of S_n
    w2_hat: float  # the exact W2(S_n, Z)
    conversion_rhs: float  # 5 d^{1/6} w2_hat^{2/3}


@dataclass(frozen=True)
class HalfspaceConfig(_ExperimentLeg):
    sampler: SamplerSpec
    n_grid: tuple[int, ...] = N_GRID_DEFAULT

    def __post_init__(self):
        self._check_leg()
        self.walks  # a law with a direction that is no lattice walk fails here

    @functools.cached_property
    def walks(self) -> tuple:
        """The law's :func:`halfspace_walks`."""
        return halfspace_walks(self.law)


def conversion_bound(d: int, w2: float) -> float:
    """The convex-indicator conversion 5 d^{1/6} W2^{2/3}."""
    return 5.0 * d ** (1.0 / 6.0) * w2 ** (2.0 / 3.0)


def walk_gap(walk: LatticeWalk, n: int) -> float:
    """Exact sup_t |P(W <= t) - Phi(t/sd)| for W = n^{-1/2} (X_1 + ... + X_n) of
    the walk, on its :meth:`LatticeWalk.law`.

    Between the atoms x the CDF F of W is flat while Phi rises, so the
    supremum is |F(x) - Phi(x/sd)| or |F(x-) - Phi(x/sd)|.
    """
    atoms, pmf = walk.law(n)
    cdf = np.cumsum(pmf)
    gauss = norm_cdf(atoms / walk.sd)
    left = np.concatenate(([0.0], cdf[:-1]))
    return float(max(np.max(np.abs(cdf - gauss)), np.max(np.abs(left - gauss))))


def halfspace_walks(s: BoundedSampler) -> tuple:
    """The distinct walks <X, a> (:func:`_walks`) along the halfspace family's d^2
    directions a, {e_i} and {e_i +- e_j : i < j} in the canonical sorted frame;
    a direction that is no lattice walk raises, naming the law."""
    eye = np.eye(s.dim)
    dirs = np.array([*eye, *(eye[i] + sign * eye[j] for i in range(s.dim)
                             for j in range(i + 1, s.dim) for sign in (1.0, -1.0))])
    walks = _walks(s, dirs)
    if any(w is None for w in walks):
        raise ValueError(f"sampler {s.kind}(dim={s.dim}) has a halfspace direction that is "
                         f"no lattice walk of at most {WALK_SPAN_CAP} steps")
    return tuple(dict.fromkeys(walks))


def halfspace_distance(walks: tuple, n: int) -> float:
    """Exact sup over the family's halfspaces of |P(S_n in A) - P(Z in A)|: the
    largest :func:`walk_gap` of a law's :func:`halfspace_walks`.  A restricted
    supremum: a lower bound on the full convex-set distance."""
    return float(np.max([walk_gap(walk, n) for walk in walks]))


def ci_halfspace_experiment(cfg: HalfspaceConfig) -> tuple:
    """Measure the halfspace distance and the conversion bound along the n grid.

    Both sides are exact: :func:`halfspace_distance` on the config's walks, and
    the conversion bound at the exact W2(S_n, Z).
    """
    points = []
    for n in cfg.n_grid:
        w2 = exact_w2_of_sum(cfg.factors, n)
        points.append(HalfspacePoint(n=n, delta=halfspace_distance(cfg.walks, n), w2_hat=w2,
                                     conversion_rhs=conversion_bound(cfg.law.dim, w2)))
    return tuple(points)


def bentkus_reference_curve(d: int, n: int, beta3: float) -> float:
    """Reference-only convex-distance curve d^{1/4} beta3^3 / sqrt(n).

    Plot overlay with the constant taken as 1; never asserted against
    measurements (non-normative).
    """
    return d**0.25 * beta3**3 / math.sqrt(n)
