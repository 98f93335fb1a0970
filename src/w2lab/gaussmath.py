"""Gaussian geometry for diagonal covariances.

Everything here works with centered Gaussians N(0, t*Sigma) where Sigma =
diag(sigma_1^2, ..., sigma_d^2) and sigma_1 >= ... >= sigma_d > 0;
non-diagonal covariances are out of scope.  Functions take a Gaussian as its
:class:`CovarianceSpec` and time scale t (default 1, the reference Gaussian).

The module also hosts the package's two standard normal kernels, which
need no SciPy:

* :func:`norm_cdf` -- Phi(x) = erfc(-x/sqrt 2) / 2 through ``math.erfc``,
  one element at a time (about 0.1 us per element fed as a list);
* :func:`norm_ppf` -- Phi^-1(p) by Wichura's rational approximations,
  *Algorithm AS 241: The percentage points of the normal distribution*,
  Applied Statistics 37 (1988) 477-484 (PPND16, about 16 digits; the
  coefficients of CPython's ``statistics.NormalDist.inv_cdf``), vectorised.

and the Gauss-Hermite nodes and the tensor grid used as the quadrature
oracle for every density integral in the package (200 nodes per axis by
default).  The rules come from ``numpy.polynomial.hermite_e.hermegauss``:
the nodes are the eigenvalues of the probabilists' Hermite Jacobi matrix
(Golub & Welsch, *Calculation of Gauss quadrature rules*, Math. Comp. 23
(1969) 221-230), refined by one Newton step, so no SciPy module is loaded;
:func:`gh_nodes_weights` caches each rule.  The Gauss-Hermite values that
carry an error are budgeted by the one rule :func:`gh_budget`: the
transportation chain's sides, the increment step's W2 and the marginal
W2^2 of ``talagrand-2d``.  Others carry no budget and are compared with a
fixed tolerance: ``gauss-quad-expectation``'s tensor sums against their
closed form, ``chi2-identity``'s E f^2 and normalization records (with its
own record that 200 and 100 nodes agree to 1e-8 relative) and
``averaged-identity``'s quadrature oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

GH_NODES_DEFAULT = 200
# the factor scaling the change of a Gauss-Hermite sum between its node count
# and half as many into its error budget
GH_BUDGET_FACTOR = 3.0


class DimensionMismatchError(ValueError):
    """Vector length does not match the covariance dimension."""


class DivergentIntegralError(ValueError):
    """The quadratic-exponential moment does not exist (a >= 1/2)."""


@dataclass(frozen=True)
class CovarianceSpec:
    """Diagonal covariance diag(sigmas**2), stored with sigmas non-increasing.

    ``sigmas`` are standard deviations.  Construction sorts them into
    non-increasing order and records the permutation applied; this sorted
    frame is the canonical coordinate system of the whole package (prefix
    projections always mean "the k largest-variance axes").  Vectors supplied
    in the construction order can be mapped in with :meth:`canonicalize`.
    """

    sigmas: np.ndarray
    permutation: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __init__(self, sigmas: Sequence[float]):
        arr = np.asarray(sigmas, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("sigmas must be a non-empty 1-d sequence")
        if not np.all((arr > 0) & np.isfinite(arr)):
            raise ValueError("all sigmas must be finite and strictly positive")
        order = np.argsort(-arr, kind="stable")
        object.__setattr__(self, "sigmas", arr[order])
        object.__setattr__(self, "permutation", order)

    @property
    def dim(self) -> int:
        return self.sigmas.size

    @property
    def variances(self) -> np.ndarray:
        return self.sigmas**2

    @property
    def sigma_min(self) -> float:
        return float(self.sigmas[-1])

    def canonicalize(self, v: np.ndarray) -> np.ndarray:
        """Reorder a construction-order vector (or batch) into sorted coordinates."""
        v = np.asarray(v, dtype=float)
        return v[..., self.permutation]

    def __eq__(self, other) -> bool:
        return isinstance(other, CovarianceSpec) and np.array_equal(
            self.sigmas, other.sigmas
        )


def _check_dim(v: np.ndarray, cov: CovarianceSpec, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != cov.dim:
        raise DimensionMismatchError(
            f"{name} has length {v.shape[-1]}, covariance has dim {cov.dim}"
        )
    return v


def sample_gaussian(
    cov: CovarianceSpec, count: int, rng: np.random.Generator, time_scale: float = 1.0
) -> np.ndarray:
    """i.i.d. draws from N(0, t*Sigma), t = ``time_scale`` > 0, shape (count, dim).

    Deterministic given the generator state; callers own seeding.
    """
    if not time_scale > 0:
        raise ValueError("time_scale must be strictly positive")
    if count < 1:
        raise ValueError("count must be >= 1")
    z = rng.standard_normal((count, cov.dim))
    z *= np.sqrt(time_scale) * cov.sigmas
    return z


def gaussian_exp_quadratic(
    a: float, b: float, v: np.ndarray, cov: CovarianceSpec
) -> float:
    """E[exp(a*|Z|_w^2 + b*<Z, v>_w)] for Z ~ N(0, Sigma), w = Sigma^{-1} weights.

    Closed form: exp(b^2 |v|_w^2 / (2 - 4a)) * (1 - 2a)^(-k/2), valid for
    a < 1/2; the integral diverges otherwise.
    """
    if a >= 0.5:
        raise DivergentIntegralError(f"integral diverges for a={a} >= 1/2")
    v = _check_dim(v, cov, "v")
    vnorm2 = float(np.sum(v * v / cov.variances))
    k = cov.dim
    return math.exp(b * b * vnorm2 / (2.0 - 4.0 * a)) * (1.0 - 2.0 * a) ** (-k / 2.0)


def w2_gaussian_diag(
    cov1: CovarianceSpec, cov2: CovarianceSpec, t1: float = 1.0, t2: float = 1.0
) -> float:
    """Closed-form W2 between N(0, t1*Sigma1) and N(0, t2*Sigma2), both diagonal.

    For commuting covariances the optimal coupling is the linear map matching
    per-coordinate standard deviations, giving
    W2^2 = sum_i (sqrt(t1)*sigma_i - sqrt(t2)*tau_i)^2.
    """
    if cov1.dim != cov2.dim:
        raise DimensionMismatchError(
            f"dimension mismatch: {cov1.dim} vs {cov2.dim}"
        )
    if t1 < 0 or t2 < 0:
        raise ValueError("time scales must be nonnegative")
    diff = math.sqrt(t1) * cov1.sigmas - math.sqrt(t2) * cov2.sigmas
    return float(np.sqrt(np.sum(diff**2)))


# ---------------------------------------------------------------------------
# Standard normal CDF and quantile
# ---------------------------------------------------------------------------

def norm_cdf(x):
    """Phi(x) = erfc(-x / sqrt 2) / 2, elementwise; a scalar for a scalar.

    ``math.erfc`` keeps the lower tail at full relative precision.  As in
    SciPy's ``ndtr``, x / sqrt 2 is the product x * sqrt(1/2), whose rounding
    costs about x^2 ulps of relative precision in the lower tail.
    """
    x = np.asarray(x, dtype=float)
    scaled = (x * -math.sqrt(0.5)).ravel().tolist()
    erfc = np.fromiter(map(math.erfc, scaled), dtype=float, count=len(scaled))
    return (0.5 * erfc).reshape(x.shape)[()]


# Wichura's AS 241 (PPND16): numerator and denominator of each rational
# approximation, highest power first, as published
_PPF_CENTRAL = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
     4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
     2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0),
)
_PPF_NEAR = (
    (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
     1.2704582524523683826e+0, 3.6478483247632046050e+0, 5.7694972214606914055e+0,
     4.6303378461565452959e+0, 1.4234371107496835773e+0),
    (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
     1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e+0,
     2.0531916266377588219e+0, 1.0),
)
_PPF_FAR = (
    (2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
     2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e+0,
     5.4637849111641143699e+0, 6.6579046435011037772e+0),
    (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
     7.8686913114561325910e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
     5.9983220655588793769e-1, 1.0),
)


def _rational(coeffs, r: np.ndarray) -> np.ndarray:
    """num(r) / den(r), both polynomials evaluated by Horner's rule."""
    num, den = (np.full_like(r, c[0]) for c in coeffs)
    for a, b in zip(coeffs[0][1:], coeffs[1][1:]):
        num = num * r + a
        den = den * r + b
    return num / den


def norm_ppf(p):
    """Phi^-1(p), elementwise, for p in [0, 1]; a scalar for a scalar.

    Wichura's AS 241 (PPND16): a rational function of (p - 1/2)^2 on
    |p - 1/2| <= 0.425, else of r = sqrt(-log min(p, 1 - p)), one for
    r <= 5 and one beyond, the sign taken from p - 1/2.  Relative error
    below 1e-15 down to the smallest subnormal p; p = 0 and 1 give -inf and
    +inf, and p = 1/2 gives 0.
    """
    p = np.asarray(p, dtype=float)
    flat = p.ravel()
    q = flat - 0.5
    x = np.empty_like(q)
    central = np.abs(q) <= 0.425
    qc = q[central]
    x[central] = qc * _rational(_PPF_CENTRAL, 0.180625 - qc * qc)
    qt, pt = q[~central], flat[~central]
    with np.errstate(divide="ignore"):  # log(0): r = inf at p = 0 and p = 1
        r = np.sqrt(-np.log(np.where(qt < 0, pt, 1.0 - pt)))
    near, far = r <= 5.0, (5.0 < r) & (r < math.inf)
    r[near] = _rational(_PPF_NEAR, r[near] - 1.6)
    r[far] = _rational(_PPF_FAR, r[far] - 5.0)
    x[~central] = np.copysign(r, qt)
    return x.reshape(p.shape)[()]


# ---------------------------------------------------------------------------
# Gauss-Hermite quadrature oracle
# ---------------------------------------------------------------------------

@functools.cache
def gh_nodes_weights(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for E[g(T)], T ~ N(0,1): E[g] ~= sum w_i g(x_i).

    ``hermegauss`` integrates against exp(-x^2/2), whose total mass is
    sqrt(2 pi); its nodes are used as they are.  Each rule is built once and
    shared, so both arrays are read-only.  ``numpy.polynomial`` is imported
    on the first call, not at start-up.
    """
    from numpy.polynomial.hermite_e import hermegauss

    x, w = hermegauss(nodes)
    rule = (x, w / math.sqrt(2.0 * math.pi))
    for a in rule:
        a.setflags(write=False)
    return rule


def gh_grid(cov: CovarianceSpec, nodes: int = GH_NODES_DEFAULT):
    """Tensor quadrature grid for N(0, Sigma): points (N, d) and weights (N,)."""
    x1, w1 = gh_nodes_weights(nodes)
    d = cov.dim
    axes = [x1 * cov.sigmas[i] for i in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    wts = w1
    for _ in range(d - 1):
        wts = np.multiply.outer(wts, w1)
    return pts, wts.ravel()


def gh_budget(fine, coarse) -> float:
    """The one error budget of a Gauss-Hermite value: ``GH_BUDGET_FACTOR`` times
    the largest change of the quantity between its node count and half as many.
    A first-order error model, not a certificate."""
    return GH_BUDGET_FACTOR * float(np.max(np.abs(np.subtract(fine, coarse))))
