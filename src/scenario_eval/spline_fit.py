"""Natural cubic spline regression with prediction intervals.

Fits y on [intercept | natural cubic spline basis of x | optional linear
covariate] by ordinary least squares. The natural basis is the truncated
power construction: with knots k_1 < ... < k_K at training-x quantiles,

    d_j(x) = ((x - k_j)_+^3 - (x - k_K)_+^3) / (k_K - k_j)
    basis  = [x, d_1 - d_{K-1}, ..., d_{K-2} - d_{K-1}]

which spans all cubic splines on the knots that are linear beyond the
boundary knots. ``basis_dim`` counts spline columns (excluding intercept),
so K = basis_dim + 1 knots. The span contains all constants and linear
functions exactly.

Predictions at a new point x carry a predictive standard deviation

    sd(x) = residual_sd * sqrt(1 + leverage(x)),
    leverage(x) = row(x)^T (X^T X)^+ row(x)

so intervals cover a new observation (coefficient uncertainty plus residual
noise). Points outside the training range extrapolate linearly (natural
boundary behavior) and can be detected with ``SplineDesign.extrapolates``.

One design serves every response on the same x and covariate: ``design``
builds the knots, design and (X^T X)^+ once, ``SplineDesign.rows`` the rows
and leverage at new points, and ``fit_design`` and
``FittedSpline.predict_rows`` add one response's ``lstsq`` and matvec.
``fit`` and ``predict_many`` are the one-response case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (InsufficientDataError, NumericalInstabilityError,
                     ParameterDomainError, SingularFitError, listed)


@dataclass(frozen=True)
class SplineSpec:
    """Shape of the regression: the number of spline columns."""

    basis_dim: int = 5

    def __post_init__(self):
        if self.basis_dim < 4:
            raise InsufficientDataError(
                f"basis_dim must be >= 4 for a cubic basis, got {self.basis_dim}")


@dataclass(frozen=True)
class SplineDesign:
    """The part of a regression that depends only on x and the covariate:
    the knots, the design matrix ``matrix`` and the pseudo-inverse of
    X^T X used for leverage. Every response fitted on the same x and
    covariate shares one."""

    matrix: np.ndarray
    knots: np.ndarray
    xtx_pinv: np.ndarray
    fit_range: tuple[float, float]
    has_covariate: bool

    def extrapolates(self, x_new) -> bool:
        """True when any requested point lies outside the training range."""
        x_new = np.asarray(x_new, dtype=float)
        return bool(np.any(x_new < self.fit_range[0]) or np.any(x_new > self.fit_range[1]))

    def rows(self, x_new, covariate_new=None) -> tuple[np.ndarray, np.ndarray]:
        """The design rows at new points (broadcast with the covariate) and
        ``sqrt(1 + leverage)``, the predictive sd per unit residual sd."""
        x_new = np.atleast_1d(np.asarray(x_new, dtype=np.float64))
        if not np.all(np.isfinite(x_new)):
            raise InsufficientDataError("x_new must be finite")
        if self.has_covariate:
            if covariate_new is None:
                raise InsufficientDataError("fit used a covariate; covariate_new required")
            x_new, covariate_new = np.broadcast_arrays(
                x_new, np.asarray(covariate_new, dtype=np.float64))
        else:
            covariate_new = None
        with np.errstate(over="ignore", invalid="ignore"):
            rows = _matrix(x_new, covariate_new, self.knots)
            leverage = np.einsum("ij,jk,ik->i", rows, self.xtx_pinv, rows)
            return rows, np.sqrt(1.0 + np.maximum(leverage, 0.0))


@dataclass(frozen=True)
class FittedSpline(SplineDesign):
    """A response fitted on a design.

    ``coefficients`` are ordered [intercept, spline columns..., covariate?].
    """

    coefficients: np.ndarray
    residual_sd: float
    covariate_collinear: bool
    rank: int

    def predict_rows(self, rows: np.ndarray, root: np.ndarray):
        """(mean, predictive_sd) at the points of ``SplineDesign.rows``."""
        with np.errstate(over="ignore", invalid="ignore"):
            mean = rows @ self.coefficients
            sd = self.residual_sd * root
        bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(sd)))
        if bad.size:
            raise NumericalInstabilityError(
                f"non-finite prediction at indices {listed(bad.tolist())}")
        return mean, sd


def linear_quantiles(rows: np.ndarray, quantiles, ordered: np.ndarray | None = None):
    """The bits of ``np.quantile(rows, quantiles, axis=1).T`` from a sort of
    the 2-D block ``rows`` (``ordered``, when the caller has sorted it): the
    two order statistics around ``(n - 1) * q``, interpolated by numpy's
    linear rule. Sort and partition may give a zero opposite signs, and numpy
    returns NaN for a row with a NaN, so a row that picks a zero or holds a
    non-finite value goes through ``np.quantile`` itself."""
    n = rows.shape[1]
    if ordered is None:
        ordered = np.sort(rows, axis=1)
    virtual = (n - 1) * np.asarray(quantiles)
    below = np.floor(virtual)
    above = below + 1
    last = virtual >= n - 1
    below[last] = above[last] = -1
    gamma = virtual - below
    a, b = ordered[:, below.astype(np.intp)], ordered[:, above.astype(np.intp)]
    step = b - a
    out = np.where(gamma >= 0.5, b - step * (1 - gamma), a + step * gamma)
    odd = ((a == 0) | (b == 0)).any(axis=1) | ~np.isfinite(ordered[:, [0, -1]]).all(axis=1)
    if odd.any():
        out[odd] = np.quantile(rows[odd], quantiles, axis=1).T
    return out


def natural_cubic_basis(x, knots: np.ndarray) -> np.ndarray:
    """Evaluate the natural cubic spline columns (no intercept) at ``x``."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    knots = np.asarray(knots, dtype=np.float64)
    k_last = knots[-1]

    def truncated(j):
        span = k_last - knots[j]
        return (np.maximum(x - knots[j], 0.0) ** 3
                - np.maximum(x - k_last, 0.0) ** 3) / span

    cols = [x]
    d_ref = truncated(len(knots) - 2)
    for j in range(len(knots) - 2):
        cols.append(truncated(j) - d_ref)
    return np.column_stack(cols)


def _matrix(x, covariate, knots) -> np.ndarray:
    basis = natural_cubic_basis(x, knots)
    columns = [np.ones(basis.shape[0]), basis]
    if covariate is not None:
        columns.append(np.atleast_1d(np.asarray(covariate, dtype=np.float64)))
    return np.column_stack(columns)


def design(x, covariate=None, spec: SplineSpec = SplineSpec()) -> SplineDesign:
    """The spline design of x (plus a linear covariate), checked for a fit.

    Raises:
        InsufficientDataError: Too few rows, mismatched lengths, or x constant.
        ParameterDomainError: x or the covariate holds a NaN or inf.
        SingularFitError: The intercept+spline block is rank deficient
            (e.g. heavily tied x values collapse the quantile knots). A
            covariate that is collinear with the block is tolerated: it is
            effectively dropped by the pseudo-inverse and flagged by the fit.
        NumericalInstabilityError: The design's cross-products overflow
            (x or covariate values too large, such as an R0 near 1e308).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise InsufficientDataError("x must be a 1-d array")
    if covariate is not None:
        covariate = np.asarray(covariate, dtype=np.float64)
        if covariate.shape != x.shape:
            raise InsufficientDataError("covariate must match x in length")
    for name, values in (("x", x), ("covariate", covariate)):
        if values is not None and not np.isfinite(values).all():
            raise ParameterDomainError(f"{name} values must be finite")
    n_cov = 0 if covariate is None else 1
    if len(x) <= spec.basis_dim + n_cov + 1:
        raise InsufficientDataError(
            f"need more than {spec.basis_dim + n_cov + 1} observations, got {len(x)}")
    if np.ptp(x) == 0.0:
        raise InsufficientDataError("x values are all identical")

    knots = linear_quantiles(x[None, :], np.linspace(0.0, 1.0, spec.basis_dim + 1))[0]
    if np.any(np.diff(knots) <= 0):
        tied = tuple(int(j) for j in np.flatnonzero(np.diff(knots) <= 0))
        raise SingularFitError(
            f"tied quantile knots at positions {tied}; x values too concentrated",
            columns=tied)

    matrix = _matrix(x, covariate, knots)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = matrix.T @ matrix
    if not np.all(np.isfinite(gram)):
        raise NumericalInstabilityError("the spline design's cross-products overflow")
    base_rank = np.linalg.matrix_rank(matrix[:, :1 + spec.basis_dim])
    if base_rank < 1 + spec.basis_dim:
        # Identify the dominant components of the null space as culprits.
        _, _, vt = np.linalg.svd(matrix[:, :1 + spec.basis_dim])
        null_vec = np.abs(vt[-1])
        offending = tuple(int(j) for j in np.flatnonzero(null_vec > 0.5 * null_vec.max()))
        raise SingularFitError(
            f"spline design is rank deficient (rank {base_rank} < {1 + spec.basis_dim})",
            columns=offending)
    return SplineDesign(matrix=matrix, knots=knots, xtx_pinv=np.linalg.pinv(gram),
                        fit_range=(float(x.min()), float(x.max())),
                        has_covariate=covariate is not None)


def fit_design(shared: SplineDesign, y: np.ndarray) -> FittedSpline:
    """Least-squares fit of y, one value per row of ``shared``'s design."""
    coefficients, _, rank, _ = np.linalg.lstsq(shared.matrix, y, rcond=None)
    residuals = y - shared.matrix @ coefficients
    residual_sd = float(np.sqrt(residuals @ residuals / (len(y) - rank)))
    return FittedSpline(
        **vars(shared), coefficients=coefficients, residual_sd=residual_sd,
        covariate_collinear=shared.has_covariate and rank < shared.matrix.shape[1],
        rank=int(rank))


def fit(x, y, covariate=None, spec: SplineSpec = SplineSpec()) -> FittedSpline:
    """Least-squares fit of y on the spline design: ``design`` and then
    ``fit_design``, whose errors it raises."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.shape != x.shape:
        raise InsufficientDataError("x and y must be 1-d arrays of equal length")
    return fit_design(design(x, covariate, spec), y)


def predict_many(fitted: FittedSpline, x_new, covariate_new=None):
    """Vectorized (mean, predictive_sd) at new points."""
    return fitted.predict_rows(*fitted.rows(x_new, covariate_new))


def predict(fitted: FittedSpline, x_new: float, covariate_new: float | None = None):
    """(mean, predictive_sd) at a single new point."""
    mean, sd = predict_many(fitted, [x_new],
                            None if covariate_new is None else [covariate_new])
    return float(mean[0]), float(sd[0])


def sample_predictive(fitted: FittedSpline, x_new: float,
                      covariate_new: float | None, n: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Draw n Normal(mean, predictive_sd) samples; deterministic given rng."""
    if n < 1:
        raise InsufficientDataError(f"n must be >= 1, got {n}")
    mean, sd = predict(fitted, x_new, covariate_new)
    return rng.normal(mean, sd, size=n)
