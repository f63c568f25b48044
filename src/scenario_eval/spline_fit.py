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
boundary behavior) and can be detected with ``FittedSpline.extrapolates``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, NumericalInstabilityError, SingularFitError


@dataclass(frozen=True)
class SplineSpec:
    """Shape of the regression: the number of spline columns."""

    basis_dim: int = 5

    def __post_init__(self):
        if self.basis_dim < 4:
            raise InsufficientDataError(
                f"basis_dim must be >= 4 for a cubic basis, got {self.basis_dim}")


@dataclass(frozen=True)
class FittedSpline:
    """A fitted regression spline.

    ``coefficients`` are ordered [intercept, spline columns..., covariate?].
    ``xtx_pinv`` is the pseudo-inverse of X^T X used for leverage.
    """

    coefficients: np.ndarray
    knots: np.ndarray
    residual_sd: float
    xtx_pinv: np.ndarray
    fit_range: tuple[float, float]
    has_covariate: bool
    covariate_collinear: bool
    n_obs: int
    rank: int

    def extrapolates(self, x_new) -> bool:
        """True when any requested point lies outside the training range."""
        x_new = np.asarray(x_new, dtype=float)
        return bool(np.any(x_new < self.fit_range[0]) or np.any(x_new > self.fit_range[1]))


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


def _design(x, covariate, knots) -> np.ndarray:
    basis = natural_cubic_basis(x, knots)
    columns = [np.ones(basis.shape[0]), basis]
    if covariate is not None:
        columns.append(np.atleast_1d(np.asarray(covariate, dtype=np.float64)))
    return np.column_stack(columns)


def fit(x, y, covariate=None, spec: SplineSpec = SplineSpec()) -> FittedSpline:
    """Least-squares fit of y on the spline design.

    Raises:
        InsufficientDataError: Too few rows, mismatched lengths, or x constant.
        SingularFitError: The intercept+spline block is rank deficient
            (e.g. heavily tied x values collapse the quantile knots). A
            covariate that is collinear with the block is tolerated: it is
            effectively dropped by the pseudo-inverse and flagged.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.shape != x.shape:
        raise InsufficientDataError("x and y must be 1-d arrays of equal length")
    if covariate is not None:
        covariate = np.asarray(covariate, dtype=np.float64)
        if covariate.shape != x.shape:
            raise InsufficientDataError("covariate must match x in length")
    n_cov = 0 if covariate is None else 1
    if len(x) <= spec.basis_dim + n_cov + 1:
        raise InsufficientDataError(
            f"need more than {spec.basis_dim + n_cov + 1} observations, got {len(x)}")
    if np.ptp(x) == 0.0:
        raise InsufficientDataError("x values are all identical")

    knots = np.quantile(x, np.linspace(0.0, 1.0, spec.basis_dim + 1))
    if np.any(np.diff(knots) <= 0):
        tied = tuple(int(j) for j in np.flatnonzero(np.diff(knots) <= 0))
        raise SingularFitError(
            f"tied quantile knots at positions {tied}; x values too concentrated",
            columns=tied)

    design = _design(x, covariate, knots)
    p = design.shape[1]
    base_rank = np.linalg.matrix_rank(design[:, :1 + spec.basis_dim])
    if base_rank < 1 + spec.basis_dim:
        # Identify the dominant components of the null space as culprits.
        _, _, vt = np.linalg.svd(design[:, :1 + spec.basis_dim])
        null_vec = np.abs(vt[-1])
        offending = tuple(int(j) for j in np.flatnonzero(null_vec > 0.5 * null_vec.max()))
        raise SingularFitError(
            f"spline design is rank deficient (rank {base_rank} < {1 + spec.basis_dim})",
            columns=offending)

    coefficients, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    covariate_collinear = covariate is not None and rank < p
    residuals = y - design @ coefficients
    dof = len(x) - rank
    residual_sd = float(np.sqrt(residuals @ residuals / dof))
    xtx_pinv = np.linalg.pinv(design.T @ design)
    return FittedSpline(
        coefficients=coefficients,
        knots=knots,
        residual_sd=residual_sd,
        xtx_pinv=xtx_pinv,
        fit_range=(float(x.min()), float(x.max())),
        has_covariate=covariate is not None,
        covariate_collinear=covariate_collinear,
        n_obs=len(x),
        rank=int(rank),
    )


def _rows(fitted: FittedSpline, x_new, covariate_new):
    x_new = np.atleast_1d(np.asarray(x_new, dtype=np.float64))
    if not np.all(np.isfinite(x_new)):
        raise InsufficientDataError("x_new must be finite")
    if fitted.has_covariate:
        if covariate_new is None:
            raise InsufficientDataError("fit used a covariate; covariate_new required")
        covariate_new = np.broadcast_to(
            np.asarray(covariate_new, dtype=np.float64), x_new.shape)
    else:
        covariate_new = None
    return _design(x_new, covariate_new, fitted.knots)


def predict_many(fitted: FittedSpline, x_new, covariate_new=None):
    """Vectorized (mean, predictive_sd) at new points."""
    rows = _rows(fitted, x_new, covariate_new)
    mean = rows @ fitted.coefficients
    leverage = np.einsum("ij,jk,ik->i", rows, fitted.xtx_pinv, rows)
    sd = fitted.residual_sd * np.sqrt(1.0 + np.maximum(leverage, 0.0))
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(sd))):
        bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(sd)))
        raise NumericalInstabilityError(f"non-finite prediction at indices {bad.tolist()}")
    return mean, sd


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
