"""Generate simulated worlds for evaluating scenario projections.

A world consists of a ground truth and an ensemble of imperfect projection
models, per location:

  truth:    x*_l ~ U(x range)               realized vaccination coverage
            R0*_l ~ U(R0 range)             true basic reproduction number
            a*_l ~ N(alpha mean, alpha sd)  true heterogeneity exponent
  model m:  b_m ~ N(0, global bias sd)      shared R0 bias
            b_ml ~ N(0, local bias sd)      location R0 bias
            c_m ~ U(alpha center range)     model alpha center
            a_ml ~ N(c_m, model alpha sd)   model heterogeneity exponent
            R0_ml = R0*_l + b_m + b_ml      (redrawn b_ml if R0_ml <= 0)
  perfect:  R0_ml = R0*_l, a_ml = a*_l      (no b_ml or a_ml is drawn)

From these, every final size the experiment needs is computed with one SIR
solve over a (truth + M models) x L locations x (S scenarios + realized)
grid, each point integrated on its own:

  y_counterfactual[l, j] : truth at each scenario coverage x_j (never
                           observable in reality, known here by construction)
  y_observed[l]          : truth at the realized coverage x*_l
  projections[m, l, j]   : model m at each scenario coverage
  reprojection[m, l]     : model m rerun honestly at the realized x*_l,
                           from the same (R0_ml, a_ml) as its projections

All draws come from keyed substreams, so outputs are bit-identical for a
given seed regardless of the number of other entities. Turning these arrays
into report tables is the harness's job.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from . import sir_core
from .errors import ConfigError, NumericalInstabilityError, StructuralError
from .streams import KIND_LOCATION, KIND_MODEL, KIND_PAIR, substream

DEFAULT_SEED = 38
# Local-bias redraws allowed per (model, location) before giving up; a pair
# that needs this many has R0*_l + b_m far below 0 relative to the local bias sd.
MAX_REDRAWS = 1000
# Elements of the largest float64 array numpy can address: its byte count
# must fit in a signed pointer-sized integer.
MAX_FLOAT64_SIZE = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize


_ACCEPTED = {bool: (bool, np.bool_), int: (int, np.integer), float: numbers.Real}


def store_typed(owner, context: str = "") -> None:
    """Store each bool and number field of the frozen dataclass ``owner`` as
    its default's type, so equal settings hash alike: a bool field takes a
    Python or numpy bool, an int field a Python or numpy integer within 64
    bits, a float field and each entry of a tuple of floats a finite real
    number, an optional float any real number or None. Any other value, a
    bool for a number or a number for a bool, raises ``ConfigError``."""
    for f in fields(owner):
        value, several = getattr(owner, f.name), isinstance(f.default, tuple)
        kind = float if several or f.default is None else type(f.default)
        entries = value if several else (value,)
        if kind not in _ACCEPTED or value is None is f.default:
            continue
        if not isinstance(entries, (tuple, list, np.ndarray)) or any(   # a bool is an int
                not isinstance(x, _ACCEPTED[kind]) or isinstance(x, bool) and kind is not bool
                for x in entries):
            noun = "numbers" if several else {bool: "a boolean", int: "an integer"}.get(kind, "a number")
            raise ConfigError(f"must be {noun}, got {value!r}", context + f.name)
        typed = tuple(map(kind, entries))
        if kind is int and not -2**63 <= typed[0] < 2**63:
            raise ConfigError(f"must fit in a 64-bit integer, got {value}", context + f.name)
        if f.default is not None and not np.all(np.isfinite(typed)):
            raise ConfigError(f"must be finite, got {value}", context + f.name)
        object.__setattr__(owner, f.name, typed if several else typed[0])


@dataclass(frozen=True)
class ExperimentConfig:
    """Full parameterization of one simulated world."""

    n_locations: int = 50
    n_models: int = 10
    scenario_values: tuple[float, ...] = (0.30, 0.50)
    seed: int = DEFAULT_SEED
    x_realized_range: tuple[float, float] = (0.30, 0.50)
    r0_true_range: tuple[float, float] = (2.0, 3.0)
    alpha_true_mean: float = 0.975
    alpha_true_sd: float = 0.01
    global_bias_sd: float = 0.05
    local_bias_sd: float = 0.05
    alpha_center_range: tuple[float, float] = (0.95, 1.0)
    alpha_model_sd: float = 0.01
    perfect_models: bool = False
    infectious_period: float = sir_core.DEFAULT_INFECTIOUS_PERIOD
    i0: float = sir_core.DEFAULT_I0
    population: float = sir_core.DEFAULT_POPULATION
    horizon: float = sir_core.DEFAULT_HORIZON
    step: float = sir_core.DEFAULT_STEP

    def __post_init__(self):
        store_typed(self)
        if self.n_locations < 2:
            raise ConfigError("n_locations must be >= 2", "n_locations")
        if self.n_models < 1:
            raise ConfigError("n_models must be >= 1", "n_models")
        values = self.scenario_values
        if len(values) < 1:
            raise ConfigError("at least one scenario value is needed", "scenario_values")
        if any(not 0 <= x < 1 for x in values):
            raise ConfigError("scenario values must lie in [0, 1)", "scenario_values")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError("scenario values must be strictly increasing",
                              "scenario_values")
        for name in ("n_locations", "n_models"):
            if getattr(self, name) > MAX_FLOAT64_SIZE:
                raise ConfigError(f"must be at most {MAX_FLOAT64_SIZE}, the largest float64 "
                                  f"array numpy can address, got {getattr(self, name)}", name)
        grid = (self.n_models + 1) * self.n_locations * (len(values) + 1)
        if grid > MAX_FLOAT64_SIZE:
            raise ConfigError(f"the solve grid (n_models + 1) x n_locations x (scenarios + 1) "
                              f"= {grid} exceeds {MAX_FLOAT64_SIZE}, the largest float64 "
                              "array numpy can address", "n_models/n_locations")
        for name in ("x_realized_range", "r0_true_range", "alpha_center_range"):
            lo, hi = getattr(self, name)
            if not (lo < hi and np.isfinite(hi - lo)):
                raise ConfigError(f"range must satisfy low < high with a finite "
                                  f"width, got {(lo, hi)}", name)
        if not 0 <= self.x_realized_range[0] < self.x_realized_range[1] < 1:
            raise ConfigError("coverage range must satisfy 0 <= low < high < 1",
                              "x_realized_range")
        if self.r0_true_range[0] < 0:
            raise ConfigError("R0 range must not go below 0", "r0_true_range")
        for name in ("alpha_true_sd", "global_bias_sd", "local_bias_sd",
                     "alpha_model_sd"):
            if getattr(self, name) < 0:
                raise ConfigError("standard deviation must be >= 0", name)
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer", "seed")


@dataclass(frozen=True)
class TrueWorld:
    """Ground truth: per-location parameters, observation, counterfactuals."""

    scenario_values: np.ndarray          # (S,)
    r0_true: np.ndarray                  # (L,)
    alpha_true: np.ndarray               # (L,)
    x_realized: np.ndarray               # (L,)
    y_observed: np.ndarray               # (L,)
    y_counterfactual: np.ndarray         # (L, S)

    @property
    def n_locations(self) -> int:
        return len(self.x_realized)

    @property
    def n_scenarios(self) -> int:
        return len(self.scenario_values)


@dataclass(frozen=True)
class ModelEnsemble:
    """Projection models: biased parameters, projections, honest reprojections."""

    global_bias: np.ndarray              # (M,)
    alpha_center: np.ndarray             # (M,)
    local_bias: np.ndarray               # (M, L)
    alpha_model: np.ndarray              # (M, L)
    r0_model: np.ndarray                 # (M, L)
    projections: np.ndarray              # (M, L, S)
    reprojection: np.ndarray             # (M, L)
    redraw_count: int = 0

    @property
    def n_models(self) -> int:
        return len(self.global_bias)


def _check_alpha(alpha: np.ndarray, fields: str) -> None:
    """Name the config fields behind a drawn alpha the solver cannot take."""
    bad = np.argwhere(~((alpha > 0) & (alpha < np.inf)))
    if bad.size:
        at = ", ".join(f"{owner} {k}" for owner, k in
                       zip(("model", "location")[-alpha.ndim:], bad[0].tolist()))
        raise ConfigError(f"drawn alpha {alpha[tuple(bad[0])]} at {at} is not finite "
                          "and > 0", f"experiment: {fields}")


def generate(config: ExperimentConfig) -> tuple[TrueWorld, ModelEnsemble]:
    """Draw one world and compute every projected/observed final size.

    Deterministic given ``config`` (including its seed).

    Raises:
        ConfigError: A (model, location) pair still has R0 <= 0 after
            MAX_REDRAWS local-bias redraws, or a drawn alpha is <= 0 or
            not finite (the message names the fields that drew it).
        NumericalInstabilityError: The solve failed; the message places its
            first failing point in the grid and gives that point's r0,
            alpha and v, and the overflowing r0 / infectious_period if any.
    """
    L, M = config.n_locations, config.n_models
    scen = np.asarray(config.scenario_values)
    S = len(scen)
    seed = config.seed

    x_realized = np.empty(L)
    r0_true = np.empty(L)
    alpha_true = np.empty(L)
    for l in range(L):
        g = substream(seed, KIND_LOCATION, l)
        x_realized[l] = g.uniform(*config.x_realized_range)
        r0_true[l] = g.uniform(*config.r0_true_range)
        alpha_true[l] = g.normal(config.alpha_true_mean, config.alpha_true_sd)

    _check_alpha(alpha_true, "alpha_true_mean/alpha_true_sd")

    global_bias = np.empty(M)
    alpha_center = np.empty(M)
    for m in range(M):
        g = substream(seed, KIND_MODEL, m)
        global_bias[m] = g.normal(0.0, config.global_bias_sd)
        alpha_center[m] = g.uniform(*config.alpha_center_range)

    # Perfect models take the truth's R0 and alpha: no pair draws, no redraws.
    local_bias = np.zeros((M, L))
    alpha_model = np.tile(alpha_true, (M, 1))
    redraws = 0
    if config.perfect_models:
        global_bias[:] = 0.0
    else:
        # Huge bias sds can overflow an R0 sum; such a world is rejected below.
        with np.errstate(over="ignore", invalid="ignore"):
            for m in range(M):
                for l in range(L):
                    g = substream(seed, KIND_PAIR, m, l)
                    local_bias[m, l] = g.normal(0.0, config.local_bias_sd)
                    alpha_model[m, l] = g.normal(alpha_center[m], config.alpha_model_sd)
                    tries = 0
                    while r0_true[l] + global_bias[m] + local_bias[m, l] <= 0:
                        if tries == MAX_REDRAWS:
                            raise ConfigError(
                                f"R0 stays <= 0 after {MAX_REDRAWS} local bias redraws; "
                                "lower global_bias_sd or raise r0_true_low or local_bias_sd",
                                f"experiment: model {m}, location {l}")
                        local_bias[m, l] = g.normal(0.0, config.local_bias_sd)
                        tries += 1
                    redraws += tries
        _check_alpha(alpha_model, "alpha_center_range/alpha_model_sd")
    with np.errstate(over="ignore", invalid="ignore"):
        r0_model = r0_true[None, :] + global_bias[:, None] + local_bias
    if not np.all(np.isfinite(r0_model)):
        raise ConfigError("a drawn model R0 is not finite",
                          "experiment: global_bias_sd/local_bias_sd")

    # One solve grid: row 0 is the truth and rows 1..M the models; points
    # 0..S-1 are the scenario coverages and point S the realized coverage.
    grid = (M + 1, L, S + 1)
    r0 = np.broadcast_to(np.vstack([r0_true, r0_model])[:, :, None], grid)
    alpha = np.broadcast_to(np.vstack([alpha_true, alpha_model])[:, :, None], grid)
    v = np.broadcast_to(np.column_stack([np.broadcast_to(scen, (L, S)), x_realized]),
                        grid)
    try:
        sizes = sir_core.final_size_batch(
            r0.ravel(), alpha.ravel(), v.ravel(),
            i0=config.i0, infectious_period=config.infectious_period,
            population=config.population, horizon=config.horizon,
            step=config.step).reshape(grid)
    except NumericalInstabilityError as exc:
        row, l, j = first = np.unravel_index(exc.indices[0], grid)
        who = "truth" if row == 0 else f"model {row - 1}"
        point = f"scenario {j}" if j < S else "the realized coverage"
        beta = float(r0[first]) / config.infectious_period
        hint = ("try a smaller [sir] step" if math.isfinite(beta) else
                f"its beta = r0 / infectious_period (infectious_period "
                f"{config.infectious_period:.6g}) overflows, which no [sir] step can fix")
        raise NumericalInstabilityError(
            f"{exc}; the first is {who}, location {l}, {point} with r0 "
            f"{r0[first]:.6g}, alpha {alpha[first]:.6g}, v {v[first]:.6g}; "
            f"{hint}", exc.indices) from exc
    y_counterfactual = sizes[0, :, :S].copy()
    y_observed = sizes[0, :, S].copy()
    projections = sizes[1:, :, :S].copy()
    reprojection = sizes[1:, :, S].copy()

    world = TrueWorld(
        scenario_values=scen, r0_true=r0_true, alpha_true=alpha_true,
        x_realized=x_realized, y_observed=y_observed,
        y_counterfactual=y_counterfactual)
    ensemble = ModelEnsemble(
        global_bias=global_bias, alpha_center=alpha_center,
        local_bias=local_bias, alpha_model=alpha_model, r0_model=r0_model,
        projections=projections, reprojection=reprojection,
        redraw_count=redraws)
    return world, ensemble


def true_errors(world: TrueWorld, ensemble: ModelEnsemble) -> np.ndarray:
    """Signed errors projections[m, l, j] - y_counterfactual[l, j], shape (M, L, S)."""
    if ensemble.projections.shape[1:] != world.y_counterfactual.shape:
        raise StructuralError(
            f"ensemble projections {ensemble.projections.shape} do not match "
            f"world counterfactuals {world.y_counterfactual.shape}")
    return ensemble.projections - world.y_counterfactual[None, :, :]

