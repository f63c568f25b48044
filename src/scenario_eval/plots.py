"""Minimal static SVG renderings of a report directory.

Three figures, built straight from the report CSVs with no other state so
identical reports yield byte-identical files:

    error_densities.svg    estimated error densities per scenario, each
                           approach variant against the true distribution
    accuracy_summary.svg   MAE-of-means and KS statistic dot panels per
                           approach variant
    decomposition.svg      mean absolute decomposition components per scenario

The SVG is hand assembled (fixed coordinate formatting, no timestamps or
generated ids) to keep output deterministic.

Each of the four source files is read once, in one streaming pass that
checks the field count of every row, the rows a figure drops included, and
keeps only the columns a figure draws, as tuples of strings.
``decomposition.csv`` serves two figures: its ``calibration_error`` is the
true error of the density figure, whose panels ``world.csv``'s ``x_kind``
labels. A missing file, column or row, a row with a missing or extra field, a
field over ``csv``'s size limit, an unparsable or non-finite (nan, inf)
number in a drawn column, a ``scenario_index`` outside ``[0, n_scenarios)``,
a scenario without ``decomposition.csv`` rows, or ``world.csv`` locations
that list different scenario kinds raises ConfigError naming the file.
``n_scenarios`` is the number of scenario kinds each location lists in
``world.csv``, except for ``report.csv``: the distinct indices it holds.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from operator import itemgetter
from pathlib import Path

import numpy as np

from .approaches import VARIANTS
from .errors import ConfigError, ScenarioEvalError

WIDTH, HEIGHT = 860.0, 420.0
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70.0, 20.0, 46.0, 50.0

# (approach as report files spell it, variant, colour), in VARIANTS order.
VARIANT_ORDER = tuple(
    (str(approach), variant, color) for (approach, variant), color in zip(
        VARIANTS, ("#30609e", "#8fce8f", "#2c7a2c", "#e89c9c", "#b03030"), strict=True))
TRUE_COLOR = "#555555"
DOT_RADIUS = 3.0


def _fmt(value: float) -> str:
    """An SVG coordinate. Huge finite report values can overflow a scale to
    inf or nan; such a coordinate raises ValueError."""
    if not math.isfinite(value):
        raise ValueError(f"non-finite coordinate {value}")
    return f"{value:.2f}"


def _read_csv(path: Path, columns: tuple[str, ...], where=None) -> list[tuple]:
    """The ``columns`` (two or more) of each row of a report file, as tuples
    of strings in file order; with ``where=(column, value)`` only the rows
    whose ``column`` reads ``value``. Every row is checked before it is
    filtered: a missing or extra field raises ConfigError. A missing column
    raises ValueError, which ``_reading`` reports."""
    if not path.exists():
        raise ConfigError(f"missing report file {path.name}", str(path))
    with open(path, encoding="utf-8") as handle:
        rows = csv.reader(handle)
        header = next(rows, [])
        pick = itemgetter(*map(header.index, columns))
        at, value = (header.index(where[0]), where[1]) if where else (0, None)
        width = len(header)
        kept = []
        for row in rows:
            if len(row) != width:
                raise ConfigError(f"line {rows.line_num} has {len(row)} fields, "
                                  f"expected {width}", str(path))
            if value is None or row[at] == value:
                kept.append(pick(row))
        return kept


def _finite(values):
    """``values`` (a float or an array), where a nan or inf among them raises
    ValueError."""
    if not np.isfinite(values).all():
        raise ValueError("non-finite value")
    return values


def _check_scenarios(indices, n_scenarios: int) -> None:
    """Raise ValueError for a scenario index outside [0, n_scenarios)."""
    for j in indices:
        if not 0 <= j < n_scenarios:
            raise ValueError(f"scenario_index {j} outside [0, {n_scenarios})")


@contextmanager
def _reading(path: Path):
    """Raise a missing column or key, an unparsable or non-finite value, a
    scenario index out of range or a field that ``csv`` cannot read (one over
    its size limit) met while using the rows of ``path`` as a ConfigError
    naming that file."""
    try:
        yield
    except ScenarioEvalError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, csv.Error) as exc:
        raise ConfigError(f"malformed report file ({type(exc).__name__}: {exc})",
                          str(path)) from exc


def _svg_document(body: list[str], title: str) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:g}" '
        f'height="{HEIGHT:g}" viewBox="0 0 {WIDTH:g} {HEIGHT:g}">\n'
        f'<rect width="{WIDTH:g}" height="{HEIGHT:g}" fill="white"/>\n'
        f'<text x="{WIDTH / 2:g}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


def _polyline(xs, ys, color: str, width: float = 1.6) -> str:
    points = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys))
    return (f'<polyline fill="none" stroke="{color}" '
            f'stroke-width="{width:g}" points="{points}"/>')


def _text(x: float, y: float, label: str, size: int = 11,
          anchor: str = "middle", color: str = "#000000") -> str:
    return (f'<text x="{_fmt(x)}" y="{_fmt(y)}" text-anchor="{anchor}" '
            f'font-family="sans-serif" font-size="{size}" '
            f'fill="{color}">{label}</text>')


def _density(samples: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Gaussian kernel density on a fixed grid (Silverman bandwidth); a
    density that overflows raises ValueError."""
    sd = samples.std()
    if sd == 0 or samples.size < 2:
        # Degenerate: a spike at the common value.
        out = np.zeros_like(grid)
        out[np.argmin(np.abs(grid - samples.mean()))] = 1.0
        return out
    bandwidth = 0.9 * sd * samples.size ** (-0.2)
    # Histogram the samples first so huge sample vectors stay cheap.
    edges = np.linspace(grid[0], grid[-1], 201)
    counts, _ = np.histogram(samples, bins=edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    z = (grid[:, None] - centers[None, :]) / bandwidth
    dens = (np.exp(-0.5 * z * z) @ counts) / (samples.size * bandwidth * np.sqrt(2 * np.pi))
    return _finite(dens)


def _scenario_kinds(path: Path) -> list[str]:
    """The scenario x_kinds of ``world.csv``, in file order, which every
    location must list alike; the realized rows are left out."""
    listed: dict = {}
    for location, kind in _read_csv(path, ("location_id", "x_kind")):
        if kind.startswith("scenario"):
            listed.setdefault(location, []).append(kind)
    distinct = set(map(tuple, listed.values()))
    if len(distinct) != 1:
        raise ValueError(f"locations list different scenario kinds {sorted(distinct)}"
                         if distinct else "no scenario rows")
    return list(distinct.pop())


# decomposition.csv's drawn columns, with their colours in its figure.
COMPONENTS = (("calibration_error", "#30609e"), ("scenario_spec_error", "#c05090"),
              ("observed_deviation", "#777777"), ("total_error", "#202020"))


def _components(path: Path, n_scenarios: int) -> list[list[np.ndarray]]:
    """Per scenario index in ``[0, n_scenarios)``, one finite vector per
    COMPONENTS column of ``decomposition.csv``, in file order; an index
    outside that range or one without rows raises ValueError."""
    groups: dict = {}   # scenario -> its rows, in file order
    for j, *values in _read_csv(path, ("scenario_index", *(name for name, _ in COMPONENTS))):
        groups.setdefault(int(j), []).append(values)
    _check_scenarios(groups, n_scenarios)
    if len(groups) < n_scenarios:
        raise ValueError(f"no rows for scenario_index {min(set(range(n_scenarios)) - set(groups))}")
    # One contiguous vector per component, in file order, so each mean
    # keeps the pairwise summation, and the bits, of np.mean over a list.
    return [[_finite(np.array(list(map(float, column)))) for column in zip(*groups[j])]
            for j in range(n_scenarios)]


def plot_error_densities(report_dir: Path, out_path: Path, kinds: list[str],
                         true_errors: list[np.ndarray]) -> None:
    """Panel j, labelled ``kinds[j]``: pooled estimates vs ``true_errors[j]``."""
    pooled = _read_csv(report_dir / "approach_estimates.csv",
                       ("approach", "variant", "scenario_index", "mean", "q05", "q95"),
                       where=("location_id", "-1"))
    n_panels = len(kinds)
    # (mean, q05, q95) of each pooled row, per (approach, variant, scenario).
    estimates: dict = {}
    for approach, variant, j, *summary in pooled:
        estimates.setdefault((approach, variant, int(j)), []).append(
            tuple(_finite(float(value)) for value in summary))
    _check_scenarios({j for _, _, j in estimates}, n_panels)

    # Pooled estimate summaries approximate each variant's density through a
    # Normal with the pooled mean and quantile-implied spread per model, then
    # averaged over models. That keeps this plot a pure function of the CSVs.
    body = []
    panel_w = (WIDTH - MARGIN_L - MARGIN_R) / n_panels
    all_true = np.concatenate(true_errors)
    lo = float(all_true.min()) - 0.05
    hi = float(all_true.max()) + 0.05
    grid = np.linspace(lo, hi, 241)

    for panel, kind in enumerate(kinds):
        x0 = MARGIN_L + panel * panel_w
        x1 = x0 + panel_w - 30.0
        y0, y1 = HEIGHT - MARGIN_B, MARGIN_T + 16.0

        def to_x(v):
            return x0 + (v - lo) / (hi - lo) * (x1 - x0)

        with _reading(report_dir / "decomposition.csv"):
            curves = [(TRUE_COLOR, _density(true_errors[panel], grid), "true")]
        for approach, variant, color in VARIANT_ORDER:
            rows = estimates.get((approach, variant, panel))
            if not rows:
                if approach == "1":
                    body.append(_text((x0 + x1) / 2, (y0 + y1) / 2,
                                      "no plausible locations (approach 1)",
                                      size=12, color="#30609e"))
                continue
            # Normal mixture over models from (mean, q05, q95).
            mixture = np.zeros_like(grid)
            for mean, q05, q95 in rows:
                spread = (q95 - q05) / 3.29
                if spread <= 0:
                    spread = (hi - lo) / 200.0
                z = (grid - mean) / spread
                mixture += np.exp(-0.5 * z * z) / (spread * np.sqrt(2 * np.pi))
            curves.append((color, _finite(mixture / len(rows)), f"{approach}:{variant}"))

        peak = max(float(c.max()) for _, c, _ in curves) or 1.0
        for color, dens, _ in curves:
            ys = y0 - dens / peak * (y0 - y1)
            body.append(_polyline([to_x(v) for v in grid], ys, color))
        body.append(_polyline([x0, x1], [y0, y0], "#000000", 1.0))
        body.append(_text((x0 + x1) / 2, y0 + 18, kind, size=12))
        body.append(_text((x0 + x1) / 2, y0 + 34, "estimated error", size=10))
        for tick in np.linspace(lo, hi, 5):
            body.append(_text(to_x(tick), y0 + 10, f"{tick:.2f}", size=8))

    legend_y = MARGIN_T
    body.append(_text(MARGIN_L, legend_y, "true", 10, "start", TRUE_COLOR))
    offset = MARGIN_L + 50
    for approach, variant, color in VARIANT_ORDER:
        body.append(_text(offset, legend_y, f"{approach}:{variant}", 10, "start", color))
        offset += 120
    out_path.write_text(_svg_document(body, "Estimated error distributions by scenario"),
                        encoding="utf-8")


def plot_accuracy_summary(report_dir: Path, out_path: Path) -> None:
    rows = _read_csv(report_dir / "report.csv", (
        "approach", "variant", "model_id", "scenario_index", "mae_of_means", "ks_d",
        "ks_critical"))
    keys = [row[:2] for row in rows]
    models = [int(row[2]) for row in rows]
    scenarios = [int(row[3]) for row in rows]
    # Each score column as floats, None where the report leaves it empty.
    scores = {name: [None if row[k] == "" else _finite(float(row[k])) for row in rows]
              for k, name in enumerate(("mae_of_means", "ks_d", "ks_critical"), 4)}
    distinct = set(scenarios)
    _check_scenarios(distinct, len(distinct))
    body = []
    panels = (("mae_of_means", "MAE of means"), ("ks_d", "KS statistic"))
    panel_w = (WIDTH - MARGIN_L - MARGIN_R) / len(panels)
    slots = {(a, v): k for k, (a, v, _) in enumerate(VARIANT_ORDER)}
    colors = {(a, v): c for a, v, c in VARIANT_ORDER}
    # Dots spread 2.2 px per model about the slot centre and 1.1 px per
    # scenario, shrunk where a dot would cross the slot's edge.
    centre = max(models, default=0) / 2
    reach = centre * 2.2 + max(scenarios, default=0) * 1.1
    half_slot = (panel_w - 40.0) / len(VARIANT_ORDER) / 2 - DOT_RADIUS
    scale = half_slot / reach if reach > half_slot else 1.0

    for p, (column, label) in enumerate(panels):
        x0 = MARGIN_L + p * panel_w
        x1 = x0 + panel_w - 40.0
        y0, y1 = HEIGHT - MARGIN_B, MARGIN_T + 16.0
        values = [value for value in scores[column] if value is not None]
        if not values:
            continue
        vmax = max(values) * 1.15 or 1.0

        def to_y(v):
            return y0 - v / vmax * (y0 - y1)

        for key, model, j, value in zip(keys, models, scenarios, scores[column]):
            if value is None:
                continue
            slot = slots.get(key)
            if slot is None:
                continue
            x = x0 + (slot + 0.5) / len(VARIANT_ORDER) * (x1 - x0)
            jitter = scale * ((model - centre) * 2.2 + j * 1.1)
            body.append(f'<circle cx="{_fmt(x + jitter)}" cy="{_fmt(to_y(value))}" '
                        f'r="{DOT_RADIUS:g}" fill="{colors[key]}" fill-opacity="0.65"/>')
        if column == "ks_d":
            crits = [value for value in scores["ks_critical"] if value is not None]
            if crits:
                crit = float(np.median(crits))
                body.append(_polyline([x0, x1], [to_y(crit), to_y(crit)], "#000000", 1.0))
                body.append(_text(x1, to_y(crit) - 5, "critical (5%)", 9, "end"))
        body.append(_polyline([x0, x1], [y0, y0], "#000000", 1.0))
        for k, (a, v, c) in enumerate(VARIANT_ORDER):
            x = x0 + (k + 0.5) / len(VARIANT_ORDER) * (x1 - x0)
            body.append(_text(x, y0 + 14, f"{a}", 10, "middle", c))
            body.append(_text(x, y0 + 27, v.replace("_", " "), 8, "middle", c))
        body.append(_text((x0 + x1) / 2, y1 - 8, label, 12))
        for tick in np.linspace(0, vmax, 5):
            body.append(_text(x0 - 6, to_y(tick) + 3, f"{tick:.3f}", 8, "end"))
    out_path.write_text(_svg_document(body, "Approach accuracy per (model, scenario)"),
                        encoding="utf-8")


def plot_decomposition(out_path: Path, components: list[list[np.ndarray]]) -> None:
    """One panel per scenario: the mean absolute value of each component."""
    body = []
    panel_w = (WIDTH - MARGIN_L - MARGIN_R) / len(components)
    values = [[float(_finite(np.mean(np.abs(column)))) for column in columns]
              for columns in components]
    vmax = max(max(v) for v in values) * 1.2 or 1.0
    y0, y1 = HEIGHT - MARGIN_B, MARGIN_T + 16.0
    for j, row in enumerate(values):
        x0 = MARGIN_L + j * panel_w
        x1 = x0 + panel_w - 50.0
        bar_w = (x1 - x0) / len(COMPONENTS) * 0.7
        for k, ((name, color), value) in enumerate(zip(COMPONENTS, row)):
            x = x0 + (k + 0.15) / len(COMPONENTS) * (x1 - x0)
            h = value / vmax * (y0 - y1)
            body.append(f'<rect x="{_fmt(x)}" y="{_fmt(y0 - h)}" '
                        f'width="{_fmt(bar_w)}" height="{_fmt(h)}" fill="{color}"/>')
            body.append(_text(x + bar_w / 2, y0 + 12,
                              name.replace("_error", "").replace("_", " "), 8))
            body.append(_text(x + bar_w / 2, y0 - h - 4, f"{value:.3f}", 8))
        body.append(_polyline([x0, x1], [y0, y0], "#000000", 1.0))
        body.append(_text((x0 + x1) / 2, y0 + 30, f"scenario {j}", 11))
    out_path.write_text(_svg_document(body, "Mean absolute error decomposition"),
                        encoding="utf-8")


def plot_report_dir(report_dir, out_dir=None) -> list[Path]:
    """Render all three figures; returns the written paths."""
    report_dir = Path(report_dir)
    out = Path(out_dir) if out_dir is not None else report_dir
    out.mkdir(parents=True, exist_ok=True)
    world, decomposition = report_dir / "world.csv", report_dir / "decomposition.csv"
    with _reading(world):
        kinds = _scenario_kinds(world)
    with _reading(decomposition):
        components = _components(decomposition, len(kinds))
    true_errors = [columns[0] for columns in components]   # calibration_error
    written = []
    for name, source, draw in (
            ("error_densities.svg", "approach_estimates.csv",
             lambda path: plot_error_densities(report_dir, path, kinds, true_errors)),
            ("accuracy_summary.svg", "report.csv",
             lambda path: plot_accuracy_summary(report_dir, path)),
            ("decomposition.svg", "decomposition.csv",
             lambda path: plot_decomposition(path, components))):
        path = out / name
        # A huge finite value can overflow to inf or nan, which the checks
        # reject, so numpy need not warn of it.
        with _reading(report_dir / source), np.errstate(over="ignore", invalid="ignore"):
            draw(path)
        written.append(path)
    return written
