"""Layer spans for the traced benchmark repetition, recorded from outside.

``instrument`` replaces each module attribute that a caller in the
``scenario_eval`` package looks up (``world_gen.generate``,
``sir_core.final_size_batch``, ``metrics.ks_two_sample``, ...) with a wrapper
that records a span and the work counters of that call. No file of the
package is edited. The swap lasts for the life of the process, and the
benchmark runs each repetition in a fresh child process, so nothing is
restored.

A span is ``[name, start, end, parent]``: ``parent`` indexes the enclosing
span in the same list, or is -1. The layer of a span is the part of its name
before the first dot. Self time is a span's duration minus the durations of
its direct children.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

LAYERS = ("cli", "harness", "world_gen", "streams", "sir_core", "spline_fit",
          "approaches", "metrics", "plots")
TABLE_BUILDERS = ("_report_rows", "_estimate_rows", "_decomposition_rows",
                  "_a1_deviation_rows", "_implied_obs_rows", "_location_mae_rows")


class Tracer:
    """Spans and counters of one repetition, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped in a span; ``count(counts, args, kwargs,
        result)`` runs after the span ends."""
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def swap(self, owner, attr: str, name: str, count=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))


class _CountingGenerator:
    """Generator proxy that counts the normal draws made through it."""

    def __init__(self, generator, counts: Counter):
        self._generator = generator
        self._counts = counts

    def normal(self, *args, **kwargs):
        out = self._generator.normal(*args, **kwargs)
        self._counts["approaches.samples_drawn"] += np.size(out)
        return out


def _solves(counts, args, kwargs, result):
    from scenario_eval import sir_core
    horizon = kwargs.get("horizon", sir_core.DEFAULT_HORIZON)
    step = kwargs.get("step", sir_core.DEFAULT_STEP)
    counts["sir_core.solves"] += len(result)
    counts["sir_core.rk4_steps"] += len(result) * int(round(horizon / step))


def _tally(key: str, amount=lambda args, kwargs, result: 1):
    def count(counts, args, kwargs, result):
        counts[key] += amount(args, kwargs, result)
    return count


def _ks(counts, args, kwargs, result):
    counts["metrics.ks_tests"] += 1
    counts["metrics.ks_points"] += result.n + result.m


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary of the run and plot commands."""
    from scenario_eval import (approaches, cli, harness, metrics, plots, sir_core,
                               spline_fit, world_gen)

    tracer.swap(cli, "main", "cli.main")
    tracer.swap(cli, "run", "harness.run")
    tracer.swap(cli, "plot_report_dir", "plots.plot_report_dir", _tally(
        "plots.bytes_written",
        lambda a, k, written: sum(path.stat().st_size for path in written)))
    for attr in ("load_settings", "evaluate", "write_report"):
        tracer.swap(harness, attr, f"harness.{attr}")
    for attr in TABLE_BUILDERS:
        tracer.swap(harness, attr, f"harness.{attr}",
                    _tally("harness.rows", lambda a, k, rows: len(rows)))

    tracer.swap(world_gen, "generate", "world_gen.generate", _tally(
        "world_gen.redraws", lambda a, k, result: result[1].redraw_count))
    tracer.swap(world_gen, "true_errors", "world_gen.true_errors")
    tracer.swap(world_gen, "substream", "streams.substream",
                _tally("streams.substreams"))
    traced_substream = tracer.wrap("streams.substream", approaches.substream,
                                   _tally("streams.substreams"))
    approaches.substream = lambda *key: _CountingGenerator(
        traced_substream(*key), tracer.counts)
    tracer.swap(sir_core, "final_size_batch", "sir_core.final_size_batch", _solves)

    tracer.swap(spline_fit, "fit", "spline_fit.fit", lambda counts, a, k, fitted: (
        counts.update({"spline_fit.fits": 1,
                       "spline_fit.collinear_fits": int(fitted.covariate_collinear)})))
    tracer.swap(spline_fit, "predict", "spline_fit.predict")
    tracer.swap(spline_fit, "predict_many", "spline_fit.predict_many", _tally(
        "spline_fit.predictions", lambda a, k, result: len(result[0])))
    tracer.swap(spline_fit, "sample_predictive", "spline_fit.sample_predictive")

    tracer.swap(approaches, "evaluate_plausible", "approaches.evaluate_plausible",
                _tally("approaches.empty_plausible", lambda a, k, result: sum(
                    dist is None for dist in result.pooled.values())))
    for attr in ("infer_error_distribution", "infer_observations",
                 "implied_observations"):
        tracer.swap(approaches, attr, f"approaches.{attr}")
    approaches.ErrorDistribution.make = staticmethod(tracer.wrap(
        "approaches.ErrorDistribution.make", approaches.ErrorDistribution.make,
        _tally("approaches.distributions")))

    tracer.swap(metrics, "mae_of_means", "metrics.mae_of_means")
    tracer.swap(metrics, "ks_two_sample", "metrics.ks_two_sample", _ks)
    tracer.swap(metrics, "decompose", "metrics.decompose",
                _tally("metrics.decompositions"))

    tracer.swap(plots, "_read_csv", "plots._read_csv", _tally(
        "plots.bytes_read", lambda args, k, result: args[0].stat().st_size))
    for attr in ("plot_error_densities", "plot_accuracy_summary", "plot_decomposition"):
        tracer.swap(plots, attr, f"plots.{attr}")


def summarize(spans: list[list], counts: Counter, run_s: float) -> dict:
    """Per-layer figures of one traced repetition.

    Span 0 is the ``run`` command's ``cli.main``; a later root span is the
    ``plot`` command's. Layer self times cover the run command, except
    ``plots.self_s``. ``trace.coverage`` is the share of this repetition's
    ``run_s`` that the layer spans below ``cli.main`` cover.
    """
    duration = [end - start for _, start, end, _ in spans]
    self_time = list(duration)
    in_run = [False] * len(spans)
    for index, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            self_time[parent] -= duration[index]
            in_run[index] = in_run[parent]
        else:
            in_run[index] = index == 0

    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    total: Counter = Counter()
    for index, (name, _, _, _) in enumerate(spans):
        layer = name.split(".", 1)[0]
        if in_run[index] or layer == "plots":
            out[f"{layer}.self_s"] += self_time[index]
        total[name] += duration[index]

    solves = counts["sir_core.solves"]
    out.update({
        "sir_core.solves": solves,
        "sir_core.rk4_steps": counts["sir_core.rk4_steps"],
        "sir_core.busy_s": total["sir_core.final_size_batch"],
        "sir_core.us_per_solve": 1e6 * total["sir_core.final_size_batch"] / solves,
        "streams.substreams": counts["streams.substreams"],
        "streams.busy_s": total["streams.substream"],
        "world_gen.redraws": counts["world_gen.redraws"],
        "spline_fit.fits": counts["spline_fit.fits"],
        "spline_fit.fit_s": total["spline_fit.fit"],
        "spline_fit.predictions": counts["spline_fit.predictions"],
        "spline_fit.predict_s": total["spline_fit.predict_many"],
        "spline_fit.collinear_fits": counts["spline_fit.collinear_fits"],
        "approaches.plausible_s": total["approaches.evaluate_plausible"],
        "approaches.error_regression_s": total["approaches.infer_error_distribution"],
        "approaches.observation_model_s": total["approaches.infer_observations"],
        "approaches.distributions": counts["approaches.distributions"],
        "approaches.samples_drawn": counts["approaches.samples_drawn"],
        "approaches.empty_plausible": counts["approaches.empty_plausible"],
        "metrics.ks_tests": counts["metrics.ks_tests"],
        "metrics.ks_points": counts["metrics.ks_points"],
        "metrics.ks_s": total["metrics.ks_two_sample"],
        "metrics.decompositions": counts["metrics.decompositions"],
        "metrics.decompose_s": total["metrics.decompose"],
        "harness.tables_s": sum(total[f"harness.{name}"] for name in TABLE_BUILDERS),
        "harness.rows": counts["harness.rows"],
        "harness.write_s": total["harness.write_report"],
        "plots.busy_s": total["plots.plot_report_dir"],
        "plots.bytes_read": counts["plots.bytes_read"],
        "plots.bytes_written": counts["plots.bytes_written"],
        "trace.self_sum_s": sum(out[f"{layer}.self_s"] for layer in LAYERS
                                if layer != "plots"),
        "trace.coverage": (duration[0] - self_time[0]) / run_s,
    })
    return out
