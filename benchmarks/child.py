"""One benchmark repetition, run in a fresh single-threaded process.

    python3 benchmarks/child.py --config FILE --out DIR --parent-start T
        [--setup-only] [--trace] [--check-solver]

Imports ``scenario_eval`` and loads the workload config (set-up), then calls
``scenario_eval.cli.main`` with ``run --config FILE --out DIR`` and with
``plot --in DIR``, the same entry point and arguments as
``python -m scenario_eval.cli``; ``plot`` repeats while it is short. The
CLI's own output goes to the null device. After the timed part it reads the
outputs back and prints one JSON object of timings and facts to stdout;
``run.py`` decides what is correct.

``--parent-start`` is the parent's ``time.monotonic()`` just before it
started this process. The clock is system-wide, so ``setup_s`` covers process
start, interpreter start, imports and ``load_settings``.

Reported times are scaled to a fixed machine speed. On a shared virtual
machine the same code runs up to 1.6x slower for seconds to minutes at a
time while other tenants load the host, and process CPU time slows with it.
So each timed part is gauged with a fixed reference loop (interpreter work,
small and large numpy operations, string formatting; no ``scenario_eval``
code): once before it, once after it and, untraced, every
``GAUGE_INTERVAL_S`` of wall time during it from a ``SIGALRM`` handler whose
own time is taken back out. A part's reported time is its wall time times
``REFERENCE_S`` / (mean reference-loop time over its gauges). The raw wall
times are reported beside the scaled ones.
"""

import sys
import time

# A plot of a small report takes tens of milliseconds, so an untraced
# repetition repeats it (it rewrites the same figures) until this much time
# has passed, and reports the mean call.
PLOT_BUDGET_S = 0.5
PLOT_MAX_CALLS = 9

# About the reference loop's time on the 2-vCPU machine the baseline figures
# were recorded on (2.1-3.3 ms); it only fixes the scale of reported times.
REFERENCE_S = 0.003
GAUGE_INTERVAL_S = 0.1
GAUGE_LOOPS = 5          # loops in the gauge before and after a part; median

_REFERENCE_DATA = []


def _reference_loop(loops: int = 1) -> float:
    """Median wall time of ``loops`` runs of the fixed reference loop."""
    import statistics

    import numpy as np

    if not _REFERENCE_DATA:
        rng = np.random.default_rng(12345)
        _REFERENCE_DATA.extend((rng.random(1650) + 0.5, rng.random(100_000)))
    small, large = _REFERENCE_DATA
    times = []
    for _ in range(loops):
        start = time.perf_counter()
        x = small
        for _ in range(60):
            x = x + 0.01 * (np.exp(-x) * x - 0.5 * x)
        np.sort(large)
        "".join(f"{k},{k * 0.37:.6g}\n" for k in range(1500))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _gauged(fn, sample: bool):
    """Call ``fn()``; return its result, wall time and mean reference-loop
    time over the gauges before, during (when ``sample``) and after it."""
    import signal

    ticks = []      # (start, handler time, loop time) of the gauges during fn

    def tick(_signum, _frame):
        at = time.perf_counter()
        loop = _reference_loop()
        ticks.append((at, time.perf_counter() - at, loop))

    gauges = [_reference_loop(GAUGE_LOOPS)]
    if sample:
        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_INTERVAL_S, GAUGE_INTERVAL_S)
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        if sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        if sample:
            signal.signal(signal.SIGALRM, previous)
    during = [t for t in ticks if t[0] < end]
    gauges += [loop for _, _, loop in during] + [_reference_loop(GAUGE_LOOPS)]
    wall = end - start - sum(handler for _, handler, _ in during)
    return result, wall, sum(gauges) / len(gauges)


def _peak_rss_mb() -> float:
    """High-water resident set of this process image, from /proc."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(argv) -> int:
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--parent-start", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check-solver", action="store_true")
    args = parser.parse_args(argv)

    from scenario_eval import cli, harness
    harness.load_settings(args.config)
    setup_wall_s = time.monotonic() - args.parent_start
    _reference_loop()                   # warm-up: first-call costs
    setup_s = setup_wall_s * REFERENCE_S / _reference_loop(GAUGE_LOOPS)

    import json
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0

    import contextlib
    import os

    from scenario_eval import sir_core

    # Keep the one batch solve of the run for the accuracy check below.
    solve = sir_core.final_size_batch
    batches = []

    def recorded_solve(*a, **k):
        result = solve(*a, **k)
        batches.append((a, k, result))
        return result

    sir_core.final_size_batch = recorded_solve

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.instrument(tracer)

    def plots() -> tuple[int, int]:
        """Repeat ``plot`` (it rewrites the same figures) within the budget;
        return its last exit code and the number of calls."""
        calls, code, start = 0, 0, time.perf_counter()
        while code == 0 and calls < max_calls \
                and time.perf_counter() - start < PLOT_BUDGET_S:
            code = cli.main(["plot", "--in", args.out])
            calls += 1
        return code, calls

    max_calls = 1 if tracer else PLOT_MAX_CALLS
    sample = tracer is None
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        run_code, run_wall_s, run_ref = _gauged(
            lambda: cli.main(["run", "--config", args.config, "--out", args.out]), sample)
        (plot_code, calls), plot_wall_s, plot_ref = _gauged(plots, sample)
    peak_rss_mb = _peak_rss_mb()

    plot_wall_s /= calls
    result = {"setup_s": setup_s, "run_s": run_wall_s * REFERENCE_S / run_ref,
              "plot_s": plot_wall_s * REFERENCE_S / plot_ref,
              "setup_wall_s": setup_wall_s, "run_wall_s": run_wall_s,
              "plot_wall_s": plot_wall_s, "reference_s": run_ref,
              "peak_rss_mb": peak_rss_mb, "exit_codes": [run_code, plot_code],
              "solves": sum(len(r) for _, _, r in batches)}
    result.update(_read_outputs(args.out))
    if args.check_solver:
        result["solver_max_dev"] = _solver_deviation(solve, batches)
    if tracer is not None:
        result["layers"] = spans.summarize(tracer.spans, tracer.counts, run_wall_s)
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


def _read_outputs(out_dir) -> dict:
    """Digests, table row counts and sizes of the data files, the largest
    decomposition identity residual, and report.csv's mean columns."""
    import csv
    import hashlib
    from pathlib import Path

    from scenario_eval.harness import DATA_FILES

    out = Path(out_dir)
    digests, rows = {}, {}
    for name in DATA_FILES:
        data = (out / name).read_bytes()
        digests[name] = hashlib.sha256(data).hexdigest()
        rows[name] = data.count(b"\n") - 1
    with open(out / "decomposition.csv", encoding="utf-8") as handle:
        residual = max((abs(float(r["observed_deviation"])
                            - (float(r["calibration_error"])
                               + float(r["scenario_spec_error"])))
                        for r in csv.DictReader(handle)), default=0.0)
    with open(out / "report.csv", encoding="utf-8") as handle:
        report = {",".join((r["approach"], r["variant"], r["model_id"],
                            r["scenario_index"])):
                  [r["est_mean"], r["true_mean"], r["mae_of_means"]]
                  for r in csv.DictReader(handle)}
    return {"digests": digests, "rows": rows,
            "bytes_written": sum(path.stat().st_size for path in out.iterdir()
                                 if path.suffix != ".svg"),
            "decomposition_max_residual": residual, "report": report}


def _solver_deviation(solve, batches, n_checked: int = 256) -> float:
    """Largest |final size - re-solve at a quarter of the step| over
    ``n_checked`` solves spread evenly through the run's batch."""
    import numpy as np

    from scenario_eval import sir_core

    (r0, alpha, v), kwargs, sizes = batches[0]
    picked = np.linspace(0, len(sizes) - 1, n_checked).round().astype(int)
    fine = dict(kwargs, step=kwargs.get("step", sir_core.DEFAULT_STEP) / 4)
    refined = solve(r0[picked], alpha[picked], v[picked], **fine)
    return float(np.max(np.abs(refined - sizes[picked])))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
