"""Benchmark of the scenario-eval batch experiment, end to end and per layer.

    python3 benchmarks/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is ``paper_default``, ``many_models``, ``deep_sampling`` or ``all``.
The benchmark writes the workload's ``key = value`` config from ``--seed``
and, for ``--seconds``, runs repetitions of ``scenario-eval run`` followed
by ``scenario-eval plot``, each in a fresh single-threaded child process
(``child.py``) with ``PYTHONPATH=src``. It checks every repetition's outputs
and prints each metric with its unit, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
repetitions (failed ones included; ``correct`` is then false): ``run_s`` and ``plot_s`` (the two commands inside the child),
``setup_s`` (child start through ``import scenario_eval`` and
``load_settings``, with set-up-only children when there are fewer than five
repetitions) and ``peak_rss_mb``. ``failed_runs``, the repetitions that
raised, exited non-zero or failed a check, is the ``failed`` field.
The three times are scaled to a fixed machine speed with a reference loop
timed beside them (see ``child.py``), because a shared virtual machine's
speed swings by up to 1.6x within a run; the raw wall-time medians are
printed beside them as ``*_wall_s``.

With ``--trace 1`` repetitions alternate between untraced and traced; the
traced ones time each layer from outside (``spans.py``) and the metrics are
the per-layer medians, in raw wall time. ``trace.overhead_s`` is traced minus
untraced ``run`` wall time; ``machine.reference_ms`` is the median
reference-loop time, the machine speed the run saw. Spans are kept in memory and written to
``.bench_work/trace-<workload>-seed<n>.json`` when the benchmark ends.

Checks, any of which fails the repetition:
  * every repetition gives the same SHA-256 for each data file;
  * 256 solves of the run, spread through its batch, match a re-solve at a
    quarter of the step within 1e-6 (first repetition, after the timing);
  * ``decomposition.csv`` has observed = calibration + scenario_spec within
    1e-12;
  * solves and table rows (and, traced, distributions and substreams) equal
    the workload's expected counts, and traced counts repeat exactly;
  * at seed 38, ``report.csv``'s est_mean, true_mean and mae_of_means are
    within 1e-6 of ``reference.json``;
  * traced: the layer spans cover at least 95% of ``run_s``.
Whether the data files are byte-identical to the seed-38 digests in
``reference.json`` is reported (``harness.digests_match``), not failed, so a
declared change of numerics shows as changed bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
REFERENCE_FILE = BENCH / "reference.json"

REFERENCE_SEED = 38
TABLE_FILES = ("approach_estimates.csv", "report.csv", "decomposition.csv",
               "a1_deviation.csv", "implied_obs_ks.csv", "location_mae.csv")
SOLVER_TOL = 1e-6
IDENTITY_TOL = 1e-12
REPORT_TOL = 1e-6
MIN_COVERAGE = 0.95
MIN_REPS = 3            # untraced repetitions, whatever --seconds says
MIN_SETUPS = 5          # set-up samples; set-up-only children make up the rest
CHILD_TIMEOUT_S = 40
STOP_AFTER_S = 90       # start no repetition after this, to end within 180 s

# Why each workload: see "workloads" in BENCHMARK.json. The expected counts
# were measured at the commit that introduced the benchmark.
WORKLOADS = {
    "paper_default": {
        "config": {},
        "counts": {"sir_core.solves": 1650, "harness.rows": 6740,
                   "approaches.distributions": 2100, "streams.substreams": 604},
    },
    "many_models": {
        "config": {"experiment": {"n_locations": 200, "n_models": 40}},
        "counts": {"sir_core.solves": 24600, "harness.rows": 104960,
                   "approaches.distributions": 32400, "streams.substreams": 8404},
    },
    "deep_sampling": {
        "config": {"approaches": {"n_samples": 100000}},
        "counts": {"sir_core.solves": 1650, "harness.rows": 6740,
                   "approaches.distributions": 2100, "streams.substreams": 604},
    },
}
END_TO_END = {"run_s": "s", "plot_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(Exception):
    pass


def _unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("us_per_solve"):
        return "us"
    if ".bytes_" in name:
        return "B"
    if name.endswith(("coverage", "digests_match")):
        return "share"
    return "count"


def write_config(path: Path, workload: str, seed: int) -> None:
    sections = {"experiment": {"seed": seed}}
    for section, values in WORKLOADS[workload]["config"].items():
        sections.setdefault(section, {}).update(values)
    path.write_text("".join(
        f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in values.items())
        for section, values in sections.items()), encoding="utf-8")


def run_child(config: Path, out: Path, *flags: str) -> dict:
    """Run one child process to completion and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    # Bytecode is cached, as in an installed package, whatever the caller's
    # environment says; the first set-up-only child of a run writes it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    shutil.rmtree(out, ignore_errors=True)
    command = [sys.executable, str(BENCH / "child.py"), "--config", str(config),
               "--out", str(out), "--parent-start", repr(time.monotonic()), *flags]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"timed out after {CHILD_TIMEOUT_S} s") from exc
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        raise ChildFailed(f"exit {done.returncode}: {tail[0]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(rep: dict, workload: str, seed: int, first: dict,
          reference: dict) -> list[str]:
    """Problems with one repetition's outputs; empty when it is correct.

    ``first`` holds the data-file digests and the traced layer figures of the
    first correct repetition of this seed, once there is one."""
    problems = []
    expected = WORKLOADS[workload]["counts"]
    if rep["exit_codes"] != [0, 0]:
        problems.append(f"exit codes {rep['exit_codes']}")
    if "digests" in first and rep["digests"] != first["digests"]:
        changed = sorted(n for n in rep["digests"] if rep["digests"][n] != first["digests"][n])
        problems.append(f"data files differ between repetitions: {changed}")
    rows = sum(rep["rows"][name] for name in TABLE_FILES)
    if rows != expected["harness.rows"]:
        problems.append(f"{rows} table rows, expected {expected['harness.rows']}")
    if rep["solves"] != expected["sir_core.solves"]:
        problems.append(f"{rep['solves']} solves, expected {expected['sir_core.solves']}")
    if rep.get("solver_max_dev", 0.0) > SOLVER_TOL:
        problems.append(f"solver off its quarter-step re-solve by {rep['solver_max_dev']:.3g}")
    if rep["decomposition_max_residual"] > IDENTITY_TOL:
        problems.append("decomposition identity off by "
                        f"{rep['decomposition_max_residual']:.3g}")
    if seed == REFERENCE_SEED:
        problems += _report_problems(rep["report"], reference["report"])
    layers = rep.get("layers")
    if layers is not None:
        for name, value in expected.items():
            if layers[name] != value:
                problems.append(f"traced {name} = {layers[name]}, expected {value}")
        if "layers" in first:
            moved = [n for n in layers if _unit(n) in ("count", "B")
                     and layers[n] != first["layers"][n]]
            if moved:
                problems.append(f"counts changed between repetitions: {moved}")
        if layers["trace.coverage"] < MIN_COVERAGE:
            problems.append(f"layer spans cover {layers['trace.coverage']:.3f} of run_s")
    return problems


def _report_problems(report: dict, reference: dict) -> list[str]:
    if report.keys() != reference.keys():
        return ["report.csv rows differ from the reference"]
    worst = 0.0
    for key, values in report.items():
        for value, ref in zip(values, reference[key]):
            if (value == "") != (ref is None):
                return [f"report.csv {key}: blank/non-blank differs from the reference"]
            if ref is not None:
                worst = max(worst, abs(float(value) - ref))
    if worst > REPORT_TOL:
        return [f"report.csv means off the reference by {worst:.3g}"]
    return []


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    reference = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))[workload]
    work = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config, out = work / "workload.ini", work / "out"
    write_config(config, workload, seed)
    started = time.monotonic()
    attempted, failed, failures = 0, 0, []
    untraced, traced, setups, spans = [], [], [], []
    first = {}

    def attempt(config_path: Path, rep_seed: int, *flags: str) -> dict | None:
        """Run and check one repetition; None when its child failed."""
        nonlocal attempted, failed
        attempted += 1
        try:
            rep = run_child(config_path, out, *flags)
        except ChildFailed as exc:
            rep, problems = None, [str(exc)]
        else:
            problems = check(rep, workload, rep_seed,
                             first if rep_seed == seed else {}, reference)
        if problems:
            failed += 1
            failures.extend(problems)
        elif rep_seed == seed:
            first.setdefault("digests", rep["digests"])
            if "layers" in rep:
                first.setdefault("layers", rep["layers"])
        return rep

    try:
        run_child(config, out, "--setup-only")   # writes the bytecode caches
        deadline = started + seconds
        while (len(untraced) < MIN_REPS or (trace and not traced)
               or time.monotonic() < deadline):
            if time.monotonic() - started > STOP_AFTER_S:
                break
            with_trace = trace and attempted % 2 == 1
            flags = ["--trace"] * with_trace + ["--check-solver"] * (attempted == 0)
            rep = attempt(config, seed, *flags)
            if rep is not None:
                (traced if with_trace else untraced).append(rep)
                setups.append(rep)
                if with_trace:
                    spans.append({"repetition": attempted, "spans": rep.pop("spans")})
        while len(setups) < MIN_SETUPS:
            setups.append(run_child(config, out, "--setup-only"))
        if trace:
            by_seed = untraced[0] if untraced and seed == REFERENCE_SEED else None
            if by_seed is None:
                reference_config = work / "reference.ini"
                write_config(reference_config, workload, REFERENCE_SEED)
                by_seed = attempt(reference_config, REFERENCE_SEED)
    except ChildFailed as exc:
        raise SystemExit(f"{workload}: set-up child failed: {exc}") from exc
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        WORK.joinpath(f"trace-{workload}-seed{seed}.json").write_text(json.dumps(
            {"workload": workload, "seed": seed, "repetitions": spans}), encoding="utf-8")
    if not untraced or (trace and not traced):
        raise SystemExit(f"{workload}: no repetition ran: {failures[:3]}")

    printed = {}
    if not trace:
        samples = {name: [rep[name] for rep in untraced] for name in END_TO_END}
        samples["setup_s"] = [rep["setup_s"] for rep in setups]
        printed = {f"{name}_wall_s": [rep[f"{name}_wall_s"] for rep in untraced]
                   for name in ("run", "plot")}
        printed["setup_wall_s"] = [rep["setup_wall_s"] for rep in setups]
    else:
        samples = {name: [rep["layers"][name] for rep in traced]
                   for name in traced[0]["layers"]}
        samples["harness.bytes_written"] = [rep["bytes_written"] for rep in traced]
        samples["trace.overhead_s"] = [
            statistics.median(rep["run_wall_s"] for rep in traced)
            - statistics.median(rep["run_wall_s"] for rep in untraced)]
        samples["harness.digests_match"] = [0.0 if by_seed is None else sum(
            by_seed["digests"][name] == digest
            for name, digest in reference["digests"].items()) / len(reference["digests"])]
        samples["machine.reference_ms"] = [rep["reference_s"] * 1e3
                                           for rep in untraced + traced]
    return {"workload": workload, "seed": seed, "attempted": attempted,
            "failed": failed, "failures": failures, "samples": samples,
            "printed": printed}


def report(result: dict, prefix: str = "") -> dict:
    """Print one workload's figures; return its metrics for the JSON line."""
    print(f"workload {result['workload']} seed {result['seed']}: "
          f"{result['attempted']} repetitions, failed_runs {result['failed']} (count)")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    metrics = {}
    for name, values in (result["samples"] | result["printed"]).items():
        median = statistics.median(values)
        q1, q3 = _quartiles(values)
        unit = _unit(name)
        print(f"  {name:32s} {median:14.6g} {unit:5s} q1 {q1:.6g} q3 {q3:.6g} n {len(values)}")
        if name in result["samples"]:
            metrics[prefix + name] = {"value": median, "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "scenario_eval" / "cli.py").is_file():
        print(f"benchmark: no scenario_eval sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        result = measure(name, args.seed, args.seconds, bool(args.trace))
        metrics.update(report(result, f"{name}." if len(names) > 1 else ""))
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
