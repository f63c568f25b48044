"""Record ``reference.json``: each workload's seed-38 data-file digests and
``report.csv`` est_mean, true_mean and mae_of_means.

    python3 benchmarks/record_reference.py

Re-record only with a declared change of the program's numerics, and say so
where the change is described.
"""

import json
import shutil

import run


def main() -> None:
    reference = {}
    work = run.WORK / "reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for workload in run.WORKLOADS:
            config = work / f"{workload}.ini"
            run.write_config(config, workload, run.REFERENCE_SEED)
            rep = run.run_child(config, work / "out")
            reference[workload] = {
                "seed": run.REFERENCE_SEED,
                "digests": rep["digests"],
                "report": {key: [float(v) if v != "" else None for v in values]
                           for key, values in rep["report"].items()},
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")


if __name__ == "__main__":
    main()
