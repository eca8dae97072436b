"""Run one lincore benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: lincore is imported from ``src/``
next to this directory.  Rounds of the workload's operations repeat until
``--seconds`` have passed; every round is whole, so the share of failed
operations does not depend on the run length.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json`` as medians of their repeats.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics (medians over traced rounds) plus ``trace.overhead``.
Times are scaled to nominal machine speed (see ``calibration.py``).
The last line of standard output is the result object; a per-run record
and the spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
# Set-up (input generation and warm-up) is repeated this many times and the
# median reported, so that one slow repetition does not move setup_s.
SETUP_REPEATS = 3
# One BLAS thread: the workloads are single-process and the inputs small,
# and extra threads only add scheduling noise on a shared machine.
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIME_UNITS = ("s", "us")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_declared():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def import_lincore() -> float:
    """Import lincore from this checkout's src/ and return the seconds it took."""
    src = ROOT / "src"
    if not (src / "lincore" / "__init__.py").is_file():
        raise SystemExit(f"no lincore sources under {src}; run from a source checkout")
    for name in BLAS_VARIABLES:
        os.environ[name] = BLAS_THREADS
    sys.path.insert(0, str(src))
    tick = time.perf_counter()
    import lincore  # noqa: F401

    seconds = time.perf_counter() - tick
    if Path(lincore.__file__).resolve().parent != (src / "lincore").resolve():
        raise SystemExit(f"imported lincore from {lincore.__file__}, not from {src}")
    return seconds


def run_record(args) -> dict:
    import numpy
    import scipy

    import lincore

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_VARIABLES},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "lincore": lincore.__version__,
        "machine": platform.machine(),
    }


def median(values):
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    args = parse_args(argv)
    declared = load_declared()
    if args.workload not in [w["name"] for w in declared["workloads"]]:
        raise SystemExit(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        raise SystemExit("--seconds must be positive")

    import_s = import_lincore()
    import calibration
    import workloads

    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.Workload(args.workload, args.seed, out_dir)
    ledger = workloads.Ledger()
    timings = workloads.Timings()

    # Set-up is scaled by the machine speed measured during set-up, the
    # rounds by the speed measured during the rounds (see calibration.py).
    calibration.kernel_ms()  # the first call pays one-off costs
    setup, setup_calibration = [], []
    for _ in range(SETUP_REPEATS):
        setup_calibration.append(calibration.kernel_ms())
        tick = time.perf_counter()
        workload.prepare()
        workload.warm_up()
        setup.append(time.perf_counter() - tick)

    if args.trace:
        raw, rounds = traced_rounds(workload, ledger, timings, args, out_dir)
        wanted = declared["per_layer"]
    else:
        raw, rounds = untraced_rounds(workload, ledger, timings, args)
        wanted = declared["end_to_end"]

    calibration_ms = statistics.median(timings.samples[calibration.NAME][None])
    scale = calibration.NOMINAL_MS / calibration_ms
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = {k: v * scale if units.get(k) in TIME_UNITS else v for k, v in raw.items()}
    if not args.trace:
        raw["setup_s"] = import_s + median(setup)
        metrics["setup_s"] = raw["setup_s"] * calibration.NOMINAL_MS / median(setup_calibration)
    metrics = {k: v for k, v in metrics.items() if v is not None and math.isfinite(v)}
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    correct = not ledger.unexpected and not missing
    for problem in ledger.unexpected[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    if missing:
        print(f"no value for {missing}", file=sys.stderr)

    record = dict(run_record(args), rounds=rounds, setup_repeats_s=setup, import_s=import_s,
                  calibration_ms=calibration_ms, speed_scale=scale, raw_metrics=raw,
                  setup_calibration_ms=setup_calibration,
                  attempted=ledger.attempted, failed=ledger.failed, unexpected=ledger.unexpected)
    with open(out_dir / "record.json", "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps({k: record[k] for k in ("workload", "seed", "nproc", "blas_threads", "python",
                                               "numpy", "scipy", "rounds", "calibration_ms")}))
    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
            if m["name"] in metrics
        },
    }
    print(json.dumps(result))
    return 0


def untraced_rounds(workload, ledger, timings, args):
    import calibration

    walls = []
    deadline = time.perf_counter() + args.seconds
    while True:
        tick = time.perf_counter()
        workload.round(ledger, timings)
        walls.append(time.perf_counter() - tick)
        if time.perf_counter() >= deadline:
            break
    metrics = timings.values()
    del metrics[calibration.NAME]
    return dict(metrics, wall_s=median(walls)), len(walls)


def traced_rounds(workload, ledger, timings, args, out_dir: Path):
    """Pairs of (untraced, traced) rounds, each re-preparing its inputs.

    Only the untraced rounds add to ``timings`` (calibration samples)."""
    import tracing
    import workloads

    per_round: list[dict] = []
    plain, traced = [], []
    spans = out_dir / "spans.csv"
    deadline = time.perf_counter() + args.seconds
    while True:
        tick = time.perf_counter()
        workload.prepare()
        workload.round(ledger, timings)
        plain.append(time.perf_counter() - tick)

        tracer = tracing.Tracer()
        tick = time.perf_counter()
        with tracer:
            workload.prepare()
            workload.round(ledger, workloads.Timings())
        traced.append(time.perf_counter() - tick)
        per_round.append(tracing.layer_metrics(tracer))
        tracer.write_csv(spans, len(per_round) - 1, append=len(per_round) > 1)
        if time.perf_counter() >= deadline:
            break
    metrics = {name: median([m[name] for m in per_round]) for name in per_round[0]}
    metrics["trace.overhead"] = median(traced) / median(plain)
    return metrics, len(per_round)


if __name__ == "__main__":
    sys.exit(main())
