"""Command-line entry point.

Subcommands mirror the experiment drivers: ``rates``, ``stability``,
``scaling``, ``train-seq``, ``noise``, and ``selftest``.  Global options
pick the seed, output directory, and an optional JSON config whose flat
keys override the driver defaults (unknown keys are rejected).  Exit codes:
0 success, 1 experiment or selftest failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import LincoreError
from .experiments import (
    run_noise,
    run_rates,
    run_scaling,
    run_selftest,
    run_stability,
    run_train_seq,
)
from .trainers import OBJECTIVES


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master seed for all streams")
    parser.add_argument("--out-dir", default="out", help="directory for CSV/JSON artifacts")
    parser.add_argument("--config", default=None, help="JSON file of flat config overrides")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lincore",
        description="Linear-core surrogate experiments: rates, stability, scaling, training, noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        ("rates", "biased-coin rate curves and log-log slopes"),
        ("stability", "rate slopes across core half-widths"),
        ("scaling", "per-batch update time across label-set sizes"),
        ("noise", "label-noise robustness of CE/GCE vs the linear-core sum loss"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)

    p = sub.add_parser("train-seq", help="train one objective on synthetic chain data")
    _add_common(p)
    p.add_argument(
        "--objective",
        choices=OBJECTIVES,
        default=None,
        help="training objective (default from config)",
    )
    p.add_argument("--Y", type=int, default=None, help="label alphabet size")
    p.add_argument("--L", type=int, default=None, help="sequence length")
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--eta", type=float, default=None)

    p = sub.add_parser("selftest", help="run the invariant battery; nonzero exit on failure")
    p.add_argument("--seed", type=int, default=0, help=argparse.SUPPRESS)
    return parser


def _load_overrides(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as handle:
        try:
            loaded = json.load(handle)
        except json.JSONDecodeError as exc:
            raise LincoreError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise LincoreError("config file must hold a flat JSON object")
    return loaded


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "selftest":
            results = run_selftest()
            failed = [r for r in results if not r.passed]
            print(f"selftest: {len(results) - len(failed)}/{len(results)} checks passed")
            return 1 if failed else 0

        overrides = _load_overrides(args.config)
        if args.command == "rates":
            result = run_rates(overrides, seed=args.seed, out_dir=args.out_dir)
            for name, slope in sorted(result.slopes.items()):
                print(f"{name}: slope {slope:.4f}")
        elif args.command == "stability":
            result = run_stability(overrides, seed=args.seed, out_dir=args.out_dir)
            for row in result.rows:
                print(f"tau {row.tau:g}: slope {row.slope:.4f}")
        elif args.command == "scaling":
            result = run_scaling(overrides, seed=args.seed, out_dir=args.out_dir)
            for row in result.rows:
                flag = " (jitter)" if row.cv_flag else ""
                print(
                    f"{row.method} Y={row.n_labels}: {row.seconds_per_batch * 1e3:.3f} ms/batch{flag}"
                )
        elif args.command == "noise":
            result = run_noise(overrides, seed=args.seed, out_dir=args.out_dir)
            for acc in result.accuracies:
                if acc.loss in ("ce", "lc", "gce_best"):
                    print(f"{acc.loss} rho={acc.noise_rate:g}: accuracy {acc.test_accuracy:.4f}")
        else:  # train-seq
            for key, flag in [
                ("objective", "objective"),
                ("n_labels", "Y"),
                ("length", "L"),
                ("iterations", "iterations"),
                ("eta", "eta"),
            ]:
                value = getattr(args, flag, None)
                if value is not None:
                    overrides[key] = value
            result = run_train_seq(overrides, seed=args.seed, out_dir=args.out_dir)
            last = result.result.history[-1] if result.result.history else None
            if last is not None:
                print(
                    f"final iteration {last.iteration}: objective {last.objective:.4f}, "
                    f"test error {last.test_error:.4f}"
                )
        return 0
    except LincoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
