"""Command-line entry point: ``python -m repro.experiments`` / ``repro-experiments``.

Subcommands:

* ``list`` — print the experiment ids and their titles;
* ``run <id> [--reps N] [--seed S]`` — run one experiment and print its
  report (non-zero exit when any shape check fails); ``run churn`` is
  the dynamic-population attrition sweep (see the docs' "Dynamic
  populations" page), ``run categorical [--alphabet Q]`` the
  multi-category employment-status figure, ``run multiattr
  [--attributes D]`` the multi-attribute composition figure, and ``run
  utility`` the pMSE / accuracy frontier over rho x horizon x algorithm
  (see the docs' "Utility evaluation" page);
* ``all [--reps N]`` — run every experiment;
* ``serve-demo`` — replay the SIPP panel round-by-round through the
  online serving layer (:mod:`repro.serve`) with mid-stream
  checkpoint/restore and sharded-service self-checks; ``--households``
  shrinks the panel for smoke runs and ``--chaos`` adds the
  fault-injection leg (supervised recovery under worker kills and
  storage corruption).
"""

from __future__ import annotations

import argparse
import sys

from repro.exceptions import ConfigurationError
from repro.experiments.config import default_reps
from repro.experiments.registry import get_experiment, list_experiments

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the paper's figures and ablations.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiment ids")

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment_id", help="e.g. fig1, fig3, abl-counter")
    for sub in (run_parser, subparsers.add_parser("all", help="run every experiment")):
        sub.add_argument("--reps", type=int, default=default_reps)
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument(
            "--alphabet",
            type=int,
            default=None,
            help=(
                "category count q for the categorical figure ('run "
                "categorical'; default 3 — the employment-status "
                "workload); the binary experiments accept and ignore it"
            ),
        )
        sub.add_argument(
            "--attributes",
            type=int,
            default=None,
            help=(
                "attribute count d for the multi-attribute figure ('run "
                "multiattr'; default 2 — employment status x income "
                "bracket); other experiments accept and ignore it"
            ),
        )

    serve_parser = subparsers.add_parser(
        "serve-demo",
        help=(
            "replay the SIPP panel round-by-round through the online "
            "serving layer (repro.serve) with checkpoint/restore and "
            "sharded-service self-checks"
        ),
    )
    serve_parser.add_argument("--seed", type=int, default=0)
    serve_parser.add_argument(
        "--rho", type=float, default=0.005, help="per-stream zCDP budget"
    )
    serve_parser.add_argument(
        "--households",
        type=int,
        default=None,
        help=(
            "simulate a smaller SIPP cut with this many raw households "
            "(default: the paper's full N=23374 panel); used by the CI "
            "smoke leg"
        ),
    )
    serve_parser.add_argument(
        "--checkpoint-round",
        type=int,
        default=None,
        help="round after which the stream checkpoints (default: T // 2)",
    )
    serve_parser.add_argument(
        "--shards", type=int, default=4, help="shard count for the sharded leg"
    )
    serve_parser.add_argument(
        "--chaos",
        action="store_true",
        help=(
            "also run the fault-injection leg: a supervised service "
            "(repro.serve.SupervisedService) survives a mid-stream "
            "worker kill, a corrupted checkpoint bundle, and a torn "
            "journal tail with byte-identical recoveries"
        ),
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI body; returns the process exit code.

    Exit 1 means a shape check failed.  A bad argument the parser cannot
    see (an unknown experiment id, a non-positive count) exits 2 with one
    line on stderr, like argparse's own usage errors.
    """
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigurationError as exc:
        print(f"repro-experiments: error: {exc}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    if args.command == "list":
        for experiment_id in list_experiments():
            print(experiment_id)
        return 0
    if args.command == "serve-demo":
        from repro.experiments.serve_demo import run_serve_demo

        result = run_serve_demo(
            seed=args.seed,
            rho=args.rho,
            n_households=args.households,
            checkpoint_round=args.checkpoint_round,
            n_shards=args.shards,
            chaos=args.chaos,
        )
        print(result.render())
        return 0 if result.all_checks_pass else 1
    if args.command == "run":
        result = get_experiment(args.experiment_id)(
            args.reps,
            seed=args.seed,
            alphabet=args.alphabet,
            attributes=args.attributes,
        )
        print(result.render())
        return 0 if result.all_checks_pass else 1
    # command == "all"
    exit_code = 0
    for experiment_id in list_experiments():
        result = get_experiment(experiment_id)(
            args.reps,
            seed=args.seed,
            alphabet=args.alphabet,
            attributes=args.attributes,
        )
        print(result.render())
        print()
        if not result.all_checks_pass:
            exit_code = 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
