"""Command-line interface.

Subcommands: factor, sweep-trotter, sweep-commutator, obstruction, density,
verify.  Exit codes: 0 success; 1 for I/O, configuration, budget and precision
errors (ill-conditioned input); 2 for mathematical obstructions (non-positive
determinants, singular inputs, nonzero traces) and failed verification checks.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..errors import (
    BudgetExceeded,
    IllConditioned,
    InsufficientPoints,
    MathematicalObstruction,
)
from ..factorlab import (
    factorization_from_wire,
    factorization_to_wire,
    matrix_to_positive_factors,
)
from ..factorlab.types import FactorizationSchedule
from ..matcore import approximate_invertible, matrix_from_wire, operator_norm
from ..obstruction import DEFAULT_BUDGET_LADDER, verify_factorization
from .emit import format_value, rows_to_csv, to_json, write_output
from .runners import (
    ExperimentConfig,
    run_commutator_sweep,
    run_density_check,
    run_obstruction_landscape,
    run_trotter_sweep,
)

LANDMARK_FACTOR_COUNT = 11  # single positive + two five-factor conjugations


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; 2 is reserved for obstructions here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _parse_schedule(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("schedule must be 'TROTTER,COMMUTATOR'")
    try:
        t, c = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError("schedule entries must be integers") from exc
    if t < 1 or c < 1:
        raise argparse.ArgumentTypeError("schedule entries must be >= 1")
    return t, c


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(p) for p in text.split(",") if p != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected a comma-separated integer list") from exc
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(p) for p in text.split(",") if p != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected a comma-separated float list") from exc
    if not values:
        raise argparse.ArgumentTypeError("expected at least one value")
    return values


def _budget_ladder(args) -> tuple[FactorizationSchedule, ...]:
    if args.schedule is not None:
        t, c = args.schedule
        return (FactorizationSchedule(t, c, args.max_factors),)
    return tuple(
        FactorizationSchedule(b.trotter_steps, b.commutator_steps, args.max_factors)
        for b in DEFAULT_BUDGET_LADDER
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="posfactor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=0, help="64-bit stream seed")
        p.add_argument(
            "--format", choices=("csv", "json"), default="csv", help="output format"
        )
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p_factor = sub.add_parser("factor", help="factor a matrix into positive factors")
    p_factor.add_argument("--target", required=True, help="path to a matrix JSON file")
    p_factor.add_argument(
        "--schedule", type=_parse_schedule, default=(8, 8),
        help="trotter,commutator steps (default 8,8)",
    )
    p_factor.add_argument("--max-factors", type=int, default=100_000)
    p_factor.add_argument(
        "--eps", type=float, default=1e-3,
        help="regularization distance used with --perturb (default 1e-3)",
    )
    p_factor.add_argument(
        "--perturb", action="store_true",
        help="replace a singular target by an invertible neighbour first",
    )
    p_factor.add_argument(
        "--verify", action="store_true", help="re-check all invariants after factoring"
    )
    p_factor.add_argument("--out", default=None, help="write factorization JSON here")
    p_factor.set_defaults(func=_cmd_factor)

    for name, help_text in (
        ("sweep-trotter", "product-formula convergence sweep"),
        ("sweep-commutator", "group-commutator convergence sweep"),
    ):
        p_sweep = sub.add_parser(name, help=help_text)
        p_sweep.add_argument(
            "--n", type=_parse_int_list, default=(4, 8, 16, 32, 64),
            help="comma-separated step counts (default 4,8,16,32,64)",
        )
        p_sweep.add_argument(
            "--dim", type=_parse_int_list, default=(2, 4),
            help="comma-separated matrix dimensions (default 2,4)",
        )
        p_sweep.add_argument(
            "--timings", action="store_true",
            help="include wall-clock times (breaks byte determinism)",
        )
        add_common(p_sweep)
        p_sweep.set_defaults(func=_cmd_sweep, kind=name.split("-")[1])

    p_obs = sub.add_parser("obstruction", help="scalar obstruction landscape")
    p_obs.add_argument("--n", type=int, default=2, help="matrix dimension (default 2)")
    p_obs.add_argument("--grid", type=int, default=None, help="phase grid size (default 4n)")
    p_obs.add_argument("--eps", type=float, default=0.25, help="acceptance threshold")
    p_obs.add_argument(
        "--schedule", type=_parse_schedule, default=None,
        help="single budget 'T,C' instead of the default ladder",
    )
    p_obs.add_argument("--max-factors", type=int, default=100_000)
    p_obs.add_argument(
        "--allow-large", action="store_true", help="lift the n <= 4 guard"
    )
    add_common(p_obs)
    p_obs.set_defaults(func=_cmd_obstruction)

    p_density = sub.add_parser("density", help="torus density correction checks")
    p_density.add_argument(
        "--eps", type=_parse_float_list, default=(1.0, 0.5, 0.25),
        help="comma-separated eps values in (0, 2) (default 1.0,0.5,0.25)",
    )
    add_common(p_density)
    p_density.set_defaults(func=_cmd_density)

    p_verify = sub.add_parser("verify", help="re-check a stored factorization")
    p_verify.add_argument("factorization", help="path to a factorization JSON file")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_factor(args) -> int:
    raw = json.loads(Path(args.target).read_text(encoding="utf-8"))
    x = matrix_from_wire(raw)
    if args.perturb:
        x = approximate_invertible(x, args.eps)
    t, c = args.schedule
    schedule = FactorizationSchedule(t, c, args.max_factors)
    pf = matrix_to_positive_factors(x, schedule)
    payload = to_json(factorization_to_wire(pf))
    summary_stream = sys.stdout if args.out is not None else sys.stderr
    if args.out is not None:
        write_output(payload, args.out)
    else:
        sys.stdout.write(payload)
    count = len(pf.factors)
    summary_stream.write(
        "factored: method={} error={} factors={} landmark={} ratio={} rel_error={}\n".format(
            pf.method,
            format_value(pf.error),
            count,
            LANDMARK_FACTOR_COUNT,
            format_value(count / LANDMARK_FACTOR_COUNT),
            format_value(pf.error / operator_norm(pf.target)),
        )
    )
    if args.verify:
        checks = verify_factorization(pf)
        failed = _write_checks(checks, summary_stream)
        if failed:
            return 2
    return 0


def _cmd_sweep(args) -> int:
    config = ExperimentConfig(
        seed=args.seed,
        dims=args.dim,
        steps=args.n,
        timings=args.timings,
    )
    runner = run_trotter_sweep if args.kind == "trotter" else run_commutator_sweep
    result = runner(config)
    if args.format == "csv":
        header = ["dim", "steps", "error", "factor_count"]
        if args.timings:
            header.append("wall_time")
        rows = []
        for r in result.rows:
            row = [r.dim, r.steps, r.error, r.factor_count]
            if args.timings:
                row.append(r.wall_time)
            rows.append(row)
        write_output(rows_to_csv(header, rows), args.out)
        for dim in sorted(result.orders):
            order = result.orders[dim]
            if order is None:
                sys.stdout.write(f"order dim={dim} skipped (noise floor)\n")
            else:
                sys.stdout.write(f"order dim={dim} value={format_value(order)}\n")
    else:
        obj = {
            "rows": [
                {
                    "dim": r.dim,
                    "steps": r.steps,
                    "error": r.error,
                    "factorCount": r.factor_count,
                    **({"wallTime": r.wall_time} if args.timings else {}),
                }
                for r in result.rows
            ],
            "orders": {str(d): result.orders[d] for d in result.orders},
            "degenerate": {str(d): result.degenerate[d] for d in result.degenerate},
        }
        write_output(to_json(obj), args.out)
    return 0


def _cmd_obstruction(args) -> int:
    config = ExperimentConfig(
        seed=args.seed,
        n=args.n,
        grid=args.grid,
        eps=args.eps,
        schedules=_budget_ladder(args),
        allow_large=args.allow_large,
    )
    rows = run_obstruction_landscape(config)
    if args.format == "csv":
        header = [
            "phase", "lambda_re", "lambda_im", "n", "in_group",
            "best_distance", "accepted", "budget_trotter", "budget_commutator",
            "budget_exceeded",
        ]
        table = [
            [
                r["phase"], r["lambda"][0], r["lambda"][1], r["n"], r["inGroup"],
                r["bestDistance"], r["accepted"], r["budget"]["trotter"],
                r["budget"]["commutator"], r["budgetExceeded"],
            ]
            for r in rows
        ]
        write_output(rows_to_csv(header, table), args.out)
    else:
        write_output(to_json({"rows": rows}), args.out)
    return 0


def _cmd_density(args) -> int:
    config = ExperimentConfig(seed=args.seed, eps_values=args.eps)
    rows = run_density_check(config)
    if args.format == "csv":
        header = ["eps", "m", "N", "dense", "product_deviation", "passed"]
        table = [
            [r["eps"], r["m"], r["N"], r["dense"], r["productDeviation"], r["passed"]]
            for r in rows
        ]
        write_output(rows_to_csv(header, table), args.out)
    else:
        write_output(to_json({"rows": rows}), args.out)
    return 0 if all(r["passed"] for r in rows) else 2


def _cmd_verify(args) -> int:
    raw = json.loads(Path(args.factorization).read_text(encoding="utf-8"))
    pf = factorization_from_wire(raw)
    checks = verify_factorization(pf)
    failed = _write_checks(checks, sys.stdout)
    return 2 if failed else 0


def _write_checks(checks, stream) -> bool:
    failed = False
    for name, ok, detail in checks:
        stream.write(f"{'OK  ' if ok else 'FAIL'} {name}: {detail}\n")
        failed = failed or not ok
    return failed


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MathematicalObstruction as exc:
        sys.stderr.write(f"obstruction: {exc}\n")
        return 2
    except (BudgetExceeded, InsufficientPoints) as exc:
        sys.stderr.write(f"budget: {exc}\n")
        return 1
    except (OSError, json.JSONDecodeError, ValueError, IllConditioned) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
