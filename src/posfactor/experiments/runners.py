"""Seeded, reproducible experiment drivers behind the command line.

Identical configurations produce byte-identical outputs: all randomness runs
through per-(seed, purpose) PCG64 streams, rows come out in sorted order, and
wall-clock timings stay out of the tables unless explicitly requested.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import rng as rnd
from ..config import tolerances
from ..errors import InsufficientPoints
from ..factorlab import (
    commutator_exp_factors,
    eps_dense_correction,
    is_eps_dense,
    minimal_root_order,
    trotter_factors,
)
from ..factorlab.types import FactorizationSchedule
from ..matcore import chain_product, matrix_exp, operator_norm
from ..obstruction import DEFAULT_BUDGET_LADDER, estimate_group_G

__all__ = [
    "ExperimentConfig",
    "SweepRow",
    "run_trotter_sweep",
    "run_commutator_sweep",
    "run_obstruction_landscape",
    "run_density_check",
]

_STREAM_TROTTER = 1
_STREAM_COMMUTATOR = 2
_STREAM_DENSITY = 4


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs that fully determine an experiment's output bytes."""

    seed: int = 0
    dims: tuple[int, ...] = (2, 4)
    steps: tuple[int, ...] = (4, 8, 16, 32, 64)
    n: int = 2
    grid: int | None = None
    eps: float = 0.25
    eps_values: tuple[float, ...] = (1.0, 0.5, 0.25)
    schedules: tuple[FactorizationSchedule, ...] = DEFAULT_BUDGET_LADDER
    timings: bool = False
    allow_large: bool = False


@dataclass(frozen=True)
class SweepRow:
    """One sweep measurement; wall_time stays None unless timings are on."""

    dim: int
    steps: int
    error: float
    factor_count: int
    wall_time: float | None = None


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    orders: dict[int, float | None] = field(default_factory=dict)
    degenerate: dict[int, bool] = field(default_factory=dict)


def _noncommuting_pair(seed: int, stream: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded unit-norm Hermitian pair with a non-negligible commutator."""
    for attempt in range(64):
        gen_a = rnd.stream(seed, stream, dim, attempt, 0)
        gen_b = rnd.stream(seed, stream, dim, attempt, 1)
        a = rnd.hermitian(gen_a, dim, norm=1.0)
        b = rnd.hermitian(gen_b, dim, norm=1.0)
        if operator_norm(a @ b - b @ a) >= 0.05:
            return a, b
    raise RuntimeError("could not draw a non-commuting pair")  # pragma: no cover


def _fit_order(steps: list[int], errors: list[float]) -> float:
    """Least-squares slope of log error against log(1/steps)."""
    xs = np.log(np.asarray(steps, dtype=float))
    ys = np.log(np.asarray(errors, dtype=float))
    slope = np.polyfit(xs, ys, 1)[0]
    return float(-slope)


def _sweep(config: ExperimentConfig, kind: str, pair_factory=None) -> SweepResult:
    stream = _STREAM_TROTTER if kind == "trotter" else _STREAM_COMMUTATOR
    rows: list[SweepRow] = []
    orders: dict[int, float | None] = {}
    degenerate: dict[int, bool] = {}
    noise_floor = tolerances().reconstruction
    if len(set(int(s) for s in config.steps)) < 2:
        raise ValueError("sweep needs at least two distinct step counts")
    if pair_factory is None:
        pair_factory = _noncommuting_pair
    for dim in sorted(set(int(d) for d in config.dims)):
        a, b = pair_factory(config.seed, stream, dim)
        errors: list[float] = []
        step_list = sorted(set(int(s) for s in config.steps))
        for steps in step_list:
            t0 = time.perf_counter()
            if kind == "trotter":
                factors = trotter_factors(a, b, steps)
                target = matrix_exp(a + b)
                error = operator_norm(target - chain_product(factors, dim))
                count = len(factors)
            else:
                pf = commutator_exp_factors(a, b, steps)
                error = pf.error
                count = len(pf.factors)
            elapsed = time.perf_counter() - t0
            errors.append(float(error))
            rows.append(
                SweepRow(
                    dim=dim,
                    steps=steps,
                    error=float(error),
                    factor_count=count,
                    wall_time=elapsed if config.timings else None,
                )
            )
        if max(errors) <= noise_floor:
            degenerate[dim] = True
            orders[dim] = None
        else:
            degenerate[dim] = False
            orders[dim] = _fit_order(step_list, errors)
    return SweepResult(rows=tuple(rows), orders=orders, degenerate=degenerate)


def run_trotter_sweep(config: ExperimentConfig, pair_factory=None) -> SweepResult:
    """Product-formula error sweep; errors fall off at first order in 1/steps.

    Commuting inputs sit at the noise floor, in which case the order fit is
    skipped and the dimension is flagged degenerate.  ``pair_factory`` hooks
    the (a, b) generation for directed tests; by default a seeded unit-norm
    non-commuting Hermitian pair is drawn per dimension.
    """
    return _sweep(config, "trotter", pair_factory)


def run_commutator_sweep(config: ExperimentConfig, pair_factory=None) -> SweepResult:
    """Group-commutator error sweep with factor counts 3 * steps^2."""
    return _sweep(config, "commutator", pair_factory)


def run_obstruction_landscape(config: ExperimentConfig) -> list[dict]:
    """Scalar obstruction reports over a phase grid, as sorted row dicts.

    The accepted set {lambda : best_distance < eps} estimates which scalars
    admit approximate positive factorizations; it should match the n-th
    roots of unity.
    """
    n = int(config.n)
    if n > 4 and not config.allow_large:
        raise ValueError(
            f"landscape at n = {n} > 4 is expensive; pass allow_large to override"
        )
    grid = config.grid if config.grid is not None else 4 * n
    reports = estimate_group_G(n, grid=grid, budgets=config.schedules)
    rows = []
    for k, report in enumerate(reports):
        overflowed = any(err is None for _, err in report.ladder) and report.in_group
        rows.append(
            {
                "phase": k / grid,
                "lambda": [report.lam.real, report.lam.imag],
                "n": report.n,
                "bestDistance": report.best_distance,
                "inGroup": report.in_group,
                "accepted": bool(report.best_distance < config.eps),
                "budget": {
                    "trotter": report.budget.trotter_steps,
                    "commutator": report.budget.commutator_steps,
                    "maxFactors": report.budget.max_factors,
                },
                "budgetExceeded": bool(overflowed),
            }
        )
    return rows


def run_density_check(config: ExperimentConfig) -> list[dict]:
    """Torus-correction density rows, one per eps value.

    Each row draws N = m(eps)^2 seeded unimodular points, applies the
    correction, and brute-scans the circle at eps/10 resolution.
    """
    rows = []
    for index, eps in enumerate(config.eps_values):
        eps = float(eps)
        if not 0.0 < eps < 2.0:
            raise ValueError(f"eps values must lie in (0, 2), got {eps}")
        m, required = minimal_root_order(eps)
        gen = rnd.stream(config.seed, _STREAM_DENSITY, index)
        lambdas = np.exp(2j * np.pi * gen.uniform(0.0, 1.0, size=required))
        try:
            correction = eps_dense_correction(lambdas, eps)
        except InsufficientPoints:  # required == len by construction
            raise RuntimeError("density sample sizing is inconsistent")  # pragma: no cover
        dense = is_eps_dense(correction.mus, eps)
        product_dev = correction.product_deviation()
        rows.append(
            {
                "eps": eps,
                "m": correction.m,
                "N": correction.required,
                "dense": bool(dense),
                "productDeviation": product_dev,
                "passed": bool(dense and product_dev <= tolerances().exact),
            }
        )
    return rows
