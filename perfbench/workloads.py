"""The benchmark's workloads, the CLI probe and the checks on their outputs.

Each workload is one closed-loop client.  It hands out whole passes of
requests; a request is a timed call plus a check that runs after the clock
stops.  All inputs come from ``targets`` and the run's seed.

factor-grid  ``matrix_to_positive_factors`` over dims x schedules, plus one
             positive-definite and one det < 0 target per pass.
certify      write (wire + JSON), read and verify factorizations built in
             set-up.
landscape    ``run_obstruction_landscape`` for n = 2 and 3.

``CliProbe`` runs the ``python -m posfactor`` subcommands once per traced
run, to split a CLI call into interpreter, import and command time.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import targets
from spans import distinct_factors, factors_digest

# certify and the CLI probe draw their matrices from this seed, not from
# --seed: their costs do not depend on the matrix values, and certify's
# rel_error_max is a maximum over ten outputs, which swings 15-30% between
# seeds.  The run's seed sets certify's request order instead.
FIXED_SEED = 0
HERMITIAN_TOL = 1e-10  # relative Hermitian defect allowed in a factor
PRODUCT_TOL = 1e-9  # |own left-to-right error - stored error| <= PRODUCT_TOL * ||x||


@dataclass
class Verdict:
    """Outcome of one request's check."""

    ok: bool
    detail: str = ""
    rel_error: float | None = None
    factors: int | None = None
    wire_bytes: int | None = None


def fail(detail: str) -> Verdict:
    return Verdict(False, detail)


@dataclass
class Request:
    label: str
    call: Callable[[], object]
    check: Callable[[object, BaseException | None], Verdict]

    @property
    def kind(self) -> str:
        """The request's cell: its label without the ``#`` target index."""
        return self.label.split("#")[0]


def python_env(root: Path) -> dict:
    """Environment for a child interpreter that imports posfactor from root/src."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def norm2(x: np.ndarray) -> float:
    return float(np.linalg.norm(x, 2))


def check_positive_product(x: np.ndarray, pf) -> str:
    """Problems with a factorization of x, or '' when there are none.

    The distinct factors must be Hermitian positive definite, and the
    benchmark's own left-to-right product must reproduce the stored error.
    """
    for f in distinct_factors(pf.factors):
        scale = norm2(f)
        if norm2(f - f.conj().T) > HERMITIAN_TOL * scale:
            return "a factor is not Hermitian"
        if np.linalg.eigvalsh((f + f.conj().T) / 2.0)[0] <= 0.0:
            return "a factor is not positive definite"
    acc = np.eye(x.shape[0], dtype=complex)
    tmp = np.empty_like(acc)
    for f in pf.factors:
        np.matmul(acc, f, out=tmp)
        acc, tmp = tmp, acc
    own = norm2(x - acc)
    if not abs(own - pf.error) <= PRODUCT_TOL * norm2(x):
        return f"left-to-right error {own!r} differs from stored error {pf.error!r}"
    return ""


class Workload:
    """Base: subclasses set the class attributes and implement build/requests."""

    name = ""
    tail_percentile = 50.0  # fixed per workload, see README: >= 10 samples beyond it
    min_passes = 1

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = int(seed)
        self.tiny = tiny

    def build(self) -> None:
        """Make the inputs (repeated during set-up to time it)."""
        raise NotImplementedError

    def requests(self, p: int) -> list[Request]:
        """Requests of pass p, in order."""
        raise NotImplementedError

    def set_tracer(self, tracer) -> None:
        """Hook for a workload that records spans of its own (None ends tracing)."""


class FactorGrid(Workload):
    """Seeded targets over the ROADMAP grid, one request per cell per pass.

    The cheapest schedule's cells rotate through ROTATION targets, because
    they have the largest errors and so set rel_error_max; the costly cells
    rotate through two, so that each of their results is checked in full
    (left-to-right product) once and later repeats are compared with it.
    A run makes at least ROTATION passes, one full cycle of the pool.
    """

    name = "factor-grid"
    tail_percentile = 90.0
    ROTATION = 8

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.dims = (2, 3) if tiny else (2, 4, 8, 16)
        self.steps = ((2, 2), (3, 3)) if tiny else ((8, 8), (16, 16), (32, 32))
        self.rotation = 2 if tiny else self.ROTATION
        self.min_passes = self.rotation

    def build(self):
        import posfactor

        self.api = posfactor
        self.cells = []
        for si, (t, c) in enumerate(self.steps):
            schedule = posfactor.FactorizationSchedule(t, c)
            pool = self.rotation if si == 0 else 2
            for d in self.dims:
                xs = [targets.det_positive(targets.stream(self.seed, 1, si, d, j), d)
                      for j in range(pool)]
                self.cells.append((f"d{d}-{t}x{c}", schedule, xs))
        nd = len(self.dims)
        self.definite = [targets.positive_definite(targets.stream(self.seed, 2, j),
                                                   self.dims[j % nd]) for j in range(self.rotation)]
        self.negative = [targets.det_negative(targets.stream(self.seed, 3, j),
                                              self.dims[(j + 1) % nd]) for j in range(self.rotation)]
        self.first = {}  # pool entry -> (error, digest) of its first checked result

    def requests(self, p):
        first_schedule = self.cells[0][1]
        j = p % self.rotation
        reqs = [self._factor(f"{label}#{p % len(xs)}", xs[p % len(xs)], schedule, "pipeline")
                for label, schedule, xs in self.cells]
        reqs.append(self._factor(f"definite#{j}", self.definite[j], first_schedule, "definite"))
        reqs.append(self._factor(f"negative#{j}", self.negative[j], first_schedule, "obstruction"))
        return reqs

    def _factor(self, key, x, schedule, expect):
        def call():
            return self.api.matrix_to_positive_factors(x, schedule)

        def check(value, exc):
            return self.check_factor(key, x, schedule, expect, value, exc)

        return Request(key, call, check)

    def check_factor(self, key, x, schedule, expect, value, exc) -> Verdict:
        if expect == "obstruction":
            if isinstance(exc, self.api.DeterminantObstruction):
                return Verdict(True, factors=0)
            return fail(f"{key}: expected DeterminantObstruction, got {exc or value!r}")
        if exc is not None:
            return fail(f"{key}: raised {exc!r}")
        expected = 1 if expect == "definite" else schedule.predicted_factors(1)
        if len(value.factors) != expected:
            return fail(f"{key}: {len(value.factors)} factors, predicted {expected}")
        seen = (value.error, factors_digest(value.factors))
        first = self.first.get(key)
        if first is None:
            problem = check_positive_product(x, value)
            if problem:
                return fail(f"{key}: {problem}")
            self.first[key] = seen
        elif seen != first:
            return fail(f"{key}: result differs from the first result for the same input")
        return Verdict(True, rel_error=value.error / norm2(x), factors=len(value.factors))


class Certify(Workload):
    """Write, read and verify factorizations that set-up built.

    Each cell has one general target and one SU(n) target; the SU(n) one
    turns on the trace-identity check.  The cells are dims 2, 4 and 8 at
    (8,8).  The (16,16) cells of dims 2 and 4 stay out: their four requests
    took 12.5 s of a 15-second pass, so a run held two samples of each kind
    and its median latency spread 0.12 over ten seeds.  Dim 8 at (16,16)
    and the (32,32) cells take ~10 s per request and write 66-533 MB.  The
    matrices come from FIXED_SEED; the run's seed sets the order.  A run
    makes at least five passes, so each request kind has five samples.
    """

    name = "certify"
    tail_percentile = 75.0
    min_passes = 5

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.cells = ([(2, (4, 4)), (3, (4, 4))] if tiny else
                      [(2, (8, 8)), (4, (8, 8)), (8, (8, 8))])
        self._decode = json.loads

    def set_tracer(self, tracer):
        self._decode = json.loads if tracer is None else tracer.wrap(json.loads, "emit.json_decode_s")

    def build(self):
        import posfactor
        import posfactor.experiments.emit

        self.api, self.emit = posfactor, posfactor.experiments.emit
        self.items = []
        for i, (d, (t, c)) in enumerate(self.cells):
            schedule = posfactor.FactorizationSchedule(t, c)
            for kind, make in (("general", targets.det_positive), ("su", targets.special_unitary)):
                x = make(targets.stream(FIXED_SEED, 4, i, kind == "su"), d)
                pf = posfactor.matrix_to_positive_factors(x, schedule)
                self.items.append((f"d{d}-{t}x{c}-{kind}", kind, x, pf))
        order = targets.stream(self.seed, 4).permutation(len(self.items))
        self.items = [self.items[i] for i in order]

    def requests(self, p):
        return [self._certify(*item) for item in self.items]

    def _certify(self, key, kind, x, pf):
        def call():
            text = self.emit.to_json(self.api.factorization_to_wire(pf))
            back = self.api.factorization_from_wire(self._decode(text))
            return text, back, self.api.verify_factorization(back)

        def check(value, exc):
            return self.check_certify(key, kind, x, pf, value, exc)

        return Request(key, call, check)

    def check_certify(self, key, kind, x, pf, value, exc) -> Verdict:
        if exc is not None:
            return fail(f"{key}: raised {exc!r}")
        text, back, checks = value
        failed = [name for name, ok, _ in checks if not ok]
        if failed:
            return fail(f"{key}: checks failed: {', '.join(failed)}")
        if kind == "su" and "trace-identity" not in [name for name, _, _ in checks]:
            return fail(f"{key}: SU(n) target did not get the trace-identity check")
        if (back.error != pf.error or back.method != pf.method
                or back.schedule != pf.schedule or not np.array_equal(back.target, pf.target)):
            return fail(f"{key}: round trip changed the error, method, schedule or target")
        if len(back.factors) != len(pf.factors) or not all(
                np.array_equal(a, b) for a, b in zip(back.factors, pf.factors)):
            return fail(f"{key}: round trip changed the factors")
        return Verdict(True, rel_error=pf.error / norm2(x), factors=len(pf.factors),
                       wire_bytes=len(text.encode("utf-8")))


class Landscape(Workload):
    """The scalar obstruction landscape for n = 2 and 3 with the default ladder.

    The landscape has no random inputs; the seed sets the order of n.
    """

    name = "landscape"
    tail_percentile = 50.0

    def build(self):
        import posfactor
        import posfactor.experiments.runners as runners

        self.runners = runners
        ns = (2,) if self.tiny else (2, 3)
        order = targets.stream(self.seed, 5).permutation(len(ns))
        extra = {"schedules": (posfactor.FactorizationSchedule(4, 4),)} if self.tiny else {}
        self.configs = [runners.ExperimentConfig(seed=self.seed, n=ns[i], **extra) for i in order]

    def requests(self, p):
        def call():
            return [self.runners.run_obstruction_landscape(c) for c in self.configs]

        return [Request("landscape", call, self.check_landscape)]

    def check_landscape(self, value, exc) -> Verdict:
        if exc is not None:
            return fail(f"landscape: raised {exc!r}")
        worst = 0.0
        for config, rows in zip(self.configs, value):
            n, grid = config.n, 4 * config.n
            if len(rows) != grid:
                return fail(f"landscape n={n}: {len(rows)} rows, expected {grid}")
            for k, row in enumerate(rows):
                root = (k * n) % grid == 0
                if row["accepted"] != root or row["inGroup"] != root:
                    return fail(f"landscape n={n}: phase {k}/{grid} accepted={row['accepted']}, "
                                f"root of unity={root}")
                if root:
                    worst = max(worst, float(row["bestDistance"]))
        return Verdict(True, rel_error=worst)


SUMMARY = re.compile(r"factored: method=(\S+) error=(\S+) factors=(\d+)")
ORDER = re.compile(r"order dim=(\d+) value=(\S+)")


class CliProbe:
    """The five CLI commands, run in each traced run to split a CLI call.

    The commands: factor a dim-4 target to a file (schedule 8,8), verify that
    file, factor a det < 0 target (exit 2), the n = 2 obstruction landscape
    and a commutator sweep over dims 2 and 4.  ``python -c pass`` gives the
    interpreter time, ``python -c "import posfactor"`` minus that the import
    time, and the mean over commands of the command wall minus both the
    command time; each is a median of three, measured interleaved.

    The CLI is not a timed workload: over ten 25-second runs on a shared
    2-vCPU machine, its throughput spread was 26% and its tail-latency spread
    31% of the median, beyond the largest bound (25%) the benchmark may set.
    Its import cost still shows end to end, in every workload's setup_s.
    """

    TIMEOUT_S = 120

    def __init__(self, root: Path, tiny: bool = False):
        self.root = root
        self.dim = 2 if tiny else 4
        self.schedule = (2, 2) if tiny else (8, 8)
        self.sweep_args = ["--n", "8,16", "--dim", "2"] if tiny else ["--dim", "2,4"]
        self.repeats = 1 if tiny else 3
        self.workdir = root / ".bench_out" / f"cli-{os.getpid()}"
        self.env = python_env(root)

    def build(self):
        import posfactor

        t, c = self.schedule
        self.predicted = posfactor.FactorizationSchedule(t, c).predicted_factors(1)
        self.workdir.mkdir(parents=True, exist_ok=True)
        for name, make in (("target", targets.det_positive), ("negative", targets.det_negative)):
            x = make(targets.stream(FIXED_SEED, 6, name == "negative"), self.dim)
            (self.workdir / f"{name}.json").write_text(json.dumps(targets.matrix_json(x)))

    def requests(self) -> list[Request]:
        wd = self.workdir
        out = str(wd / "factorization.json")
        t, c = self.schedule
        return [
            self._cli("factor", ["factor", "--target", str(wd / "target.json"),
                                 "--schedule", f"{t},{c}", "--out", out], self.check_factor),
            self._cli("verify", ["verify", out], self.check_verify),
            self._cli("factor-negative", ["factor", "--target", str(wd / "negative.json")],
                      self.check_negative),
            self._cli("obstruction", ["obstruction", "--n", "2"], self.check_obstruction),
            self._cli("sweep-commutator", ["sweep-commutator", *self.sweep_args],
                      self.check_sweep),
        ]

    def split(self) -> tuple[dict, list[float], list[Verdict]]:
        """Run the probes and each command REPEATS times, interleaved.

        Returns the cli.* metrics (medians), every command wall and verdict.
        """
        self.build()
        probes = {"pass": [], "import posfactor": []}
        per_command, walls, verdicts = {}, [], []
        try:
            for _ in range(self.repeats):
                for code, times in probes.items():
                    t0 = time.perf_counter()
                    subprocess.run([sys.executable, "-c", code], cwd=self.root, env=self.env,
                                   check=True, timeout=self.TIMEOUT_S)
                    times.append(time.perf_counter() - t0)
                for req in self.requests():
                    exc = proc = None
                    t0 = time.perf_counter()
                    try:
                        proc = req.call()
                    except (OSError, subprocess.SubprocessError) as e:
                        exc = e
                    walls.append(time.perf_counter() - t0)
                    per_command.setdefault(req.label, []).append(walls[-1])
                    verdicts.append(req.check(proc, exc))
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
        interpreter = statistics.median(probes["pass"])
        imported = statistics.median(probes["import posfactor"]) - interpreter
        command = statistics.fmean(statistics.median(w) for w in per_command.values())
        metrics = {"cli.interpreter_s": interpreter, "cli.import_s": imported,
                   "cli.command_s": command - interpreter - imported}
        return metrics, walls, verdicts

    def _cli(self, label, argv, check_proc):
        def call():
            return subprocess.run([sys.executable, "-m", "posfactor", *argv], cwd=self.root,
                                  env=self.env, capture_output=True, text=True,
                                  timeout=self.TIMEOUT_S)

        def check(proc, exc):
            if exc is not None:
                return fail(f"{label}: {exc!r}")
            verdict = check_proc(proc)
            if not verdict.ok:
                verdict.detail = f"{label}: {verdict.detail}"
            return verdict

        return Request(label, call, check)

    def check_factor(self, proc) -> Verdict:
        if proc.returncode != 0:
            return fail(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        m = SUMMARY.search(proc.stdout)
        if m is None:
            return fail("no summary line")
        error, count = float(m.group(2)), int(m.group(3))
        if count != self.predicted:
            return fail(f"{count} factors, predicted {self.predicted}")
        if not 0.0 <= error < np.inf:
            return fail(f"error {error!r}")
        return Verdict(True)

    def check_verify(self, proc) -> Verdict:
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or any(line.startswith("FAIL") for line in lines):
            return fail(f"exit {proc.returncode}; FAIL lines: "
                        f"{[line for line in lines if line.startswith('FAIL')]}")
        if sum(line.startswith("OK") for line in lines) < 5:
            return fail("fewer than 5 OK checks")
        return Verdict(True)

    def check_negative(self, proc) -> Verdict:
        if proc.returncode != 2 or "obstruction" not in proc.stderr:
            return fail(f"exit {proc.returncode}, expected 2 with an obstruction message")
        return Verdict(True)

    def check_obstruction(self, proc) -> Verdict:
        if proc.returncode != 0:
            return fail(f"exit {proc.returncode}")
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        n, grid = 2, 8
        if len(rows) != grid:
            return fail(f"{len(rows)} rows, expected {grid}")
        for k, row in enumerate(rows):
            root = "true" if (k * n) % grid == 0 else "false"
            if row["accepted"] != root or row["in_group"] != root:
                return fail(f"phase {k}/{grid}: accepted={row['accepted']}, root of unity={root}")
        return Verdict(True)

    def check_sweep(self, proc) -> Verdict:
        if proc.returncode != 0:
            return fail(f"exit {proc.returncode}")
        orders = {int(d): float(v) for d, v in ORDER.findall(proc.stdout)}
        dims = {int(d) for d in self.sweep_args[self.sweep_args.index("--dim") + 1].split(",")}
        if set(orders) != dims:
            return fail(f"orders for dims {sorted(orders)}, expected {sorted(dims)}")
        if not all(0.9 <= v <= 1.1 for v in orders.values()):
            return fail(f"convergence orders {orders} outside [0.9, 1.1]")
        return Verdict(True)


WORKLOADS = {w.name: w for w in (FactorGrid, Certify, Landscape)}
