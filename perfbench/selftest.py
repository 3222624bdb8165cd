"""Benchmark self-test: each workload at tiny size, and corrupted results.

Run with ``python3 perfbench/run.py --self-test``.  It exits 0 when every
workload passes its own checks untraced and traced, every per-layer and
end-to-end metric is reported, BENCHMARK.json matches the code, and each
corrupted result below is counted as a failure rather than passed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import run
import spans
from probe import Probe
from spans import LAYER_METRICS
from workloads import WORKLOADS, CliProbe

SEED = 1


class SelfTest:
    def __init__(self):
        self.failed = []
        self.passed = 0

    def expect(self, label: str, ok: bool) -> None:
        if ok:
            self.passed += 1
        else:
            self.failed.append(label)
        print(f"{'ok  ' if ok else 'FAIL'} {label}")

    def rejects(self, label: str, request, value, exc=None) -> None:
        self.expect(f"{label} is counted as a failure", not request.check(value, exc).ok)


def negate_first(pf):
    return dataclasses.replace(pf, factors=(-pf.factors[0],) + tuple(pf.factors[1:]))


def corrupt_factor_grid(t: SelfTest, wl) -> None:
    req = wl.requests(0)[0]
    pf = req.call()
    t.rejects("factor-grid: repeated input, one factor negated", req, negate_first(pf))
    wl.first.clear()
    t.rejects("factor-grid: first result, one factor negated", req, negate_first(pf))
    t.rejects("factor-grid: first result, stored error doubled", req,
              dataclasses.replace(pf, error=2.0 * pf.error + 1e-3))
    t.rejects("factor-grid: one factor dropped", req,
              dataclasses.replace(pf, factors=pf.factors[1:]))
    negative = next(r for r in wl.requests(0) if r.label.startswith("negative"))
    t.rejects("factor-grid: det < 0 target factored without an obstruction", negative, pf)


def corrupt_certify(t: SelfTest, wl) -> None:
    req = wl.requests(0)[0]
    text, back, checks = req.call()
    t.rejects("certify: factor negated in the round trip", req,
              (text, negate_first(back), checks))
    t.rejects("certify: a failed verification check", req,
              (text, back, checks + [("factors-positive", False, "")]))
    su = next(r for r in wl.requests(0) if r.label.endswith("-su"))
    text, back, checks = su.call()
    t.rejects("certify: SU(n) target without the trace-identity check", su,
              (text, back, [c for c in checks if c[0] != "trace-identity"]))


def corrupt_landscape(t: SelfTest, wl) -> None:
    req = wl.requests(0)[0]
    value = req.call()
    value[0][1] = dict(value[0][1], accepted=not value[0][1]["accepted"])
    t.rejects("landscape: a non-root accepted", req, value)


def corrupt_cli(t: SelfTest) -> None:
    probe = CliProbe(run.ROOT, tiny=True)
    probe.build()
    shutil.rmtree(probe.workdir)
    reqs = {r.label: r for r in probe.requests()}

    def proc(code, stdout="", stderr=""):
        return subprocess.CompletedProcess([], code, stdout, stderr)

    ok_lines = "".join(f"OK   check{i}: fine\n" for i in range(5))
    t.rejects("cli: verify prints FAIL", reqs["verify"],
              proc(0, ok_lines + "FAIL factors-positive: smallest factor eigenvalue -1\n"))
    t.rejects("cli: det < 0 target exits 0", reqs["factor-negative"], proc(0))
    t.rejects("cli: factor reports the wrong count", reqs["factor"],
              proc(0, "factored: method=polar_pipeline error=0.1 factors=7 landmark=11 ratio=1\n"))
    t.rejects("cli: sweep without convergence orders", reqs["sweep-commutator"], proc(0, "dim\n"))


def tracer_survives_refactors(t: SelfTest) -> None:
    saved = spans.SPANS
    spans.SPANS = saved + (
        ("posfactor.matcore", "no_such_function", "gone.self_s", "gone.calls", None),
        ("posfactor.no_such_module", "f", "gone_too.self_s", None, None),
    )
    tracer = spans.Tracer()
    try:
        tracer.install()
        tracer.uninstall()
    finally:
        spans.SPANS = saved
    t.expect("tracing skips a function or module that no longer exists",
             "gone.calls" not in tracer.totals)
    t.expect("tracing leaves no wrapper in any posfactor module",
             not any(hasattr(value, "__wrapped__")
                     for name, mod in list(sys.modules.items())
                     if name == "posfactor" or name.startswith("posfactor.")
                     for value in vars(mod).values()))


CORRUPTIONS = {"factor-grid": corrupt_factor_grid, "certify": corrupt_certify,
               "landscape": corrupt_landscape}


def main() -> int:
    t = SelfTest()
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    t.expect("BENCHMARK.json names the workloads in workloads.py",
             [w["name"] for w in bench["workloads"]] == list(WORKLOADS))
    t.expect("BENCHMARK.json lists the end-to-end metrics run.py reports",
             [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
             == list(run.END_TO_END))
    t.expect("BENCHMARK.json lists the per-layer metrics spans.py reports",
             [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
             == list(LAYER_METRICS))

    for name in WORKLOADS:
        wl, setup_s, _ = run.set_up(name, SEED, tiny=True)
        m = run.measure(wl, 0.0, wl.min_passes, probe=Probe())
        t.expect(f"{name}: tiny run passes its checks {run.failures(m)}", not run.failures(m))
        values = [e["value"] for e in run.end_to_end(wl, m, setup_s).values()]
        t.expect(f"{name}: every end-to-end metric is positive and finite",
                 all(math.isfinite(v) and v > 0 for v in values))
        runs, layers, _ = run.traced_run(wl, 0.0)
        t.expect(f"{name}: traced run and CLI probe pass their checks "
                 f"{[d for r in runs for d in run.failures(r)]}",
                 not any(run.failures(r) for r in runs))
        t.expect(f"{name}: traced run reports every per-layer metric",
                 set(layers) == {n for n, _, _ in LAYER_METRICS}
                 and all(math.isfinite(v) for v in layers.values()))
        CORRUPTIONS[name](t, wl)

    corrupt_cli(t)
    tracer_survives_refactors(t)
    print(f"self-test: {t.passed} passed, {len(t.failed)} failed")
    return 1 if t.failed else 0
