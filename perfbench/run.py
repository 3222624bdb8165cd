"""posfactor benchmark: one closed-loop client against the library.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from anywhere; the package is imported from ``src/`` beside this
directory.  The run sets up (import plus inputs, repeated to time it), sends
one untimed warm-up request, then sends whole passes of requests until the
next pass would end past --seconds of busy time.  Every output is checked
after the clock stops.  Human-readable lines come first; the last line of
standard output is the JSON result.

--trace 0 reports the end-to-end metrics.  Their times are scaled by the
host's speed during the run, which a probe kernel measures between requests
(see probe.py); the report prints the raw figures and the scale beside them.

--trace 1 spends half the time untraced and then repeats the same passes
with span recorders wrapped around the public functions, runs the CLI probe
once, and reports the per-layer metrics; spans go to
.bench_out/trace-<workload>-seed<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# Every matrix is at most 16 x 16, so one BLAS thread is the fastest setting
# and keeps runs independent of the core count.  Set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
IMPORT_CODE = "import numpy, scipy, posfactor, posfactor.experiments"

# (name, unit, better) of the end-to-end metrics reported with --trace 0.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("requests_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("rel_error_max", "ratio", "lower"),
)


@dataclass
class Measurement:
    latencies: list = field(default_factory=list)  # seconds, one per request
    kinds: list = field(default_factory=list)  # Request.kind, one per request
    verdicts: list = field(default_factory=list)
    busy: float = 0.0
    passes: int = 0
    slowdown: float = 1.0  # host slowdown the probe measured; 1.0 when not probed


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile q (0-100) of values."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def measure(workload, seconds: float, min_passes: int, max_passes: int | None = None,
            tracer=None, probe=None) -> Measurement:
    """Closed loop: whole passes until the next one would overrun ``seconds``.

    With a ``probe.Probe``, the probe runs after every request and sets
    ``slowdown``; its time does not count in ``busy``.
    """
    from workloads import Verdict

    m = Measurement()
    while True:
        pass_busy = 0.0
        reqs = workload.requests(m.passes)
        for req in reqs:
            if tracer is not None:
                tracer.request += 1
            exc = value = None
            t0 = time.perf_counter()
            try:
                value = req.call()
            except Exception as e:  # the check decides whether it was expected
                exc = e
            dt = time.perf_counter() - t0
            if probe is not None:
                probe.after(dt)
            try:
                verdict = req.check(value, exc)
            except Exception:
                verdict = Verdict(False, f"{req.label}: check raised\n{traceback.format_exc()}")
            del value
            m.latencies.append(dt)
            m.kinds.append(req.kind)
            m.verdicts.append(verdict)
            pass_busy += dt
        m.busy += pass_busy
        m.passes += 1
        if max_passes is not None and m.passes >= max_passes:
            break
        if m.passes >= min_passes and m.busy + pass_busy > seconds:
            break
    if probe is not None:
        m.slowdown = probe.slowdown()
    return m


def environment() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name', '?')}-{deps.get('version', '?')}"
    except Exception:  # older numpy has no dict mode; the record is informational
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "nproc": nproc,
            "blas_threads": min(BLAS_THREADS, nproc)}


def set_up(name: str, seed: int, tiny: bool = False):
    """Build the workload's inputs; returns (workload, setup_s, parts).

    ``setup_s`` is the median of SETUP_REPEATS set-ups, each a fresh
    interpreter importing the package plus one input build, each scaled by
    the host slowdown a probe measures right after it; ``parts`` splits that
    median sample into (import, build, slowdown), unscaled.
    """
    from probe import Probe
    from workloads import WORKLOADS, python_env

    workload = WORKLOADS[name](seed, tiny=tiny)
    env = python_env(ROOT)
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=ROOT, env=env, check=True,
                       timeout=120)
        t1 = time.perf_counter()
        workload.build()
        t2 = time.perf_counter()
        slowdown = Probe().after(t2 - t0)
        samples.append(((t2 - t0) / slowdown, t1 - t0, t2 - t1, slowdown))
    setup_s, *parts = sorted(samples)[len(samples) // 2]
    return workload, setup_s, parts


def warm_up(workload) -> None:
    """One untimed, unchecked request."""
    try:
        workload.requests(0)[0].call()
    except Exception:
        pass  # the timed requests check the same call


def failures(m: Measurement) -> list[str]:
    return [v.detail for v in m.verdicts if not v.ok]


def mean_pass(m: Measurement) -> list[float]:
    """One pass's latencies, each request's being the mean of its kind over the run.

    Every pass sends the same kinds of request.  A kind's mean, unlike a
    single sample, moves smoothly with the share of the run the host spent
    slowed down, which is what the probe's mean corrects for.
    """
    by_kind = {}
    for kind, dt in zip(m.kinds, m.latencies):
        by_kind.setdefault(kind, []).append(dt)
    return [statistics.fmean(by_kind[kind]) for kind in m.kinds[:len(m.kinds) // m.passes]]


def end_to_end(workload, m: Measurement, setup_s: float) -> dict:
    errors = [v.rel_error for v in m.verdicts if v.rel_error is not None]
    scale = m.slowdown
    means = mean_pass(m)
    values = {
        "setup_s": setup_s,
        "requests_per_s": len(m.latencies) / m.busy * scale,
        "latency_p50_ms": percentile(means, 50.0) * 1e3 / scale,
        "latency_tail_ms": percentile(means, workload.tail_percentile) * 1e3 / scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rel_error_max": max(errors) if errors else 0.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}


def report_end_to_end(workload, m: Measurement, metrics: dict, parts) -> None:
    n = len(m.latencies)
    q = workload.tail_percentile
    means = mean_pass(m)
    tail = percentile(means, q)
    beyond = sum(x > tail for x in m.latencies)
    raw = f"raw, host slowdown {m.slowdown:.4f}"
    notes = {
        "setup_s": f"median of {SETUP_REPEATS}: fresh-interpreter import {parts[0]:.4f} s "
                   f"+ input build {parts[1]:.4f} s raw, host slowdown {parts[2]:.4f}",
        "requests_per_s": f"{n / m.busy:.6g} {raw}",
        "latency_p50_ms": f"{len(means)} request kinds x {m.passes} passes; "
                          f"{percentile(means, 50.0) * 1e3:.6g} {raw}; "
                          f"p50 of all samples {percentile(m.latencies, 50.0) * 1e3:.6g} raw",
        "latency_tail_ms": f"p{q:g}; {beyond} of {n} samples beyond it; "
                           f"{tail * 1e3:.6g} {raw}",
    }
    for name, entry in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {entry['value']:.6g} {entry['unit']}{note}")
    failed = len(failures(m))
    print(f"fail_ratio {failed / n:.6g} failed/attempted  ({failed} of {n})")
    counts = [v.factors for v in m.verdicts if v.factors is not None]
    if counts:
        print(f"factors_mean {statistics.fmean(counts):.6g} factors/req")
    wire = [v.wire_bytes for v in m.verdicts if v.wire_bytes is not None]
    if wire:
        print(f"wire_mb {statistics.fmean(wire) / 1e6:.6g} MB/req")


def traced_run(workload, seconds: float):
    """Untraced passes, then the same passes traced, then the CLI probe.

    Returns the measurements (untraced, traced, CLI probe), the per-layer
    metrics and the tracer.
    """
    from spans import Tracer, layer_metrics
    from workloads import CliProbe

    untraced = measure(workload, seconds / 2.0, min_passes=1)
    tracer = Tracer()
    workload.set_tracer(tracer)
    tracer.install()
    try:
        traced = measure(workload, 0.0, untraced.passes, untraced.passes, tracer)
    finally:
        tracer.uninstall()
        workload.set_tracer(None)
    cli_metrics, walls, verdicts = CliProbe(ROOT, tiny=workload.tiny).split()
    measured = {
        "trace.overhead_ratio": traced.busy / untraced.busy,
        "trace.self_coverage": tracer.self_time() / traced.busy,
        **cli_metrics,
    }
    metrics = layer_metrics(tracer.totals, len(traced.latencies), measured)
    probe = Measurement(latencies=walls, verdicts=verdicts)
    return (untraced, traced, probe), metrics, tracer


def run(args) -> int:
    workload, setup_s, parts = set_up(args.workload, args.seed)
    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    warm_up(workload)
    if args.trace:
        from spans import LAYER_METRICS

        runs, values, tracer = traced_run(workload, args.seconds)
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_file, {"env": env, "metrics": values})
        print(f"run workload={args.workload} seed={args.seed} passes={runs[1].passes} "
              f"untraced_busy_s={runs[0].busy:.4f} traced_busy_s={runs[1].busy:.4f} "
              f"spans={len(tracer.spans)} trace_file={trace_file.relative_to(ROOT)}")
        for name, entry in metrics.items():
            print(f"{name} {entry['value']:.6g} {entry['unit']}")
    else:
        from probe import Probe

        m = measure(workload, args.seconds, workload.min_passes, probe=Probe())
        runs = (m,)
        metrics = end_to_end(workload, m, setup_s)
        print(f"run workload={args.workload} seed={args.seed} passes={m.passes} "
              f"requests={len(m.latencies)} busy_s={m.busy:.4f}")
        report_end_to_end(workload, m, metrics, parts)
    attempted = sum(len(r.latencies) for r in runs)
    bad = [d for r in runs for d in failures(r)]
    for detail in bad[:5]:
        sys.stderr.write(f"check failed: {detail}\n")
    print(json.dumps({"correct": not bad, "attempted": attempted, "failed": len(bad),
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload at tiny size and check that the checks "
                             "catch corrupted results")
    args = parser.parse_args(argv)
    if not (SRC / "posfactor" / "__init__.py").is_file():
        sys.stderr.write(f"error: no posfactor package under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
