"""Span recorder for the traced run.

The recorder wraps public posfactor functions from outside: every module
attribute that refers to a wrapped function (including ``from x import f``
aliases) is swapped for a wrapper while tracing and restored afterwards, so
no source file changes.  A function that is missing is skipped and its
metrics stay at zero, which keeps the trace working across refactors.

Self time is a span's duration minus the time its child spans cover.  Spans
stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import sys
import time
from collections import defaultdict

# (name, unit, better) of every per-layer metric, in report order.  Times
# and counts are per request of the traced run; the cli.* times are per CLI
# call.
LAYER_METRICS = (
    ("matcore.chain_product.calls", "count/req", "lower"),
    ("matcore.chain_product.factors", "count/req", "lower"),
    ("matcore.chain_product.self_s", "s/req", "lower"),
    ("matcore.polar_decompose.self_s", "s/req", "lower"),
    ("matcore.traceless_unitary_log.self_s", "s/req", "lower"),
    ("matcore.matrix_exp.calls", "count/req", "lower"),
    ("matcore.matrix_exp.self_s", "s/req", "lower"),
    ("matcore.wire.self_s", "s/req", "lower"),
    ("commutators.shoda_commutator.self_s", "s/req", "lower"),
    ("commutators.hermitian_pair_split.self_s", "s/req", "lower"),
    ("commutators.pairs", "count/req", "lower"),
    ("factorization.matrix_to_positive_factors.self_s", "s/req", "lower"),
    ("factorization.unitary_to_positive_factors.self_s", "s/req", "lower"),
    ("factorization.factors", "count/req", "lower"),
    ("factorization.distinct_factor_ratio", "ratio", "higher"),
    ("types.invariant_report.self_s", "s/req", "lower"),
    ("types.invariant_report.factors_checked", "count/req", "lower"),
    ("types.factorization_to_wire.self_s", "s/req", "lower"),
    ("types.factorization_from_wire.self_s", "s/req", "lower"),
    ("obstruction.verify_factorization.self_s", "s/req", "lower"),
    ("obstruction.unitary_product_trace_identity.self_s", "s/req", "lower"),
    ("obstruction.scalar_obstruction_distance.oracle_s", "s/req", "lower"),
    ("obstruction.scalar_obstruction_distance.ladder_s", "s/req", "lower"),
    ("obstruction.ladder.budget_exceeded", "count/req", "lower"),
    ("emit.json_encode_s", "s/req", "lower"),
    ("emit.json_decode_s", "s/req", "lower"),
    ("emit.bytes", "B/req", "lower"),
    ("runners.run_obstruction_landscape.self_s", "s/req", "lower"),
    ("cli.interpreter_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.command_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.self_coverage", "ratio", "higher"),
)


def distinct_factors(factors) -> list:
    """Factors deduplicated by content, in order of first appearance."""
    by_id = {}
    for f in factors:
        by_id.setdefault(id(f), f)
    seen, out = set(), []
    for f in by_id.values():
        key = (f.shape, f.tobytes())
        if key not in seen:
            seen.add(key)
            out.append(f)
    return out


def factors_digest(factors) -> str:
    """Content digest of the distinct factors, for comparing repeated results."""
    h = hashlib.sha256()
    for f in distinct_factors(factors):
        h.update(f.tobytes())
    return h.hexdigest()


# -- hooks: counts taken from a wrapped call's arguments and result ---------


def _chain_factors(counts, args, kwargs, result):
    factors = args[0] if args else kwargs.get("factors")
    if hasattr(factors, "__len__"):
        counts["matcore.chain_product.factors"] += len(factors)


def _pairs(counts, args, kwargs, result):
    counts["commutators.pairs"] += len(result.pairs)


def _factors(counts, args, kwargs, result):
    counts["factorization.factors"] += len(result.factors)
    counts["factorization.distinct"] += len(distinct_factors(result.factors))


def _budget_exceeded(counts, args, kwargs, result):
    if result.in_group:
        counts["obstruction.ladder.budget_exceeded"] += sum(err is None for _, err in result.ladder)


def _json_bytes(counts, args, kwargs, result):
    counts["emit.bytes"] += len(result.encode("utf-8"))


def _oracle_or_ladder(result) -> str:
    """scalar_obstruction_distance splits by its result's in_group flag."""
    in_group = result is not None and result.in_group
    return "obstruction.scalar_obstruction_distance." + ("ladder_s" if in_group else "oracle_s")


# (module, function, self-time metric or a function of the result giving it,
#  call-count metric or None, hook or None)
SPANS = (
    ("posfactor.matcore", "chain_product", "matcore.chain_product.self_s",
     "matcore.chain_product.calls", _chain_factors),
    ("posfactor.matcore", "polar_decompose", "matcore.polar_decompose.self_s", None, None),
    ("posfactor.matcore", "traceless_unitary_log", "matcore.traceless_unitary_log.self_s", None, None),
    ("posfactor.matcore", "matrix_exp", "matcore.matrix_exp.self_s", "matcore.matrix_exp.calls", None),
    ("posfactor.matcore", "matrix_to_wire", "matcore.wire.self_s", None, None),
    ("posfactor.matcore", "matrix_from_wire", "matcore.wire.self_s", None, None),
    ("posfactor.factorlab.commutators", "shoda_commutator",
     "commutators.shoda_commutator.self_s", None, None),
    ("posfactor.factorlab.commutators", "hermitian_pair_split",
     "commutators.hermitian_pair_split.self_s", None, _pairs),
    ("posfactor.factorlab.factorization", "matrix_to_positive_factors",
     "factorization.matrix_to_positive_factors.self_s", None, _factors),
    ("posfactor.factorlab.factorization", "unitary_to_positive_factors",
     "factorization.unitary_to_positive_factors.self_s", None, None),
    ("posfactor.factorlab.types", "invariant_report", "types.invariant_report.self_s", None, None),
    ("posfactor.factorlab.types", "factorization_to_wire",
     "types.factorization_to_wire.self_s", None, None),
    ("posfactor.factorlab.types", "factorization_from_wire",
     "types.factorization_from_wire.self_s", None, None),
    ("posfactor.obstruction", "verify_factorization",
     "obstruction.verify_factorization.self_s", None, None),
    ("posfactor.obstruction", "unitary_product_trace_identity",
     "obstruction.unitary_product_trace_identity.self_s", None, None),
    ("posfactor.obstruction", "scalar_obstruction_distance", _oracle_or_ladder, None,
     _budget_exceeded),
    ("posfactor.experiments.emit", "to_json", "emit.json_encode_s", None, _json_bytes),
    ("posfactor.experiments.runners", "run_obstruction_landscape",
     "runners.run_obstruction_landscape.self_s", None, None),
)

# invariant_report checks one factor per hermitian_defect call, and nothing
# else in factorlab.types calls it: counting calls there counts factor checks.
COUNTERS = (
    ("posfactor.factorlab.types", "hermitian_defect", "types.invariant_report.factors_checked"),
)


class Tracer:
    """In-memory span recorder with per-metric self-time and count totals."""

    def __init__(self):
        self.totals = defaultdict(float)  # self-time and count metrics
        self.spans = []  # (id, parent id, request, metric, start, end)
        self.request = 0
        self._ids = itertools.count()
        self._stack = []  # [id, start, time covered by children]
        self._patches = []

    def wrap(self, fn, metric, calls=None, hook=None):
        """Return ``fn`` wrapped in a span that books its self time to ``metric``."""
        totals, stack, spans, ids = self.totals, self._stack, self.spans, self._ids

        def traced(*args, **kwargs):
            frame = [next(ids), time.perf_counter(), 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                name = metric(result) if callable(metric) else metric
                totals[name] += duration - frame[2]
                if calls is not None:
                    totals[calls] += 1
                spans.append((frame[0], parent, self.request, name, frame[1], end))
                if hook is not None and result is not None:
                    hook(totals, args, kwargs, result)
                if stack:  # hook time is tracing cost, not the parent's own work
                    stack[-1][2] += time.perf_counter() - frame[1]

        traced.__wrapped__ = fn
        return traced

    def install(self):
        # Look every function up before swapping any, so that each module is
        # imported while it can still bind the originals.
        spans = [(_lookup(module, attr), rest) for module, attr, *rest in SPANS]
        counters = [(_lookup(module, attr), module, attr, metric)
                    for module, attr, metric in COUNTERS]
        for original, (metric, calls, hook) in spans:
            if original is not None:
                self._swap_everywhere(original, self.wrap(original, metric, calls, hook))
        for original, module, attr, metric in counters:
            if original is not None:
                self._swap(sys.modules[module], attr, _counting(original, self.totals, metric))

    def uninstall(self):
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def _swap_everywhere(self, original, wrapper):
        for name, mod in list(sys.modules.items()):
            if name != "posfactor" and not name.startswith("posfactor."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._swap(mod, attr, wrapper)

    def _swap(self, mod, attr, wrapper):
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    def self_time(self) -> float:
        return sum(v for k, v in self.totals.items() if k.endswith("_s"))

    def dump(self, path, extra=None):
        payload = {"totals": dict(self.totals), "spans": self.spans, **(extra or {})}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _lookup(module: str, attr: str):
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(mod, attr, None)


def _counting(fn, totals, metric):
    def counted(*args, **kwargs):
        totals[metric] += 1
        return fn(*args, **kwargs)

    counted.__wrapped__ = fn
    return counted


def layer_metrics(totals, requests: int, measured: dict) -> dict:
    """Every per-layer metric per request; layers a workload never reaches read 0.

    ``measured`` holds the metrics taken outside the spans: tracing overhead,
    self-time coverage and the CLI split.
    """
    per = 1.0 / max(requests, 1)
    out = {name: float(totals.get(name, 0.0)) * per for name, _, _ in LAYER_METRICS}
    factors = totals.get("factorization.factors", 0.0)
    out["factorization.distinct_factor_ratio"] = (
        totals.get("factorization.distinct", 0.0) / factors if factors else 0.0
    )
    out.update(measured)
    return out
