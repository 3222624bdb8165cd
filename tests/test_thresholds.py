"""Tolerance-pack thresholds: conditioning floor, rescaling, pipeline properties."""

import ast
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from posfactor import rng as prng
from posfactor.config import Tolerances
from posfactor.errors import (
    DeterminantObstruction,
    IllConditioned,
    MathematicalObstruction,
    NotInvertible,
)
from posfactor.factorlab import FactorizationSchedule, matrix_to_positive_factors
from posfactor.matcore import polar_decompose
from posfactor.obstruction import verify_factorization

SRC = Path(__file__).resolve().parents[1] / "src" / "posfactor"

# Small float literals that are not accept/reject thresholds on matrix data,
# so they stay out of the tolerance pack.
KEPT_LITERALS = {
    ("factorlab/commutators.py", 1e-15),  # tie-break epsilon of the candidate search
    ("factorlab/spectrum.py", 1e-8),      # public default of group_tol
    ("obstruction.py", 1e-14),            # SLSQP ftol, an optimizer setting
}

SMALL = FactorizationSchedule(2, 2)


def test_no_inline_thresholds_outside_the_pack():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and type(node.value) is float:
                if 0.0 < node.value <= 1e-5:
                    found.add((rel, node.value))
    assert found <= KEPT_LITERALS, sorted(found - KEPT_LITERALS)


def test_singular_is_an_obstruction_ill_conditioned_is_not():
    with pytest.raises(NotInvertible):
        polar_decompose(np.ones((2, 2)))  # det is exactly 0
    with pytest.raises(IllConditioned, match="cond"):
        polar_decompose([[1.0, 1e6], [0.0, 1.0]])  # det is exactly 1
    assert not issubclass(IllConditioned, MathematicalObstruction)


def test_env_override_rescales_the_conditioning_floor(monkeypatch):
    x = np.array([[1.0, 3e4], [0.0, 1.0]])  # cond ~ 9e8
    assert len(matrix_to_positive_factors(x, SMALL).factors) == 25
    monkeypatch.setenv("POSFACTOR_TOL", "1e-5")  # positivity floor 1e-7
    with pytest.raises(IllConditioned, match="cond"):
        matrix_to_positive_factors(x, SMALL)


def test_determinant_phase_rounding_is_not_an_obstruction():
    # At cond 1e9 the computed det phase is off by up to ~n eps cond, above the
    # pack's 1e-8 determinant tolerance but far inside the conditioning floor;
    # the same holds for the product that verify_factorization judges.
    for i in range(100):
        n = 2 + i % 7
        x = prng.det_positive(prng.stream(5, 9, i), n, cond=1e9)
        pf = matrix_to_positive_factors(x, SMALL)
        assert len(pf.factors) == SMALL.predicted_factors(1)
        assert all(ok for _, ok, _ in verify_factorization(pf)), i
        x[:, 0] *= -1  # det < 0: a true obstruction at any conditioning
        with pytest.raises(DeterminantObstruction):
            matrix_to_positive_factors(x, SMALL)


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 4),
    scale=st.floats(1e-6, 1e6),
)
def test_scaling_the_target_scales_the_error(seed, dim, scale):
    x = prng.det_positive(prng.stream(seed, 1), dim, cond=100.0)
    base = matrix_to_positive_factors(x, SMALL)
    scaled = matrix_to_positive_factors(scale * x, SMALL)
    assert len(scaled.factors) == len(base.factors)
    assert scaled.error == pytest.approx(scale * base.error, rel=1e-9, abs=0.0)


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 6),
    decilog_cond=st.integers(0, 80),
    det_kind=st.sampled_from(["positive", "negative", "complex"]),
    reference=st.sampled_from([1e-10, 1e-4]),
)
def test_outcome_depends_only_on_det_and_conditioning_floor(
    seed, dim, decilog_cond, det_kind, reference
):
    g = prng.stream(seed, 2)
    s = np.geomspace(1.0, 10.0 ** (-decilog_cond / 10), dim)  # exact condition number
    x = (prng.haar_unitary(g, dim) * s) @ prng.haar_unitary(g, dim).conj().T
    phase = {"positive": 0.0, "negative": np.pi, "complex": g.uniform(0.1, np.pi - 0.1)}
    x *= np.exp(1j * (phase[det_kind] - np.angle(np.linalg.det(x))) / dim)
    s = np.linalg.svd(x, compute_uv=False)
    floor = Tolerances().scaled(reference).positivity
    ratio = s[-1] / s[0]
    assume(abs(ratio / floor - 1.0) > 1e-6)  # off the floor itself
    if ratio <= floor:
        expected = IllConditioned
    elif det_kind != "positive":
        expected = DeterminantObstruction
    else:
        expected = None
    with mock.patch.dict(os.environ, {"POSFACTOR_TOL": repr(reference)}):
        if expected is None:
            pf = matrix_to_positive_factors(x, SMALL)
            assert len(pf.factors) in (1, SMALL.predicted_factors(1))
        else:
            with pytest.raises(expected):
                matrix_to_positive_factors(x, SMALL)
