"""Determinant residues, trace identities, and scalar distance landscapes."""

import sys

import numpy as np
import pytest

from posfactor import matcore
from posfactor import rng as prng
from posfactor.factorlab import (
    FactorizationSchedule,
    PositiveFactorization,
    factorization_from_wire,
    factorization_to_wire,
    matrix_to_positive_factors,
    unitary_to_positive_factors,
)
from posfactor.factorlab import types
from posfactor.matcore import chain_product, hermitian_eig, matrix_to_wire, positive_log
from posfactor.obstruction import (
    DEFAULT_BUDGET_LADDER,
    det_nonneg_check,
    dhs_residue_of_exponential,
    estimate_group_G,
    normalized_trace,
    scalar_obstruction_distance,
    standard_trace,
    unitary_product_trace_identity,
    verify_factorization,
)


def _inverse_sqrt(p):
    spec = hermitian_eig(p)
    w = spec.eigenvalues
    v = spec.eigenvectors
    return (v * w**-0.5) @ v.conj().T


class TestDhsResidue:
    def test_zero_exponent(self):
        rec = dhs_residue_of_exponential(np.zeros((2, 2)), standard_trace(2))
        assert rec.value == 0.0
        assert rec.residue == 0.0

    def test_half_winding(self):
        c = 2j * np.pi * np.diag([0.5, 0.0]).astype(complex)
        rec = dhs_residue_of_exponential(c, standard_trace(2))
        assert abs(rec.residue - 0.5) <= 1e-12

    def test_full_winding_wraps_to_zero(self):
        c = 2j * np.pi * np.diag([1.0, 1.0]).astype(complex)
        rec = dhs_residue_of_exponential(c, standard_trace(2))
        assert abs(rec.residue) <= 1e-12

    def test_normalized_trace_has_finer_lattice(self):
        c = 2j * np.pi * np.diag([1.0, 0.0]).astype(complex)
        std = dhs_residue_of_exponential(c, standard_trace(2))
        nrm = dhs_residue_of_exponential(c, normalized_trace(2))
        assert abs(std.residue) <= 1e-12
        assert nrm.spacing == 0.5
        assert abs(nrm.residue) <= 1e-12

    def test_additive_on_commuting_hermitian_exponents(self):
        for i in range(20):
            g = prng.stream(i, 40)
            d1 = g.uniform(-1, 1, size=3)
            d2 = g.uniform(-1, 1, size=3)
            tau = standard_trace(3)
            r1 = dhs_residue_of_exponential(2j * np.pi * np.diag(d1), tau).residue
            r2 = dhs_residue_of_exponential(2j * np.pi * np.diag(d2), tau).residue
            r12 = dhs_residue_of_exponential(2j * np.pi * np.diag(d1 + d2), tau).residue
            gap = (r1 + r2 - r12) % tau.lattice_spacing
            assert min(gap, tau.lattice_spacing - gap) <= 1e-10


class TestTraceIdentity:
    def test_inverse_pair_sums_to_zero(self):
        g = prng.stream(31, 41)
        p = prng.positive_definite(g, 3)
        rec = unitary_product_trace_identity([p, np.linalg.inv(p)])
        assert abs(rec.s) <= 1e-10
        assert abs(abs(rec.det) - 1.0) <= 1e-10

    def test_normalized_closure_of_random_factors(self):
        g = prng.stream(32, 42)
        ps = [prng.positive_definite(g, 3) for _ in range(4)]
        q = chain_product(ps, 3)
        ps.append(_inverse_sqrt(q.conj().T @ q))
        rec = unitary_product_trace_identity(ps)
        assert abs(rec.s) <= rec.bound

    def test_pipeline_factors_satisfy_identity(self):
        pf = unitary_to_positive_factors(np.diag([1j, -1j]), FactorizationSchedule(8, 8))
        rec = unitary_product_trace_identity(list(pf.factors), delta=pf.error * 2.1 + 1e-12)
        assert abs(rec.s) <= rec.bound

    def test_non_unitary_product_is_rejected(self):
        with pytest.raises(ValueError):
            unitary_product_trace_identity([np.diag([2.0, 1.0]).astype(complex)])

    def test_non_positive_factor_is_rejected(self):
        with pytest.raises(ValueError):
            unitary_product_trace_identity([np.diag([1.0, -1.0]).astype(complex)])


class TestDetNonneg:
    def test_two_positive_factors(self):
        g = prng.stream(33, 43)
        ps = [prng.positive_definite(g, 2) for _ in range(2)]
        ok, det = det_nonneg_check(ps)
        assert ok
        assert det.real > 0

    def test_semidefinite_factor_keeps_nonnegative_det(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        ok, det = det_nonneg_check([p, np.eye(2)])
        assert ok
        assert abs(det) <= 1e-12

    def test_rejects_indefinite_factor(self):
        with pytest.raises(ValueError):
            det_nonneg_check([np.diag([1.0, -1.0])])

    def test_rejects_non_hermitian_factor(self):
        with pytest.raises(ValueError):
            det_nonneg_check([np.array([[1.0, 1.0], [0.0, 1.0]])])


class TestScalarDistance:
    def test_unit_scalar_is_reachable(self):
        rep = scalar_obstruction_distance(1.0, 2)
        assert rep.in_group
        assert rep.best_distance == 0.0

    def test_minus_one_is_reachable_in_m2(self):
        rep = scalar_obstruction_distance(-1.0, 2)
        assert rep.in_group
        assert rep.best_distance <= 0.2

    def test_i_has_a_positive_floor_in_m2(self):
        rep = scalar_obstruction_distance(1j, 2)
        assert not rep.in_group
        assert rep.best_distance >= 0.5

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            scalar_obstruction_distance(2.0, 2)


def test_estimate_group_identifies_square_roots():
    reports = estimate_group_G(2)
    assert len(reports) == 8
    accepted = {
        round(np.angle(r.lam) / (2 * np.pi) % 1.0, 6)
        for r in reports
        if r.best_distance is not None and r.best_distance < 0.25
    }
    assert accepted == {0.0, 0.5}
    for r in reports:
        assert r.in_group == (abs(r.lam**2 - 1.0) <= 1e-10)


def test_default_budget_ladder_shape():
    assert [(b.trotter_steps, b.commutator_steps) for b in DEFAULT_BUDGET_LADDER] == [
        (4, 4),
        (8, 8),
        (16, 16),
    ]


def test_verify_factorization_includes_trace_identity_for_unitary_targets():
    pf = unitary_to_positive_factors(np.diag([1j, -1j]), FactorizationSchedule(8, 8))
    checks = verify_factorization(pf)
    names = [name for name, _, _ in checks]
    assert "trace-identity" in names
    assert all(ok for _, ok, _ in checks)


def _chain_product_calls(monkeypatch) -> list:
    """Count chain_product calls made through any posfactor module."""
    calls = []
    original = matcore.chain_product

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "posfactor" and getattr(mod, "chain_product", None) is original:
            monkeypatch.setattr(mod, "chain_product", spy)
    return calls


@pytest.mark.parametrize("kind", ["general", "su"])
def test_verify_factorization_multiplies_the_product_once(monkeypatch, kind):
    g = prng.stream(34, 44)
    x = prng.special_unitary(g, 4) if kind == "su" else prng.det_positive(g, 4)
    pf = matrix_to_positive_factors(x, FactorizationSchedule(8, 8))
    calls = _chain_product_calls(monkeypatch)
    checks = verify_factorization(pf)
    assert len(calls) == 1
    assert ("trace-identity" in [name for name, _, _ in checks]) == (kind == "su")
    assert all(ok for _, ok, _ in checks)


def test_trace_identity_counts_a_stored_factor_once_per_repeat():
    # (2 I)^3 (I / 8) = I: the log-determinants cancel only if 2 I counts three times
    eye = np.eye(2, dtype=complex)
    pf = PositiveFactorization.measured(eye, (2.0 * eye, eye / 8.0), "word",
                                        FactorizationSchedule(1, 1), ((1, 3), (1, 1)))
    assert len(pf.factors) == 4
    assert pf.error == 0.0
    verdicts = {name: ok for name, ok, _ in verify_factorization(pf)}
    assert "trace-identity" in verdicts
    assert all(verdicts.values())


def test_verify_factorization_checks_each_stored_factor_once(monkeypatch):
    x = prng.det_positive(prng.stream(34, 46), 4)
    pf = matrix_to_positive_factors(x, FactorizationSchedule(16, 16))
    calls = []
    original = types.hermitian_defect

    def spy(f):
        calls.append(1)
        return original(f)

    monkeypatch.setattr(types, "hermitian_defect", spy)
    checks = verify_factorization(pf)
    assert len(pf.factors) == 12_289
    assert len(calls) == 4  # the three block factors and the polar factor
    assert all(ok for _, ok, _ in checks)


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_trace_identity_sum_matches_the_factor_logs(dim):
    u = prng.special_unitary(prng.stream(35, dim), dim)
    pf = matrix_to_positive_factors(u, FactorizationSchedule(8, 8))
    rec = unitary_product_trace_identity(pf.factors)
    reference = sum(np.trace(positive_log(f)).real for f in pf.factors)
    assert abs(rec.s - reference) <= 1e-11


def _asymmetric(f):
    f = f.copy()
    f[0, 1] += 0.1
    return f


_TAMPERS = {
    "negated": (lambda f: -f, {"factors-positive", "trace-identity"}),
    "doubled": (lambda f: 2.0 * f, {"trace-identity"}),
    "asymmetric": (_asymmetric, {"factors-hermitian"}),
    "near-singular": (lambda f: np.diag([1.0, 1.0, 1e-14]), {"factors-positive", "trace-identity"}),
}


@pytest.mark.parametrize(
    "form, tamper, failing",
    [("flat", *case) for case in _TAMPERS.values()]
    + [("word", *case) for case in _TAMPERS.values()],
    ids=list(_TAMPERS) + [f"word-{name}" for name in _TAMPERS],
)
def test_verify_factorization_flags_a_tampered_factor(form, tamper, failing):
    u = prng.special_unitary(prng.stream(36, 45), 3)
    pf = matrix_to_positive_factors(u, FactorizationSchedule(4, 4))
    if form == "flat":  # one copy of the first factor
        factors = (tamper(pf.factors[0]),) + pf.factors[1:]
        tampered = PositiveFactorization(pf.target, factors, pf.error, pf.method, pf.schedule)
    else:  # the stored first block factor, so every repeat of it
        wire = factorization_to_wire(pf)
        wire["factors"][0] = matrix_to_wire(tamper(pf.factors[0]))
        tampered = factorization_from_wire(wire)
        assert tampered.word == pf.word == ((3, 64), (1, 1))
    checks = verify_factorization(tampered)
    verdicts = {name: ok for name, ok, _ in checks}
    assert "trace-identity" in verdicts
    assert not any(verdicts[name] for name in failing)
