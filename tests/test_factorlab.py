"""Factorization pipeline: splits, product formulas, budgets, wire format."""

import json

import numpy as np
import pytest

from posfactor import rng as prng
from posfactor.errors import BudgetExceeded, DeterminantObstruction, NotInvertible
from posfactor.factorlab import (
    DEFAULT_SCHEDULE,
    FactorizationSchedule,
    commutator_exp_factors,
    conjugate_positive_as_two,
    direct_sum_factorization,
    factorization_from_wire,
    factorization_to_wire,
    invariant_report,
    matrix_to_positive_factors,
    trotter_factors,
    two_positive_split,
    unitary_to_positive_factors,
)
from posfactor.experiments.emit import to_json
from posfactor.matcore import chain_product, matrix_exp, matrix_to_wire, operator_norm
from posfactor.obstruction import verify_factorization


def _assert_all_invariants(pf):
    report = invariant_report(pf)
    bad = [(name, detail) for name, ok, detail in report if not ok]
    assert not bad, f"invariant failures: {bad}"


class TestTwoPositiveSplit:
    def test_positive_definite_with_identity_witness(self):
        x = np.array([[2.0, 0.5], [0.5, 1.0]], dtype=complex)
        pf = two_positive_split(x, np.eye(2))
        assert len(pf.factors) == 2
        assert np.allclose(pf.factors[0], np.eye(2), atol=1e-12)
        assert np.allclose(pf.factors[1], x, atol=1e-12)
        assert pf.error <= 1e-12

    def test_upper_triangular_example(self):
        x = np.array([[2.0, 1.0], [0.0, 1.0]], dtype=complex)
        s = np.array([[1.0, -1.0], [0.0, 1.0]], dtype=complex)
        pf = two_positive_split(x, s)
        assert pf.error <= 1e-10 * operator_norm(x)
        for f in pf.factors:
            assert np.linalg.eigvalsh(f)[0] > 0
        assert np.allclose(pf.factors[0], [[2.0, -1.0], [-1.0, 1.0]], atol=1e-12)

    def test_random_witness(self):
        g = prng.stream(6, 70)
        n = 5
        s = prng.complex_gaussian(g, n) + 2.0 * np.eye(n)
        d = np.diag(g.uniform(0.5, 2.0, size=n)).astype(complex)
        x = s @ d @ np.linalg.inv(s)
        pf = two_positive_split(x, s)
        assert pf.error <= 1e-10 * operator_norm(x) * np.linalg.cond(s)
        for f in pf.factors:
            assert np.linalg.eigvalsh(f)[0] > 0

    def test_rejects_inconsistent_witness(self):
        x = np.array([[2.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError):
            two_positive_split(x, np.eye(2))

    def test_rejects_singular_witness(self):
        with pytest.raises(NotInvertible):
            two_positive_split(np.eye(2), np.zeros((2, 2)))

    def test_rejects_a_form_below_the_definiteness_floor(self):
        with pytest.raises(ValueError):
            two_positive_split(np.diag([1.0, 1e-14]), np.eye(2))


class TestConjugatePositiveAsTwo:
    def test_unitary_conjugation_has_trivial_second_factor(self):
        g = prng.stream(7, 71)
        u = prng.haar_unitary(g, 3)
        p = prng.positive_definite(g, 3)
        pf = conjugate_positive_as_two(u, p)
        assert np.allclose(pf.factors[1], np.eye(3), atol=1e-12)
        assert pf.error <= 1e-12 * operator_norm(p)

    def test_diagonal_example(self):
        v = np.diag([2.0, 1.0]).astype(complex)
        p = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
        pf = conjugate_positive_as_two(v, p)
        target = v @ p @ np.linalg.inv(v)
        assert operator_norm(pf.product() - target) <= 1e-12

    def test_random_reconstruction(self):
        g = prng.stream(8, 72)
        v = prng.complex_gaussian(g, 6) + 2.0 * np.eye(6)
        p = prng.positive_definite(g, 6)
        pf = conjugate_positive_as_two(v, p)
        cond = np.linalg.cond(v)
        bound = 1e-10 * operator_norm(v) * operator_norm(p) * cond
        assert pf.error <= bound
        for f in pf.factors:
            assert np.linalg.eigvalsh(f)[0] > 0

    def test_rejects_non_positive_p(self):
        with pytest.raises(ValueError):
            conjugate_positive_as_two(np.eye(2), np.diag([1.0, -1.0]))


class TestTrotterFactors:
    def test_commuting_case_is_exact(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        b = np.diag([0.5, -0.5]).astype(complex)
        factors = trotter_factors(a, b, 1)
        assert operator_norm(chain_product(factors) - matrix_exp(a + b)) <= 1e-12

    def test_zero_b_is_exact_for_any_n(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
        for n in (1, 3, 8):
            factors = trotter_factors(a, np.zeros((2, 2)), n)
            assert operator_norm(chain_product(factors) - matrix_exp(a)) <= 1e-12

    def test_error_halves_when_steps_double(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        b = a.conj().T
        target = matrix_exp(a + b)
        errors = {}
        for n in (8, 16, 32, 64):
            errors[n] = operator_norm(chain_product(trotter_factors(a, b, n)) - target)
        for n in (8, 16, 32):
            ratio = errors[2 * n] / errors[n]
            assert 0.40 <= ratio <= 0.60

    def test_factor_count_is_2n(self):
        a = np.eye(2, dtype=complex)
        assert len(trotter_factors(a, a, 5)) == 10


class TestCommutatorExpFactors:
    def test_commuting_gives_identity_target(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        b = np.diag([0.5, 1.5]).astype(complex)
        pf = commutator_exp_factors(a, b, 4)
        assert operator_norm(pf.target - np.eye(2)) <= 1e-12
        assert pf.error <= 16 * 1e-12

    def test_error_ratio_band(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        b = np.diag([1.0, -1.0]).astype(complex)
        errors = {n: commutator_exp_factors(a, b, n).error for n in (4, 8, 16)}
        for n in (4, 8):
            ratio = errors[2 * n] / errors[n]
            assert 0.35 <= ratio <= 0.65

    def test_factor_count_and_positivity_at_16(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        b = np.diag([1.0, -1.0]).astype(complex)
        pf = commutator_exp_factors(a, b, 16)
        assert len(pf.factors) == 3 * 16 * 16
        assert min(np.linalg.eigvalsh(f)[0] for f in pf.factors) > 0

    def test_rejects_non_hermitian_b(self):
        a = np.eye(2, dtype=complex)
        with pytest.raises(ValueError):
            commutator_exp_factors(a, np.array([[0.0, 1.0], [0.0, 0.0]]), 4)


class TestUnitaryPipeline:
    def test_diag_i_minus_i_error_budget(self):
        u = np.diag([1j, -1j])
        pf8 = unitary_to_positive_factors(u, FactorizationSchedule(8, 8))
        pf16 = unitary_to_positive_factors(u, FactorizationSchedule(16, 16))
        assert pf8.error <= 0.2
        assert pf16.error < pf8.error
        _assert_all_invariants(pf8)
        _assert_all_invariants(pf16)

    def test_identity_is_a_single_factor(self):
        pf = unitary_to_positive_factors(np.eye(3))
        assert len(pf.factors) == 1
        assert pf.error <= 1e-12

    def test_determinant_obstruction(self):
        with pytest.raises(DeterminantObstruction):
            unitary_to_positive_factors(np.diag([1j, 1j]))

    def test_budget_exceeded(self):
        u = np.diag([1j, -1j])
        with pytest.raises(BudgetExceeded):
            unitary_to_positive_factors(u, FactorizationSchedule(8, 8, max_factors=10))

    def test_factor_count_matches_schedule_prediction(self):
        u = np.diag([1j, -1j])
        sched = FactorizationSchedule(4, 4)
        pf = unitary_to_positive_factors(u, sched)
        # one effective commutator pair for this target
        assert len(pf.factors) == sched.predicted_factors(pairs=1) - 1


class TestMatrixPipeline:
    def test_positive_definite_shortcut(self):
        p = np.array([[3.0, 1.0], [1.0, 2.0]], dtype=complex)
        pf = matrix_to_positive_factors(p)
        assert len(pf.factors) == 1
        assert pf.error == 0.0
        assert pf.method == "positive_definite"

    def test_upper_triangular_target(self):
        x = np.array([[2.0, 1.0], [0.0, 1.0]], dtype=complex)
        pf = matrix_to_positive_factors(x, FactorizationSchedule(8, 8))
        assert pf.error <= 0.2
        _assert_all_invariants(pf)

    def test_scalar_obstruction(self):
        with pytest.raises(DeterminantObstruction):
            matrix_to_positive_factors(1j * np.eye(2))

    def test_singular_target(self):
        with pytest.raises(NotInvertible):
            matrix_to_positive_factors(np.zeros((3, 3)))

    def test_seeded_det_positive_target(self):
        g = prng.stream(11, 73)
        x = prng.det_positive(g, 3, cond=10)
        pf = matrix_to_positive_factors(x, FactorizationSchedule(16, 16))
        assert pf.error <= 0.1
        _assert_all_invariants(pf)


class TestDirectSum:
    def test_error_is_max_of_block_errors(self):
        u = np.diag([1j, -1j])
        pf1 = unitary_to_positive_factors(u, FactorizationSchedule(4, 4))
        p = np.array([[2.0, 0.0], [0.0, 1.0]], dtype=complex)
        pf2 = matrix_to_positive_factors(p)
        combined = direct_sum_factorization([pf1, pf2])
        assert combined.n == 4
        assert abs(combined.error - max(pf1.error, pf2.error)) <= 1e-12
        _assert_all_invariants(combined)

    def test_single_block_passthrough(self):
        p = np.eye(2, dtype=complex)
        pf = matrix_to_positive_factors(p)
        assert direct_sum_factorization([pf]) is pf


def test_schedule_validation():
    with pytest.raises(ValueError):
        FactorizationSchedule(0, 4)
    with pytest.raises(ValueError):
        FactorizationSchedule(4, 4, max_factors=0)
    sched = FactorizationSchedule(4, 8)
    assert sched.predicted_factors(pairs=2) == 4 * 2 * 3 * 64 + 1


def test_factorization_wire_round_trip():
    u = np.diag([1j, -1j])
    small = unitary_to_positive_factors(u, FactorizationSchedule(4, 4))
    large = matrix_to_positive_factors(prng.det_positive(prng.stream(13, 8), 8),
                                       FactorizationSchedule(32, 32))
    for pf in (small, large):
        text = to_json(factorization_to_wire(pf))
        back = factorization_from_wire(json.loads(text))
        assert back.method == pf.method
        assert back.error == pf.error
        assert back.schedule == pf.schedule
        assert back.word == pf.word
        assert len(back.factors) == len(pf.factors)
        assert np.array_equal(back.target, pf.target)
        assert all(np.array_equal(a, b) for a, b in zip(back.factors, pf.factors))
        # the recomputed error survives serialization bit-for-bit
        assert back.recomputed_error() == pf.recomputed_error()
    # each block factor is written once: 4 matrices for 98 305 factors
    assert len(to_json(factorization_to_wire(large)).encode()) < 64 * 1024
    # a file without a word stores every factor and reads back as one flat block
    flat = factorization_to_wire(small)
    del flat["word"]
    flat["factors"] = [matrix_to_wire(f) for f in small.factors]
    flat["error"] = operator_norm(small.target - chain_product(small.factors))
    back = factorization_from_wire(flat)
    assert back.word == ((len(small.factors), 1),)
    assert all(ok for _, ok, _ in verify_factorization(back))


@pytest.mark.parametrize("dim, steps", [(2, 8), (4, 8), (8, 8), (16, 8), (4, 32)])
def test_product_matches_a_left_to_right_product(dim, steps):
    x = prng.det_positive(prng.stream(14, dim, steps), dim)
    pf = matrix_to_positive_factors(x, FactorizationSchedule(steps, steps))
    assert pf.word == ((3, steps**3), (1, 1))
    acc = np.eye(dim, dtype=complex)
    for f in pf.factors:
        acc = acc @ f
    assert operator_norm(pf.product() - acc) <= 1e-9 * operator_norm(x)


def test_default_schedule_is_eight_by_eight():
    assert DEFAULT_SCHEDULE.trotter_steps == 8
    assert DEFAULT_SCHEDULE.commutator_steps == 8
